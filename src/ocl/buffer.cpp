#include "ocl/buffer.hpp"

#include <stdexcept>

namespace wavetune::ocl {

std::atomic<std::size_t> Buffer::live_{0};
std::atomic<std::size_t> Buffer::peak_{0};

void Buffer::write(std::size_t offset, const void* src, std::size_t n) {
  if (offset + n > storage_.size()) throw std::out_of_range("Buffer::write: out of range");
  if (n == 0) return;
  std::memcpy(storage_.data() + offset, src, n);
}

void Buffer::read(std::size_t offset, void* dst, std::size_t n) const {
  if (offset + n > storage_.size()) throw std::out_of_range("Buffer::read: out of range");
  if (n == 0) return;
  std::memcpy(dst, storage_.data() + offset, n);
}

}  // namespace wavetune::ocl
