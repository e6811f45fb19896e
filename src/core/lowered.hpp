// Tile-granular kernel ABI and plan-time kernel lowering.
//
// This is the third, widest rung of the kernel ABI ladder (see
// core/spec.hpp for the full ladder: cell -> segment -> tile). A
// TileKernel computes a whole rows x cols block in ONE call, and a
// LoweredKernel is the plan-time resolution of a WavefrontSpec onto that
// ABI: a plain C function pointer plus an opaque context — no
// std::function anywhere in the dispatch path. The execution engine
// resolves a spec ONCE (api::Engine::compile, or the top of
// HybridExecutor::run) and threads the LoweredKernel by reference through
// every scheduler, so the per-tile hot-loop cost is exactly one indirect
// call with the row loop, neighbour-pointer advance, and band clamping
// inlined inside it.
#pragma once

#include <cstddef>
#include <memory>

#include "core/diag.hpp"

namespace wavetune::core {

/// Raw tile-kernel entry point.
///
/// Computes every cell of the rows x cols block [i0, i1) x [j0, j1) in one
/// call, row-major (which respects the wavefront dependencies inside the
/// block), into row-major full-grid storage. `row_stride` is the byte
/// stride between consecutive grid rows (dim * elem_bytes); cell (i, j) of
/// the block lives at out + (i - i0) * row_stride + (j - j0) * elem_bytes.
///
/// Pointer contract (all pointers are into the same row-major storage,
/// mirroring core::SegmentKernel):
///   - `out` points at cell (i0, j0).
///   - `north` points at cell (i0-1, j0); null iff i0 == 0. Rows below the
///     first read their north neighbours from the block's own output.
///   - `west` points at cell (i0, j0-1); null iff j0 == 0. The west column
///     is strided: the west neighbour of row i is west + (i-i0)*row_stride.
///   - `northwest` points at cell (i0-1, j0-1); null iff i0 == 0 or
///     j0 == 0.
///
/// The kernel must be pure in the neighbours and safe to call concurrently
/// for independent blocks of one wavefront step. `ctx` is the opaque
/// captured state (owned by the TileKernel / LoweredKernel that carries
/// this function).
using TileKernelFn = void (*)(const void* ctx, std::size_t i0, std::size_t i1,
                              std::size_t j0, std::size_t j1, std::size_t row_stride,
                              const std::byte* west, const std::byte* north,
                              const std::byte* northwest, std::byte* out);

/// A tile kernel: plain function pointer + shared ownership of whatever
/// state the function reads. Deliberately NOT a std::function — invoking
/// it is one indirect call, and the hot loops never touch the shared_ptr.
struct TileKernel {
  TileKernelFn fn = nullptr;
  std::shared_ptr<const void> ctx;  ///< owns the state `fn` reads (may be null)

  explicit operator bool() const { return fn != nullptr; }
};

/// A WavefrontSpec resolved for dispatch: the tile entry point (native or
/// the fallback adapter built at lowering time), the grid geometry the
/// pointer math needs, and cold-path ownership of the context. Built by
/// WavefrontSpec::lower() exactly once per compiled plan / run; the
/// schedulers receive it by reference and dispatch through `fn`/`ctx`
/// only.
struct LoweredKernel {
  TileKernelFn fn = nullptr;
  const void* ctx = nullptr;
  std::size_t dim = 0;         ///< grid side; row stride = dim * elem_bytes
  std::size_t elem_bytes = 0;
  bool native = false;         ///< spec shipped a native TileKernel (no
                               ///< type-erased calls anywhere inside `fn`)
  std::shared_ptr<const void> keepalive;  ///< cold: owns `ctx`

  explicit operator bool() const { return fn != nullptr; }

  /// One raw call computing the full block [i0, i1) x [j0, j1) of
  /// `storage` (a full-grid-shaped, row-major byte array). The neighbour
  /// pointers are derived here, branch-free except for the border nulls.
  void block(std::byte* storage, std::size_t i0, std::size_t i1, std::size_t j0,
             std::size_t j1) const {
    const std::size_t stride = dim * elem_bytes;
    std::byte* out = storage + i0 * stride + j0 * elem_bytes;
    const std::byte* w = j0 > 0 ? out - elem_bytes : nullptr;
    const std::byte* n = i0 > 0 ? out - stride : nullptr;
    const std::byte* nw = (i0 > 0 && j0 > 0) ? out - stride - elem_bytes : nullptr;
    fn(ctx, i0, i1, j0, j1, stride, w, n, nw, out);
  }

  /// Band-clamped tile dispatch: computes the cells of the block
  /// [i0, i1) x [j0, j1) whose diagonal i + j lies in [d_begin, d_end).
  /// A tile fully inside the band — the common case of every full sweep
  /// and every interior tile of a banded phase — is ONE block() call; a
  /// tile straddling a band edge degrades to one call per clamped row.
  /// Requires i0 < i1 <= dim and j0 < j1 <= dim.
  void tile(std::byte* storage, std::size_t i0, std::size_t i1, std::size_t j0,
            std::size_t j1, std::size_t d_begin, std::size_t d_end) const {
    // Fully in band iff the top-left cell is past d_begin and the
    // bottom-right cell is before d_end.
    if (d_begin <= i0 + j0 && (i1 - 1) + j1 <= d_end) {
      block(storage, i0, i1, j0, j1);
      return;
    }
    for (std::size_t i = i0; i < i1; ++i) {
      if (d_end <= i) break;
      const auto [j_lo, j_hi] = row_band_span(i, d_begin, d_end, j0, j1);
      if (j_lo < j_hi) block(storage, i, i + 1, j_lo, j_hi);
    }
  }

  /// Strip-local block dispatch: same contract as block(), but `base`
  /// points at grid row `base_row` of a row-window buffer (full width,
  /// full row stride, holding only rows [base_row, ...)). The kernel
  /// still receives ABSOLUTE i0/j0 — apps index payloads by them — only
  /// the storage addressing is rebased. Requires i0 >= base_row, and
  /// i0 > base_row (or i0 == 0) for the north/northwest pointers to stay
  /// inside the buffer; the streaming executor guarantees that by
  /// placing each strip's halo row at the window's first row. No pointer
  /// before `base` is ever formed (base - base_row*stride could be far
  /// out of bounds, which is UB even unread).
  void block_local(std::byte* base, std::size_t base_row, std::size_t i0, std::size_t i1,
                   std::size_t j0, std::size_t j1) const {
    const std::size_t stride = dim * elem_bytes;
    std::byte* out = base + (i0 - base_row) * stride + j0 * elem_bytes;
    const std::byte* w = j0 > 0 ? out - elem_bytes : nullptr;
    const std::byte* n = i0 > 0 ? out - stride : nullptr;
    const std::byte* nw = (i0 > 0 && j0 > 0) ? out - stride - elem_bytes : nullptr;
    fn(ctx, i0, i1, j0, j1, stride, w, n, nw, out);
  }

  /// Strip-local band-clamped tile dispatch: tile() against a row-window
  /// buffer (see block_local for the base/base_row contract).
  void tile_local(std::byte* base, std::size_t base_row, std::size_t i0, std::size_t i1,
                  std::size_t j0, std::size_t j1, std::size_t d_begin,
                  std::size_t d_end) const {
    if (d_begin <= i0 + j0 && (i1 - 1) + j1 <= d_end) {
      block_local(base, base_row, i0, i1, j0, j1);
      return;
    }
    for (std::size_t i = i0; i < i1; ++i) {
      if (d_end <= i) break;
      const auto [j_lo, j_hi] = row_band_span(i, d_begin, d_end, j0, j1);
      if (j_lo < j_hi) block_local(base, base_row, i, i + 1, j_lo, j_hi);
    }
  }
};

}  // namespace wavetune::core
