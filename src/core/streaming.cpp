#include "core/streaming.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/diag.hpp"

namespace wavetune::core {

std::size_t whole_grid_resident_bytes(std::size_t dim, std::size_t elem_bytes) {
  return dim * dim * elem_bytes;
}

std::size_t streamed_resident_bytes(std::size_t dim, std::size_t elem_bytes,
                                    std::size_t strip_rows, std::size_t strip_buffers) {
  return strip_buffers * (strip_rows + 1) * dim * elem_bytes;
}

std::size_t max_strip_rows_for_cap(std::size_t dim, std::size_t elem_bytes, std::size_t cap,
                                   std::size_t strip_buffers) {
  const std::size_t row_bytes = dim * elem_bytes;
  const std::size_t pool_rows = cap / (strip_buffers * row_bytes);  // strip_rows + 1 halo
  if (pool_rows < 2) {
    throw StreamingPlanError(
        "streaming: max_resident_bytes " + std::to_string(cap) + " cannot hold even a " +
        std::to_string(strip_buffers) + "-buffer pool of 1-row strips for dim " +
        std::to_string(dim) + " (needs " +
        std::to_string(streamed_resident_bytes(dim, elem_bytes, 1, strip_buffers)) + " bytes)");
  }
  return std::min(pool_rows - 1, dim);
}

double estimate_streamed_gpu_phase_ns(std::size_t dim, std::size_t elem_bytes,
                                      double tsize_units, std::size_t d_begin,
                                      std::size_t d_end, std::size_t strip_rows,
                                      std::size_t strip_buffers, const sim::GpuModel& gpu,
                                      const sim::PcieModel& pcie) {
  const std::size_t strips = (dim + strip_rows - 1) / strip_rows;
  const std::size_t frontier_lo = d_begin >= 2 ? d_begin - 2 : 0;
  std::vector<double> done(strips, 0.0);
  double pcie_avail = 0.0;
  double queue_avail = 0.0;
  double end = 0.0;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t r0 = s * strip_rows;
    const std::size_t r1 = std::min(dim, r0 + strip_rows);
    // Frontier + band cells staged in, band cells read back.
    const std::size_t up_cells = cells_in_rows(dim, frontier_lo, d_end, r0, r1);
    const std::size_t down_cells = cells_in_rows(dim, d_begin, d_end, r0, r1);
    if (down_cells == 0) continue;  // no band cells in this strip: skipped
    double kernel_ns = 0.0;
    for (std::size_t d = d_begin; d < d_end; ++d) {
      const std::size_t n = diag_rows_in(dim, d, r0, r1);
      // Planning approximation: untiled per-diagonal launches, three
      // neighbour reads + one write of global traffic per item.
      if (n > 0) kernel_ns += gpu.kernel_ns(n, tsize_units, 4 * elem_bytes);
    }
    double w_start = pcie_avail;
    if (s >= strip_buffers) w_start = std::max(w_start, done[s - strip_buffers]);
    const double w_end = w_start + pcie.transfer_ns(up_cells * elem_bytes);
    pcie_avail = w_end;
    const double k_end = std::max(queue_avail, w_end) + kernel_ns;
    queue_avail = k_end;
    const double r_end = std::max(pcie_avail, k_end) + pcie.transfer_ns(down_cells * elem_bytes);
    pcie_avail = r_end;
    done[s] = r_end;
    end = std::max(end, r_end);
  }
  return end;
}

PhaseProgram apply_residency_cap(PhaseProgram program, const InputParams& in,
                                 const PlanConstraints& constraints) {
  if (constraints.max_resident_bytes == 0) return program;
  const std::size_t elem = in.elem_bytes();
  if (whole_grid_resident_bytes(in.dim, elem) <= constraints.max_resident_bytes) {
    return program;
  }
  bool has_gpu_single = false;
  for (const PhaseDesc& ph : program.phases) {
    if (ph.device == PhaseDevice::kGpuMulti) {
      throw StreamingPlanError(
          "streaming: program has a multi-GPU phase whose whole-grid footprint exceeds "
          "max_resident_bytes; the multi-GPU path cannot stream");
    }
    if (ph.device == PhaseDevice::kGpuSingle) has_gpu_single = true;
  }
  // Pure-CPU programs keep the host grid only — nothing resides on the
  // device, so the cap is trivially met without strips.
  if (!has_gpu_single) return program;
  const std::size_t max_rows =
      max_strip_rows_for_cap(in.dim, elem, constraints.max_resident_bytes,
                             constraints.strip_buffers);

  // Cost-model arbitration over the fitting strip sizes: the residency
  // term fixed the ceiling (max_rows); the overlap term picks the best
  // size under it by walking each candidate's event schedule over every
  // single-GPU phase. Candidates halve down from the ceiling — the
  // makespan curve is monotone-ish in strip size, so a geometric probe
  // finds the knee without an exhaustive sweep.
  std::size_t best_rows = max_rows;
  double best_ns = std::numeric_limits<double>::infinity();
  const sim::GpuModel gpu;    // planning uses the reference hardware model,
  const sim::PcieModel pcie;  // mirroring the executor's defaults
  for (std::size_t cand = max_rows; cand >= 1; cand /= 2) {
    double total = 0.0;
    for (const PhaseDesc& ph : program.phases) {
      if (ph.device != PhaseDevice::kGpuSingle) continue;
      total += estimate_streamed_gpu_phase_ns(in.dim, elem, in.tsize, ph.d_begin, ph.d_end,
                                              cand, constraints.strip_buffers, gpu, pcie);
    }
    if (total < best_ns) {
      best_ns = total;
      best_rows = cand;
    }
    if (cand == 1) break;
  }
  return apply_strips(std::move(program), best_rows, constraints.strip_buffers);
}

PhaseProgram plan_phases_streamed(const InputParams& in, const TunableParams& params,
                                  cpu::Scheduler scheduler,
                                  const PlanConstraints& constraints) {
  return apply_residency_cap(plan_phases(in, params, scheduler), in, constraints);
}

}  // namespace wavetune::core
