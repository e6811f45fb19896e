// Online (runtime) tuning — the paper's §6 future work: "we plan to
// upgrade our offline auto-tuner to tune at runtime".
//
// Two refiners live here:
//
//   * refine_online — the original parameter-space hill climb: the
//     offline model's prediction seeds a local search over the
//     tunable-parameter neighbourhood, evaluated through the cost model.
//
//   * refine_program — the PROFILE-DRIVEN program-space hill climb: it
//     mutates the compiled core::PhaseProgram itself (split / merge /
//     re-device a phase, per-phase cpu_tile / gpu_tile moves and
//     scheduler flips — a pricing-only move, since every CPU phase runs
//     the same sweep — instead of one global tuning), scoring every
//     candidate by the
//     interpreter's estimate with each phase's simulated time multiplied
//     by the measured-vs-modelled residual scale of its device class
//     (PhaseCostScales, produced by profile::device_scales from live
//     ProfileStore data). With neutral scales it degenerates to a pure
//     model-driven program search; with measured scales it is the
//     "replan" leg of the measure -> attribute -> replan loop.
//
// Both refiners are budgeted: they stop after `max_evaluations` cost
// queries, so the tuning overhead is bounded and amortisable over
// repeated runs.
#pragma once

#include <cstddef>

#include "core/executor.hpp"
#include "core/params.hpp"
#include "core/phase_program.hpp"

namespace wavetune::autotune {

struct OnlineTunerOptions {
  std::size_t max_evaluations = 64;  ///< probe budget
  /// Multiplicative step ladder for band/halo moves; cpu-tile and
  /// gpu-count move by +-1 steps.
  double coarse_step = 0.25;
  double fine_step = 0.05;
};

struct OnlineTuneResult {
  core::TunableParams params;       ///< refined configuration
  double rtime_ns = 0.0;            ///< cost-model runtime of `params`
  double seed_rtime_ns = 0.0;       ///< runtime of the seed prediction
  std::size_t evaluations = 0;      ///< probes actually spent
  double improvement() const {
    return seed_rtime_ns > 0.0 ? seed_rtime_ns / rtime_ns : 1.0;
  }
};

/// Refines `seed` for `instance` by greedy neighbourhood descent:
/// each round proposes moves on every tunable (band up/down, halo
/// up/down/off, cpu-tile ladder, gpu-count up/down where the system
/// allows) and takes the best improving move until the budget is
/// exhausted or no move improves.
OnlineTuneResult refine_online(const core::HybridExecutor& executor,
                               const core::InputParams& instance,
                               const core::TunableParams& seed,
                               const OnlineTunerOptions& options = {});

// --- profile-driven program refinement ------------------------------------

/// Measured-vs-modelled cost multipliers per device class: how much slower
/// (> 1) or faster (< 1) phases of that class run in reality than the
/// a-priori model prices them. Neutral {1, 1} reproduces the raw model.
struct PhaseCostScales {
  double cpu = 1.0;
  double gpu = 1.0;  ///< applies to kGpuSingle and kGpuMulti phases alike

  double for_device(core::PhaseDevice d) const {
    return d == core::PhaseDevice::kCpu ? cpu : gpu;
  }
};

struct ProgramTuneOptions {
  std::size_t max_evaluations = 96;  ///< probe budget (cost queries)
};

struct ProgramTuneResult {
  core::PhaseProgram program;    ///< refined schedule (validated)
  double cost_ns = 0.0;          ///< scaled cost of `program`
  double seed_cost_ns = 0.0;     ///< scaled cost of the seed program
  std::size_t evaluations = 0;   ///< probes actually spent
  double improvement() const {
    return seed_cost_ns > 0.0 ? seed_cost_ns / cost_ns : 1.0;
  }
};

/// The scoring function of refine_program, exposed for tests and
/// reporting: the interpreter's estimate of `program`, with every phase's
/// simulated ns multiplied by its device-class residual scale.
double scaled_program_cost_ns(const core::HybridExecutor& executor,
                              const core::InputParams& instance,
                              const core::PhaseProgram& program,
                              const PhaseCostScales& scales);

/// Refines `seed` by greedy descent over PROGRAM mutations: per-phase
/// cpu_tile ladder and scheduler moves, per-phase gpu_tile ladder moves,
/// splitting a phase at its diagonal midpoint, merging adjacent
/// same-device phases, and re-deviceing a phase (CPU <-> single GPU,
/// multi-GPU -> CPU, respecting the profile's device count). Every
/// candidate is validated before scoring; the best improving move is taken
/// until the budget is exhausted or no move improves. The returned program
/// is always valid and never worse (under the scaled cost) than the seed.
ProgramTuneResult refine_program(const core::HybridExecutor& executor,
                                 const core::InputParams& instance,
                                 const core::PhaseProgram& seed,
                                 const PhaseCostScales& scales = {},
                                 const ProgramTuneOptions& options = {});

}  // namespace wavetune::autotune
