// Per-input CPU-scheduler selection through the analytic cost model.
//
// Every CPU phase runs the same dataflow sweep; PhaseDesc::scheduler only
// selects which cost model prices it (barriered tile-diagonal model vs
// dependency-counter dataflow model, cpu/dataflow_wavefront.hpp). The
// choice is therefore a pricing question, and the cost models answer it
// deterministically per input by walking the same core::PhaseProgram the
// executor interprets: cost each CPU phase's region under each model and
// take the argmin. For the three shipped profiles the calibration
// (dataflow_dep_ns < tile_sched_ns, barrier_ns > 0) makes dataflow the
// cheaper price on every nonempty region; the selection hook earns its
// keep on recalibrated or user-supplied CpuModels — machines where
// dependency bookkeeping and steal traffic are priced above a pool
// barrier (high-core-count NUMA boxes, dataflow_dep_ns measured above
// tile_sched_ns) flip the answer per region shape. The "cpu-auto" backend
// applies the per-phase refinement (tune_cpu_schedulers) at PLAN time, so
// the one program its plan carries is what both run and estimate
// interpret.
#pragma once

#include "core/params.hpp"
#include "core/phase_program.hpp"
#include "cpu/dataflow_wavefront.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::autotune {

/// Total modelled CPU-phase time of the program `plan_phases(in, params,
/// scheduler)` would produce (the whole grid when the tuning uses no
/// GPU) — i.e. the sum of the CPU phases of the same program walk the
/// executor charges. `params` may be raw: it is normalized for in.dim.
double cpu_phase_cost_ns(cpu::Scheduler scheduler, const core::InputParams& in,
                         const core::TunableParams& params, const sim::CpuModel& cpu);

/// Modelled time of ONE CPU phase of a program on `cpu`.
double phase_cost_ns(const core::PhaseDesc& phase, std::size_t dim, double tsize_units,
                     std::size_t elem_bytes, const sim::CpuModel& cpu);

/// The single scheduler the cost model predicts faster across all CPU
/// phases of this input + tuning. Ties go to the barriered scheduler (the
/// paper's baseline discipline).
cpu::Scheduler choose_cpu_scheduler(const core::InputParams& in,
                                    const core::TunableParams& params,
                                    const sim::CpuModel& cpu);

/// Per-PHASE refinement: re-decides barrier-vs-dataflow for every CPU
/// phase of `program` independently (a pre-band sliver and a post-band
/// bulk phase can want different disciplines). GPU phases pass through
/// untouched; ties go to barrier. Returns the refined program.
core::PhaseProgram tune_cpu_schedulers(core::PhaseProgram program, const core::InputParams& in,
                                       const sim::CpuModel& cpu);

/// Backend-registry name of the predicted-faster pure-CPU backend for
/// this input + tuning: "cpu-dataflow" or "cpu-tiled". Convenience for
/// call sites that select per-plan through api::Engine::compile.
const char* preferred_cpu_backend(const core::InputParams& in,
                                  const core::TunableParams& params,
                                  const sim::SystemProfile& profile);

}  // namespace wavetune::autotune
