// Pluggable execution backends behind a name-keyed registry.
//
// A Backend is a stateless strategy object that knows how to validate a
// tuning for itself ("prepare", done once at Engine::compile time so every
// later submit skips validation), how to compile that tuning into a
// core::PhaseProgram ("plan", also once at compile time), and how to
// run/estimate a wavefront through the engine-owned HybridExecutor. The
// default run/estimate simply interpret the plan's program — one
// interpreter, two modes — so most backends only customise plan(). The
// built-ins mirror the execution paths that call sites previously picked
// by hand:
//
//   "serial"       optimized sequential baseline (HybridExecutor::run_serial)
//   "cpu-tiled"    tiled-parallel CPU only, barriered per-tile-diagonal
//                  scheduling — any GPU offload in the tuning is stripped
//                  at prepare time
//   "cpu-dataflow" tiled-parallel CPU only, dependency-counter dataflow
//                  scheduling with work stealing (no inter-diagonal
//                  barriers; see cpu/dataflow_wavefront.hpp) — same
//                  prepare-time GPU stripping, bit-identical results
//   "cpu-auto"     tiled-parallel CPU only; picks barrier vs dataflow per
//                  input through the analytic cost models
//                  (autotune::choose_cpu_scheduler)
//   "hybrid"       the paper's full three-phase CPU/GPU schedule
//
// User backends register through BackendRegistry::instance().add(...) and
// become addressable by name from Engine::compile immediately.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/phase_program.hpp"
#include "core/spec.hpp"
#include "sim/system_profile.hpp"

namespace wavetune::api {

/// Canonical names of the built-in backends.
inline constexpr const char* kSerialBackend = "serial";
inline constexpr const char* kCpuTiledBackend = "cpu-tiled";
inline constexpr const char* kCpuDataflowBackend = "cpu-dataflow";
inline constexpr const char* kCpuAutoBackend = "cpu-auto";
inline constexpr const char* kHybridBackend = "hybrid";

class Backend {
public:
  virtual ~Backend() = default;

  virtual const std::string& name() const = 0;

  /// Validates and canonicalises `params` for this backend on `profile`.
  /// Called once per Engine::compile; the returned tuning is what the plan
  /// carries, so run/estimate never re-validate. Throws
  /// std::invalid_argument for tunings this backend cannot execute (e.g.
  /// more GPUs than the profile has).
  virtual core::TunableParams prepare(const core::InputParams& in,
                                      const core::TunableParams& params,
                                      const sim::SystemProfile& profile) const = 0;

  /// Compiles a prepared tuning into the phase program this backend
  /// executes — called once per Engine::compile; the returned program is
  /// what the plan carries and what BOTH run and estimate interpret. The
  /// base implementation is the paper's default shape
  /// (core::plan_phases with the barriered CPU scheduler).
  virtual core::PhaseProgram plan(const core::InputParams& in,
                                  const core::TunableParams& prepared,
                                  const sim::SystemProfile& profile) const;

  /// Functionally computes every cell of `grid` by interpreting the
  /// plan's compiled `program`, charging simulated time. `grid` is
  /// caller-owned (see the ownership rules in api/plan.hpp). `lowered` is
  /// the plan's compile-time kernel resolution (core/lowered.hpp) —
  /// backends pass it down so no run path re-lowers or constructs a
  /// std::function per request. A non-null `control` is the job's
  /// cancellation/deadline poll (core/run_control.hpp): backends must
  /// thread it to the interpreter (the base implementation does) or at
  /// minimum honor it once before executing, so a cancelled or expired
  /// job stops within one phase. The base implementation is the generic
  /// interpreter (HybridExecutor::run over the program); only backends
  /// with a non-program execution path (e.g. "serial") override it.
  virtual core::RunResult run(core::HybridExecutor& executor, const core::WavefrontSpec& spec,
                              const core::PhaseProgram& program,
                              const core::LoweredKernel& lowered, core::Grid& grid,
                              const core::RunControl* control = nullptr) const;

  /// Simulated timing of the SAME program, without functional execution.
  /// Base implementation: HybridExecutor::estimate over the program.
  virtual core::RunResult estimate(const core::HybridExecutor& executor,
                                   const core::InputParams& in,
                                   const core::PhaseProgram& program) const;
};

/// Process-wide, thread-safe, name-keyed backend registry. The built-in
/// backends are registered on first access.
class BackendRegistry {
public:
  static BackendRegistry& instance();

  /// Registers a backend under backend->name(). Throws
  /// std::invalid_argument if the name is already taken.
  void add(std::shared_ptr<const Backend> backend);

  /// Looks a backend up by name; nullptr when unknown.
  std::shared_ptr<const Backend> find(const std::string& name) const;

  /// Like find(), but throws std::invalid_argument listing the registered
  /// names when `name` is unknown.
  std::shared_ptr<const Backend> require(const std::string& name) const;

  /// Registered backend names, sorted.
  std::vector<std::string> names() const;

private:
  BackendRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const Backend>> backends_;
};

}  // namespace wavetune::api
