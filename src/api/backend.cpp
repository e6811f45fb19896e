#include "api/backend.hpp"

#include <stdexcept>
#include <utility>

#include "api/plan.hpp"
#include "autotune/sched_select.hpp"
#include "util/strings.hpp"

namespace wavetune::api {

// Default execution path: every backend that compiles a real program runs
// and estimates through the ONE interpreter — structural parity, nothing
// to keep in sync per backend.

core::PhaseProgram Backend::plan(const core::InputParams& in,
                                 const core::TunableParams& prepared,
                                 const sim::SystemProfile&) const {
  return core::plan_phases(in, prepared, cpu::Scheduler::kBarrier);
}

core::RunResult Backend::run(core::HybridExecutor& executor, const core::WavefrontSpec& spec,
                             const core::PhaseProgram& program,
                             const core::LoweredKernel& lowered, core::Grid& grid,
                             const core::RunControl* control) const {
  return executor.run(spec, program, grid, nullptr, &lowered, control);
}

core::RunResult Backend::estimate(const core::HybridExecutor& executor,
                                  const core::InputParams& in,
                                  const core::PhaseProgram& program) const {
  return executor.estimate(in, program);
}

namespace {

/// "serial": the optimized sequential baseline. The incoming tuning is
/// irrelevant by definition — the prepared params are always the
/// canonical sequential configuration. (Note the plan cache keys on the
/// params as *given*, so differently-tuned serial compiles are distinct
/// cache entries carrying identical recipes.) Its program (one whole-grid
/// CPU phase) is informational: run/estimate use the dedicated serial
/// path, whose cost model has no scheduling overhead at all.
class SerialBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = kSerialBackend;
    return n;
  }

  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams&,
                              const sim::SystemProfile&) const override {
    in.validate();
    return core::TunableParams{1, -1, -1, 1};
  }

  core::RunResult run(core::HybridExecutor& executor, const core::WavefrontSpec& spec,
                      const core::PhaseProgram&, const core::LoweredKernel& lowered,
                      core::Grid& grid, const core::RunControl* control) const override {
    // One whole-grid sweep has no phase boundaries to poll at; honor the
    // control once up front so an already-cancelled/expired job is shed
    // before any work.
    if (control) {
      const core::RunControl::Stop stop = control->should_stop();
      if (stop != core::RunControl::Stop::kNone) throw core::ExecutionInterrupted(stop);
    }
    return executor.run_serial(spec, grid, &lowered);
  }

  core::RunResult estimate(const core::HybridExecutor& executor, const core::InputParams& in,
                           const core::PhaseProgram& program) const override {
    core::RunResult r;
    r.params = core::TunableParams{1, -1, -1, 1};
    core::PhaseTiming t;
    t.device = core::PhaseDevice::kCpu;
    t.d_begin = 0;
    t.d_end = program.phases.empty() ? core::num_diagonals(in.dim) : program.phases.back().d_end;
    t.ns = executor.estimate_serial(in);
    r.breakdown.phases.push_back(t);
    r.rtime_ns = r.breakdown.total_ns();
    return r;
  }
};

/// Shared prepare of the pure-CPU backends: the cpu_tile of the incoming
/// tuning is kept; any offload request (band, halo, gpus, gpu_tile) is
/// stripped at prepare time.
core::TunableParams prepare_cpu_only(const core::InputParams& in,
                                     const core::TunableParams& params) {
  in.validate();
  core::TunableParams p;
  p.cpu_tile = params.cpu_tile;
  return p.normalized(in.dim);
}

/// "cpu-tiled": tiled-parallel CPU execution with no GPU phase, under the
/// paper's barriered per-tile-diagonal scheduling.
class CpuTiledBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = kCpuTiledBackend;
    return n;
  }

  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams& params,
                              const sim::SystemProfile&) const override {
    return prepare_cpu_only(in, params);
  }
};

/// "cpu-dataflow": tiled-parallel CPU execution under the dependency-
/// counter dataflow scheduler (cpu/dataflow_wavefront.hpp) — no
/// inter-diagonal barriers, work stealing across the pool. Prepared
/// tunings are identical to "cpu-tiled" (GPU offload stripped, cpu_tile
/// kept), and results are bit-identical; only the schedule (and therefore
/// the charged simulated time) differs.
class CpuDataflowBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = kCpuDataflowBackend;
    return n;
  }

  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams& params,
                              const sim::SystemProfile&) const override {
    return prepare_cpu_only(in, params);
  }

  core::PhaseProgram plan(const core::InputParams& in, const core::TunableParams& prepared,
                          const sim::SystemProfile&) const override {
    return core::plan_phases(in, prepared, cpu::Scheduler::kDataflow);
  }
};

/// "cpu-auto": tiled-parallel CPU execution that picks the scheduling
/// discipline PER PHASE at plan time: the analytic cost models decide
/// barrier vs dataflow for every CPU phase of the program the same way
/// the paper's autotuner decides band/halo/tile. The chosen program is
/// what the plan carries, so run and estimate CANNOT disagree on the
/// discipline — the choice is data, not a per-call re-derivation.
class CpuAutoBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = kCpuAutoBackend;
    return n;
  }

  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams& params,
                              const sim::SystemProfile&) const override {
    return prepare_cpu_only(in, params);
  }

  core::PhaseProgram plan(const core::InputParams& in, const core::TunableParams& prepared,
                          const sim::SystemProfile& profile) const override {
    return autotune::tune_cpu_schedulers(core::plan_phases(in, prepared), in, profile.cpu);
  }
};

/// "hybrid": the paper's three-phase CPU/GPU schedule — the default
/// program of core::plan_phases, with validation hoisted to compile time.
class HybridBackend final : public Backend {
public:
  const std::string& name() const override {
    static const std::string n = kHybridBackend;
    return n;
  }

  core::TunableParams prepare(const core::InputParams& in, const core::TunableParams& params,
                              const sim::SystemProfile& profile) const override {
    in.validate();
    const core::TunableParams p = params.normalized(in.dim);
    if (p.gpu_count() > profile.gpu_count()) {
      throw std::invalid_argument("backend 'hybrid': tuning requests " +
                                  std::to_string(p.gpu_count()) + " GPU(s) but system '" +
                                  profile.name + "' has " +
                                  std::to_string(profile.gpu_count()));
    }
    return p;
  }
};

}  // namespace

BackendRegistry::BackendRegistry() {
  backends_[kSerialBackend] = std::make_shared<SerialBackend>();
  backends_[kCpuTiledBackend] = std::make_shared<CpuTiledBackend>();
  backends_[kCpuDataflowBackend] = std::make_shared<CpuDataflowBackend>();
  backends_[kCpuAutoBackend] = std::make_shared<CpuAutoBackend>();
  backends_[kHybridBackend] = std::make_shared<HybridBackend>();
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(std::shared_ptr<const Backend> backend) {
  if (!backend) throw std::invalid_argument("BackendRegistry::add: null backend");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = backends_.emplace(backend->name(), std::move(backend));
  if (!inserted) {
    throw std::invalid_argument("BackendRegistry::add: backend '" + it->first +
                                "' is already registered");
  }
}

std::shared_ptr<const Backend> BackendRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = backends_.find(name);
  return it == backends_.end() ? nullptr : it->second;
}

std::shared_ptr<const Backend> BackendRegistry::require(const std::string& name) const {
  auto backend = find(name);
  if (!backend) {
    throw std::invalid_argument("unknown backend '" + name + "' (registered: " +
                                util::join(names(), ", ") + ")");
  }
  return backend;
}

std::vector<std::string> BackendRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& [name, backend] : backends_) out.push_back(name);
  return out;
}

// --- Plan accessors that need the full Backend type ----------------------

const detail::PlanState& Plan::checked() const {
  if (!state_) throw std::logic_error("Plan: default-constructed (invalid) plan");
  return *state_;
}

const core::WavefrontSpec& Plan::spec() const {
  const detail::PlanState& s = checked();
  if (!s.executable) {
    throw std::logic_error("Plan::spec: estimate-only plan has no kernel (compiled from "
                           "InputParams; use Engine::estimate)");
  }
  return s.spec;
}

const Backend& Plan::backend() const { return *checked().backend; }

const std::string& Plan::backend_name() const { return checked().backend->name(); }

}  // namespace wavetune::api
