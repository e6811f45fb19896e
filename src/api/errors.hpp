// Typed terminal outcomes of a submitted job.
//
// A job's future resolves with exactly one of: a RunResult, the error the
// execution path actually threw (backend exceptions, fault::InjectedError
// after retries/fallback are exhausted), or one of the two typed errors
// below. Callers that opt into deadlines/cancellation (api::SubmitOptions)
// catch these to distinguish "the engine gave up on my behalf" from "the
// computation failed".
#pragma once

#include <stdexcept>
#include <string>

namespace wavetune::api {

/// EngineOptions carried a value no engine can serve with — a zero
/// queue capacity, a strip pool outside [1, 3]. Thrown by
/// the Engine constructor BEFORE any worker spawns, so a misconfigured
/// deployment fails loudly at startup instead of deadlocking or silently
/// misbehaving under load.
class EngineConfigError : public std::invalid_argument {
public:
  explicit EngineConfigError(const std::string& what) : std::invalid_argument(what) {}
};

/// The job was cancelled before producing a result — either explicitly via
/// Engine::cancel(...) on its Submission, or implicitly because the engine
/// shut down with a drain deadline that expired while the job was still
/// queued or running. The job's grid contents are unspecified.
class JobCancelled : public std::runtime_error {
public:
  JobCancelled() : std::runtime_error("wavetune: job cancelled") {}
  explicit JobCancelled(const std::string& what) : std::runtime_error(what) {}
};

/// The job's deadline (SubmitOptions::deadline) expired before it produced
/// a result — shed at dequeue or interrupted at a phase boundary. The
/// job's grid contents are unspecified.
class JobTimedOut : public std::runtime_error {
public:
  JobTimedOut() : std::runtime_error("wavetune: job deadline expired") {}
  explicit JobTimedOut(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace wavetune::api
