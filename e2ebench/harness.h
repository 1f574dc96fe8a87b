// Shared pieces of the end-to-end benchmark: the workload interface, the
// result every timed window returns, the layer log the traced run fills,
// and the simulated-statistics fingerprint.
//
// A workload is one complete user run split in two timed parts:
//   setup()  everything paid before the first work item (fabric at
//            workload scale, input generation and submission, profile
//            parse/import/calibration);
//   run()    the timed window: work items completed (flows drained,
//            iterations committed, forecasts made).
// The harness (main.cpp) repeats both, reports medians, and checks each
// rep's correctness gate.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace astral::obs {
class Metrics;
}  // namespace astral::obs

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-layer samples of the traced run: name -> one value per rep (or per
/// setup). The harness reports each layer's median.
using LayerLog = std::map<std::string, std::vector<double>>;

/// Times one call into a layer and logs it; with no log (the untraced
/// run) it only calls through, so the end-to-end numbers carry no
/// tracing cost.
template <class F>
decltype(auto) timed(LayerLog* log, std::string_view name, F&& f) {
  if (log == nullptr) return f();
  struct Stop {
    LayerLog* log;
    std::string_view name;
    Clock::time_point t0 = Clock::now();
    ~Stop() { (*log)[std::string(name)].push_back(seconds_since(t0)); }
  } stop{log, name};
  return f();
}

/// Simulated statistics of one rep. A change that only speeds up the
/// simulator must leave every entry bit-identical; the harness also
/// checks that all reps of one seed agree.
using Fingerprint = std::map<std::string, double>;

/// FNV-1a over raw bytes; digests of simulated results and generated
/// inputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void value(double v) { bytes(&v, sizeof v); }
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  std::uint64_t get() const { return h_; }
  /// Exact as a double while below 2^53; digests are reported folded.
  double as_number() const { return static_cast<double>(h_ >> 11); }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// What one timed window produced.
struct RunResult {
  double window_s = 0.0;        ///< Wall time of the timed window only.
  std::uint64_t items = 0;      ///< Work items completed.
  std::uint64_t attempted = 0;  ///< Work items attempted.
  std::uint64_t failed = 0;     ///< Attempted items that failed or broke a gate.
  std::vector<std::string> violations;  ///< Gate failures, human-readable.
  Fingerprint fingerprint;
};

/// Problem sizes: `full` is the benchmark, `smoke` a reduced size for the
/// benchmark's own tests.
enum class Scale { Full, Smoke };

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the timed window needs. Repeatable; each call
  /// replaces the previous state.
  virtual void setup(LayerLog* log) = 0;
  /// One timed window over the state setup() built, then its correctness
  /// gate (outside the window). Returns counts and gate results; logs
  /// per-layer samples when `log` is set.
  virtual RunResult run(LayerLog* log) = 0;
  /// True when run() consumes its state, so every window needs a fresh
  /// setup() (the fleet runtime runs once).
  virtual bool setup_per_run() const { return false; }
  /// The seeded inputs in a canonical byte form (the determinism test
  /// compares these).
  virtual std::string input_bytes() = 0;
};

/// Logs the FluidSim solver layer from the counters and the
/// "fluidsim.solve_us" wall-clock histogram the simulator exports;
/// returns the solver's wall time in seconds.
double log_solver_metrics(const astral::obs::Metrics& metrics, LayerLog& log);

std::unique_ptr<Workload> make_drain_staggered(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_drain_bulk(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_fleet_faulted(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_seer_replay(std::uint64_t seed, Scale scale);

}  // namespace e2ebench
