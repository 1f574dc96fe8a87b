// seer_replay: the Seer profile-replay path, the only workload that
// touches seer or core::Json (and none of the network simulator).
//
// Input: a seeded Kineto-style profile of one full training step — the
// LLaMA-3-405B (tp8/pp8/dp8) microbatch template chained 32 times (8,032
// ops, ~1.3 MB of JSON), each op's flops and bytes scaled by a seeded
// factor in [0.9, 1.1], forecast on H100s and exported with
// export_profiler_trace. It stands in for a profiler file on disk: a child
// process generates it and hands over the text, so the generator's memory
// stays out of this process's peak_rss_mb.
//
// Set-up: core::Json::parse, import_profiler_trace (superlinear in the op
// count), and a Calibrator fit of compute/memory efficiency from the
// profile's measured kernel durations.
//
// Window: what-if re-forecasts of the imported graph over GPU x CommEnv x
// efficiency model (27 forecasts). Gate: the imported graph has the
// generated op count, the identity what-if (the profiled configuration)
// reproduces the exported makespan to 1e-9 relative, and every forecast
// is finite and positive.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/rng.h"
#include "harness.h"
#include "seer/efficiency.h"
#include "seer/profiler_trace.h"
#include "seer/templates.h"

namespace e2ebench {
namespace {

using namespace astral;

struct Profile {
  std::string text;          ///< The exported profile document.
  std::size_t ops = 0;       ///< Ops the profile was generated from.
  double makespan = 0.0;     ///< The profiled (exported) makespan.
};

seer::SeerEngine profiled_engine() {
  return seer::SeerEngine(seer::CostModel(seer::GpuSpec::h100(), seer::CommEnv{},
                                          std::make_shared<seer::TestbedEfficiency>()));
}

Profile generate_profile(int microbatches, std::uint64_t seed) {
  const seer::OpGraph step = seer::build_graph(seer::ModelSpec::llama3_405b(),
                                               {.tp = 8, .dp = 8, .pp = 8, .ep = 1},
                                               seer::WorkloadShape{});
  core::Rng rng(seed);
  seer::OpGraph graph;
  const int n = static_cast<int>(step.ops.size());
  for (int k = 0; k < microbatches; ++k) {
    for (seer::Operator op : step.ops) {
      op.id += k * n;
      for (int& d : op.deps) d += k * n;
      // Each microbatch starts after the previous one's last op.
      if (k > 0 && op.deps.empty()) op.deps.push_back(k * n - 1);
      const double scale = rng.uniform(0.9, 1.1);
      op.flops *= scale;
      op.mem_bytes *= scale;
      op.comm_bytes *= scale;
      graph.ops.push_back(std::move(op));
    }
  }
  const seer::Timeline tl = profiled_engine().run(graph);
  return {seer::export_profiler_trace(tl, graph).dump(), graph.ops.size(), tl.makespan};
}

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// generate_profile() run in a child process; the parent reads the result
/// back through a pipe (op count, makespan, then the text) and waits for
/// the child to exit.
Profile generate_profile_in_child(int microbatches, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("seer_replay: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("seer_replay: fork failed");
  if (pid == 0) {
    close(fds[0]);
    const Profile p = generate_profile(microbatches, seed);
    const std::uint64_t ops = p.ops;
    const bool ok = write_all(fds[1], &ops, sizeof ops) &&
                    write_all(fds[1], &p.makespan, sizeof p.makespan) &&
                    write_all(fds[1], p.text.data(), p.text.size());
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  constexpr std::size_t kHeader = sizeof(std::uint64_t) + sizeof(double);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bytes.size() < kHeader) {
    throw std::runtime_error("seer_replay: profile generator failed");
  }
  Profile p;
  std::uint64_t ops = 0;
  std::memcpy(&ops, bytes.data(), sizeof ops);
  std::memcpy(&p.makespan, bytes.data() + sizeof ops, sizeof p.makespan);
  p.ops = ops;
  p.text = bytes.substr(kHeader);
  return p;
}

/// Fits compute and memory efficiency to the profile's measured kernels
/// (achieved / peak throughput per op), as Seer calibrates against a
/// testbed. Communication keeps the theoretical constant.
seer::CalibratedEfficiency calibrate(const core::Json& doc) {
  const seer::GpuSpec gpu = seer::GpuSpec::h100();
  seer::Calibrator cal;
  const core::Json& events = doc["traceEvents"];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const core::Json& ev = events.at(i);
    const double dur_s = ev["dur"].as_number() * 1e-6;
    if (dur_s <= 0.0) continue;
    const core::Json& args = ev["args"];
    const double flops = args.number_or("flops", 0.0);
    const double bytes = args.number_or("mem_bytes", 0.0);
    if (flops > 0.0) {
      cal.add_compute_sample(flops, std::min(1.0, flops / dur_s / gpu.flops));
    } else if (bytes > 0.0) {
      cal.add_memory_sample(bytes, std::min(1.0, bytes / dur_s / gpu.hbm_bw));
    }
  }
  return cal.fit();
}

class SeerReplayWorkload final : public Workload {
 public:
  SeerReplayWorkload(int microbatches, std::uint64_t seed)
      : profile_(generate_profile_in_child(microbatches, seed)) {}

  void setup(LayerLog* log) override {
    graph_.reset();
    calibrated_.reset();
    import_error_.clear();
    std::optional<core::Json> doc = timed(
        log, "core.json_parse_s", [&] { return core::Json::parse(profile_.text, &import_error_); });
    if (!doc) return;
    graph_ = timed(log, "seer.import_s", [&] {
      return seer::import_profiler_trace(*doc, /*keep_measured_times=*/false, &import_error_);
    });
    calibrated_ = timed(log, "seer.calibrate_s", [&] {
      return std::make_shared<const seer::CalibratedEfficiency>(calibrate(*doc));
    });
    if (log != nullptr) {
      (*log)["seer.imported_ops"].push_back(graph_ ? static_cast<double>(graph_->ops.size()) : 0.0);
    }
  }

  RunResult run(LayerLog* log) override {
    RunResult r;
    const std::vector<seer::GpuSpec> gpus = {seer::GpuSpec::h100(), seer::GpuSpec::a100(),
                                             seer::GpuSpec::low_tier()};
    seer::CommEnv big_hb;
    big_hb.hb_domain = 64;
    seer::CommEnv slow_net;
    slow_net.nic_bw = core::gbps(100.0);
    const std::vector<seer::CommEnv> envs = {seer::CommEnv{}, big_hb, slow_net};
    const std::vector<std::shared_ptr<const seer::EfficiencyModel>> effs = {
        std::make_shared<seer::TestbedEfficiency>(), calibrated_,
        std::make_shared<seer::TheoreticalEfficiency>()};
    r.attempted = gpus.size() * envs.size() * effs.size();

    std::string why;
    if (!graph_ || !graph_->validate(&why) || graph_->ops.size() != profile_.ops) {
      r.failed = r.attempted;
      r.violations.push_back(
          "import: " + (graph_ ? why + " (" + std::to_string(graph_->ops.size()) +
                                     " ops, generated " + std::to_string(profile_.ops) + ")"
                               : import_error_));
      return r;
    }

    std::vector<double> makespans;
    std::vector<double> forecast_ms;
    const auto t0 = Clock::now();
    for (const seer::GpuSpec& gpu : gpus) {
      for (const seer::CommEnv& env : envs) {
        for (const auto& eff : effs) {
          const auto f0 = Clock::now();
          const seer::SeerEngine engine(seer::CostModel(gpu, env, eff));
          makespans.push_back(engine.run(*graph_).makespan);
          if (log != nullptr) forecast_ms.push_back(seconds_since(f0) * 1e3);
        }
      }
    }
    r.window_s = seconds_since(t0);

    // Gate: finite positive forecasts; the identity what-if (first
    // variant: the profiled configuration) reproduces the profile.
    Digest digest;
    for (std::size_t i = 0; i < makespans.size(); ++i) {
      const double m = makespans[i];
      digest.value(m);
      bool ok = std::isfinite(m) && m > 0.0;
      if (!ok) r.violations.push_back("forecast " + std::to_string(i) + " is " + std::to_string(m));
      if (ok && i == 0 && !(std::abs(m - profile_.makespan) <= 1e-9 * profile_.makespan)) {
        ok = false;
        r.violations.push_back("identity what-if " + std::to_string(m) + " s vs profiled " +
                               std::to_string(profile_.makespan) + " s");
      }
      ++(ok ? r.items : r.failed);
    }
    r.fingerprint["sim_makespan_s"] = makespans[0];
    r.fingerprint["imported_ops"] = static_cast<double>(graph_->ops.size());
    r.fingerprint["forecast_digest"] = digest.as_number();

    if (log != nullptr) {
      (*log)["seer.forecasts"].push_back(static_cast<double>(makespans.size()));
      (*log)["seer.forecast_s"].push_back(r.window_s);
      std::sort(forecast_ms.begin(), forecast_ms.end());
      const auto last = static_cast<double>(forecast_ms.size() - 1);
      auto pct = [&](double p) { return forecast_ms[static_cast<std::size_t>(p * last)]; };
      (*log)["seer.forecast_ms_p50"].push_back(pct(0.5));
      (*log)["seer.forecast_ms_p90"].push_back(pct(0.9));
    }
    return r;
  }

  std::string input_bytes() override { return profile_.text; }

 private:
  Profile profile_;
  std::optional<seer::OpGraph> graph_;
  std::shared_ptr<const seer::CalibratedEfficiency> calibrated_;
  std::string import_error_;
};

}  // namespace

std::unique_ptr<Workload> make_seer_replay(std::uint64_t seed, Scale scale) {
  return std::make_unique<SeerReplayWorkload>(scale == Scale::Full ? 32 : 2, seed);
}

}  // namespace e2ebench
