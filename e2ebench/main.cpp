// End-to-end benchmark driver: one workload, one seed, one process, one
// thread (every FluidSimConfig stays at its library default).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--scale full|smoke] [--git-sha SHA] [--dump-inputs PATH]
//
// Untraced (--trace 0): timed windows repeat until S seconds of window
// time have passed (at least 3); set-up runs at least 11 times (and for at
// least 0.5 s), once before the first window and the rest spread between
// windows. It prints the end-to-end metrics: ops_per_s (the
// median window's work items per second), setup_s (the median set-up) and
// peak_rss_mb.
//
// Traced (--trace 1): the same loop, with untraced and traced windows
// alternating; traced windows time the benchmark's calls into each
// layer and read the counters and histograms the program exports through
// obs::Metrics. It prints the per-layer metrics BENCHMARK.json declares
// (each the median over traced windows or set-ups) and the tracing
// overhead.
//
// Every window runs its workload's correctness gate; violations count as
// failed work items. Reps of one seed must also produce identical
// simulated statistics (the fingerprint line). The last line of stdout is
// the result object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/json.h"
#include "harness.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_SPEC
#define E2EBENCH_SPEC "BENCHMARK.json"
#endif

namespace {

using namespace e2ebench;
using astral::core::Json;

constexpr int kMinSetups = 11;
constexpr double kMinSetupSeconds = 0.5;
constexpr int kMaxSetups = 50;
/// Wall-clock cap on the measurement loop, far inside the 180 s budget.
constexpr double kWallCapSeconds = 120.0;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  Scale scale = Scale::Full;
  std::string git_sha = "unknown";
  std::string dump_inputs;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "drain_staggered|drain_bulk|fleet_faulted|seer_replay --seed N --seconds S "
               "--trace 0|1 [--scale full|smoke] [--git-sha SHA] [--dump-inputs PATH]\n",
               why);
  return 2;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "drain_staggered") return make_drain_staggered(o.seed, o.scale);
  if (o.workload == "drain_bulk") return make_drain_bulk(o.seed, o.scale);
  if (o.workload == "fleet_faulted") return make_fleet_faulted(o.seed, o.scale);
  if (o.workload == "seer_replay") return make_seer_replay(o.seed, o.scale);
  return nullptr;
}

Json env_block(const Options& o) {
  Json env = Json::object();
  env["workload"] = Json(o.workload);
  env["seed"] = Json(o.seed);
  env["seconds"] = Json(o.seconds);
  env["trace"] = Json(o.trace);
  env["scale"] = Json(o.scale == Scale::Full ? "full" : "smoke");
  env["nproc"] = Json(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  env["hardware_concurrency"] =
      Json(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  env["build_type"] = Json(E2EBENCH_BUILD_TYPE);
#if defined(__clang__)
  env["compiler"] = Json(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  env["compiler"] = Json(std::string("gcc ") + __VERSION__);
#else
  env["compiler"] = Json("unknown");
#endif
  env["git_sha"] = Json(o.git_sha);
  return env;
}

Json fingerprint_json(const Fingerprint& fp) {
  Json j = Json::object();
  Digest digest;
  for (const auto& [key, value] : fp) {
    j[key] = Json(value);
    digest.text(key);
    digest.value(value);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest.get()));
  j["digest"] = Json(hex);
  return j;
}

Json metric(double value, std::string_view unit) {
  Json m = Json::object();
  m["value"] = Json(value);
  m["unit"] = Json(unit);
  return m;
}

/// The per-layer metrics (name and unit) that BENCHMARK.json declares; the
/// traced run prints exactly these. Null when the file is unreadable.
Json declared_per_layer() {
  std::ifstream in(E2EBENCH_SPEC, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::optional<Json> spec = Json::parse(text);
  if (!spec || !(*spec)["per_layer"].is_array()) return Json();
  return (*spec)["per_layer"];
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (a + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++a];
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      o.trace = val == "1";
    } else if (arg == "--scale") {
      if (val != "full" && val != "smoke") return usage("--scale is full or smoke");
      o.scale = val == "full" ? Scale::Full : Scale::Smoke;
    } else if (arg == "--git-sha") {
      o.git_sha = val;
    } else if (arg == "--dump-inputs") {
      o.dump_inputs = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  std::unique_ptr<Workload> wl = make_workload(o);
  if (!wl) return usage(("unknown workload '" + o.workload + "'").c_str());

  if (o.dump_inputs.empty() && !(o.seconds > 0.0)) return usage("--seconds must be positive");
  const Json per_layer = o.trace ? declared_per_layer() : Json();
  if (o.trace && per_layer.is_null()) {
    return usage("cannot read the per-layer list in " E2EBENCH_SPEC);
  }

  if (!o.dump_inputs.empty()) {
    std::ofstream out(o.dump_inputs, std::ios::binary);
    out << wl->input_bytes();
    return out.good() ? 0 : 1;
  }

  std::printf("env %s\n", env_block(o).dump().c_str());
  const auto wall0 = Clock::now();
  LayerLog layers;
  LayerLog* trace_log = o.trace ? &layers : nullptr;

  std::vector<double> setups;
  auto timed_setup = [&](LayerLog* log) {
    const auto t0 = Clock::now();
    wl->setup(log);
    setups.push_back(seconds_since(t0));
  };
  // The first set-up sizes the sample: at least kMinSetups set-ups and
  // kMinSetupSeconds of set-up time. The rest are spread over the run,
  // keeping pace with the window time, so set-up and windows see the same
  // mix of host speeds.
  timed_setup(trace_log);
  const double setup_peak_rss_mb = peak_rss_mb();
  const double setup_target =
      std::clamp(std::ceil(kMinSetupSeconds / setups[0]), double{kMinSetups}, double{kMaxSetups});
  auto pace_setups = [&](double progress) {
    const double due = 1.0 + (setup_target - 1.0) * std::min(1.0, progress);
    while (static_cast<double>(setups.size()) < due) timed_setup(trace_log);
  };

  // Windows. Traced runs alternate untraced (even) and traced (odd) ones
  // so the tracing overhead is measured under the same machine load.
  std::vector<double> rates, traced_rates;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> violations;
  Fingerprint first_fp;
  bool deterministic = true;
  double window_total = 0.0;
  const int min_runs = o.trace ? 4 : 3;
  for (int run = 0; run < min_runs || window_total < o.seconds; ++run) {
    if (run > 0 && seconds_since(wall0) > kWallCapSeconds) break;
    LayerLog* log = o.trace && run % 2 == 1 ? &layers : nullptr;
    if (run > 0 && wl->setup_per_run()) timed_setup(log);
    RunResult r = wl->run(log);
    window_total += r.window_s;
    attempted += r.attempted;
    failed += r.failed;
    for (std::string& v : r.violations) {
      if (violations.size() < 20) violations.push_back(std::move(v));
    }
    (log != nullptr ? traced_rates : rates)
        .push_back(r.window_s > 0 ? static_cast<double>(r.items) / r.window_s : 0.0);
    if (run == 0) {
      first_fp = r.fingerprint;
    } else if (r.fingerprint != first_fp) {
      deterministic = false;
    }
    pace_setups(window_total / o.seconds);
  }
  pace_setups(1.0);
  if (!deterministic) violations.push_back("simulated statistics differ between reps of one seed");

  Json metrics = Json::object();
  if (!o.trace) {
    metrics["ops_per_s"] = metric(median(rates), "1/s");
    metrics["setup_s"] = metric(median(setups), "s");
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
  } else {
    const double untraced = median(rates);
    const double traced = median(traced_rates);
    layers["trace.ops_per_s"].push_back(traced);
    layers["trace.untraced_ops_per_s"].push_back(untraced);
    layers["trace.slowdown"].push_back(traced > 0 ? untraced / traced : 0.0);
    for (const Json& m : per_layer.as_array()) {
      const std::string& name = m["name"].as_string();
      const auto it = layers.find(name);
      metrics[name] = metric(it == layers.end() ? 0.0 : median(it->second), m["unit"].as_string());
    }
    for (const auto& [name, values] : layers) {
      if (!metrics.contains(name)) violations.push_back("unlisted layer metric " + name);
    }
  }

  std::printf("fingerprint %s\n", fingerprint_json(first_fp).dump().c_str());
  std::printf("summary setups=%zu setup_median_s=%.6f windows=%zu window_total_s=%.3f "
              "wall_s=%.3f peak_rss_after_setup_mb=%.3f\n",
              setups.size(), median(setups), rates.size() + traced_rates.size(), window_total,
              seconds_since(wall0), setup_peak_rss_mb);
  std::printf("window_ops_per_s");
  for (double rate : rates) std::printf(" %.6g", rate);
  std::printf("\n");
  for (const std::string& v : violations) std::printf("violation %s\n", v.c_str());

  Json result = Json::object();
  result["correct"] = Json(failed == 0 && violations.empty());
  result["attempted"] = Json(attempted);
  result["failed"] = Json(failed);
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
