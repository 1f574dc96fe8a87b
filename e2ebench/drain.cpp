// The two FluidSim drain workloads: seeded permutation traffic injected
// in one batch and run until the fabric is idle ("inject -> drain").
//
//  * drain_staggered: 16,384 flows of seeded 1-16 MiB sizes on the
//    128-host x 8-rail bench fabric. Staggered completions force ~590
//    full re-solves, so the max-min solver carries the window.
//  * drain_bulk: 65,536 equal 4 MiB flows with seeded ECMP source ports
//    on a 1,024-host x 8-rail fabric. Completions collapse into ~22
//    batches, so admission and cold full solves carry it.
//
// Gate per window: every flow admitted and finished, and byte
// conservation — the bytes forwarded over all links equal the sum over
// flows of size x hop count, to 1e-9 relative.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "core/rng.h"
#include "fabric_at_scale.h"
#include "harness.h"
#include "net/fluid_sim.h"
#include "obs/metrics.h"

namespace e2ebench {
namespace {

using namespace astral;

constexpr core::Bytes kMiB = 1024ull * 1024ull;
/// Host offset of the permutation: flow i goes from host i to host
/// i + 40 on rail i mod rails (the bench_fluid_scaling traffic).
constexpr int kHostShift = 40;

struct DrainShape {
  topo::FabricParams fabric;
  int flows = 0;
  /// Seeded sizes of 1..16 MiB in 1 MiB steps; otherwise 4 MiB each.
  bool staggered_sizes = false;
  /// Seeded UDP source ports (per-QP ECMP entropy); otherwise the
  /// router's deterministic default port.
  bool seeded_ports = false;
};

topo::FabricParams fabric_params(int pods, int blocks_per_pod) {
  topo::FabricParams p;
  p.rails = 8;
  p.hosts_per_block = 16;
  p.blocks_per_pod = blocks_per_pod;
  p.pods = pods;
  return p;
}

std::vector<net::FlowSpec> generate_flows(const topo::Fabric& fabric, const DrainShape& shape,
                                          std::uint64_t seed) {
  core::Rng rng(seed);
  const auto hosts = fabric.topo().hosts();
  const int rails = fabric.params().rails;
  std::vector<net::FlowSpec> specs;
  specs.reserve(static_cast<std::size_t>(shape.flows));
  for (int i = 0; i < shape.flows; ++i) {
    net::FlowSpec s;
    s.src_host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    s.dst_host = hosts[static_cast<std::size_t>(i + kHostShift) % hosts.size()];
    s.src_rail = i % rails;
    s.dst_rail = i % rails;
    s.size = shape.staggered_sizes ? (1 + rng.uniform_int(16)) * kMiB : 4 * kMiB;
    if (shape.seeded_ports) s.src_port = static_cast<std::uint16_t>(1 + rng.uniform_int(65535));
    s.tag = static_cast<std::uint64_t>(i);
    specs.push_back(s);
  }
  return specs;
}

class DrainWorkload final : public Workload {
 public:
  DrainWorkload(DrainShape shape, std::uint64_t seed) : shape_(shape), seed_(seed) {}

  void setup(LayerLog* log) override {
    fabric_.reset();
    specs_.clear();
    fabric_ = build_fabric_at_scale(shape_.fabric, log);
    specs_ = timed(log, "setup.inputs_s", [&] { return generate_flows(*fabric_, shape_, seed_); });
  }

  RunResult run(LayerLog* log) override {
    RunResult r;
    obs::Metrics metrics;
    const auto t0 = Clock::now();
    net::FluidSim sim(*fabric_);
    if (log != nullptr) sim.set_metrics(&metrics);
    const auto t1 = Clock::now();
    const std::vector<net::FlowId> ids = sim.inject_batch(specs_);
    const auto t2 = Clock::now();
    sim.run();
    r.window_s = seconds_since(t0);
    const double inject_s = std::chrono::duration<double>(t2 - t1).count();
    const double run_s = seconds_since(t2);

    // Gate: every flow admitted and finished; bytes conserved.
    double expected_bytes = 0.0;
    for (net::FlowId id : ids) {
      const net::FlowState& f = sim.flow(id);
      ++r.attempted;
      if (!f.admitted || f.aborted || f.finish < 0.0 || f.remaining != 0.0) {
        ++r.failed;
        continue;
      }
      ++r.items;
      expected_bytes += static_cast<double>(f.spec.size) * static_cast<double>(f.path.size());
    }
    if (r.failed > 0) {
      r.violations.push_back(std::to_string(r.failed) + " flows not admitted or unfinished");
    }
    double forwarded = 0.0;
    const std::size_t links = fabric_->topo().link_count();
    for (std::size_t l = 0; l < links; ++l) {
      forwarded += sim.link_stats(static_cast<topo::LinkId>(l)).bytes_forwarded;
    }
    if (!(std::abs(forwarded - expected_bytes) <= 1e-9 * expected_bytes)) {
      r.violations.push_back("byte conservation: links forwarded " + std::to_string(forwarded) +
                             " B, flows x hops " + std::to_string(expected_bytes) + " B");
      r.failed = r.attempted;
      r.items = 0;
    }
    r.fingerprint["sim_makespan_s"] = sim.now();
    r.fingerprint["flows_completed"] = static_cast<double>(r.items);
    r.fingerprint["bytes_forwarded"] = forwarded;

    if (log != nullptr) {
      LayerLog& layers = *log;
      const double solve_s = log_solver_metrics(metrics, layers);
      layers["net.inject_s"].push_back(inject_s);
      layers["net.inject_us_per_flow"].push_back(inject_s * 1e6 /
                                                 static_cast<double>(specs_.size()));
      layers["net.run_s"].push_back(run_s);
      layers["net.run_other_s"].push_back(run_s - solve_s);
      layers["net.window_s"].push_back(r.window_s);
      layers["net.window_accounted"].push_back((inject_s + run_s) / r.window_s);
      layers["net.resolve_cached_us"].push_back(resolve_cached_us());
    }
    return r;
  }

  std::string input_bytes() override {
    setup(nullptr);
    std::string out;
    for (const net::FlowSpec& s : specs_) {
      out += std::to_string(s.src_host) + ' ' + std::to_string(s.dst_host) + ' ' +
             std::to_string(s.src_rail) + ' ' + std::to_string(s.dst_rail) + ' ' +
             std::to_string(s.size) + ' ' + std::to_string(s.src_port) + '\n';
    }
    return out;
  }

 private:
  /// One resolve_rates() over the t=0 active set with warm caches: the
  /// cached re-solve bench_fluid_scaling headlines, recorded next to the
  /// end-to-end numbers so the gap between the two stays visible.
  double resolve_cached_us() {
    net::FluidSim sim(*fabric_);
    sim.inject_batch(specs_);
    sim.run(0.0);
    sim.resolve_rates();
    std::vector<double> us;
    for (int k = 0; k < 5; ++k) {
      const auto t0 = Clock::now();
      sim.resolve_rates();
      us.push_back(seconds_since(t0) * 1e6);
    }
    std::nth_element(us.begin(), us.begin() + 2, us.end());
    return us[2];
  }

  DrainShape shape_;
  std::uint64_t seed_;
  std::unique_ptr<topo::Fabric> fabric_;
  std::vector<net::FlowSpec> specs_;
};

}  // namespace

double log_solver_metrics(const astral::obs::Metrics& metrics, LayerLog& log) {
  const double solves = static_cast<double>(metrics.counter("fluidsim.solves.full") +
                                            metrics.counter("fluidsim.solves.island"));
  log["net.solves"].push_back(solves);
  const astral::obs::Histogram* h = metrics.find_histogram("fluidsim.solve_us");
  const bool any = h != nullptr && h->count() > 0;
  const double solve_s = any ? h->sum() / 1e6 : 0.0;
  log["net.solve_s"].push_back(solve_s);
  log["net.solve_us_p50"].push_back(any ? h->percentile(50) : 0.0);
  log["net.solve_us_p99"].push_back(any ? h->percentile(99) : 0.0);
  log["net.solve_samples"].push_back(any ? static_cast<double>(h->count()) : 0.0);
  const double completed = static_cast<double>(metrics.counter("fluidsim.flows.completed"));
  log["net.flows_per_solve"].push_back(solves > 0 ? completed / solves : 0.0);
  return solve_s;
}

std::unique_ptr<Workload> make_drain_staggered(std::uint64_t seed, Scale scale) {
  DrainShape shape;
  shape.fabric = fabric_params(/*pods=*/2, /*blocks_per_pod=*/4);  // 128 hosts
  shape.flows = scale == Scale::Full ? 16384 : 1024;
  shape.staggered_sizes = true;
  return std::make_unique<DrainWorkload>(shape, seed);
}

std::unique_ptr<Workload> make_drain_bulk(std::uint64_t seed, Scale scale) {
  DrainShape shape;
  shape.fabric = scale == Scale::Full ? fabric_params(4, 16)   // 1,024 hosts
                                      : fabric_params(2, 2);   // 64 hosts
  shape.flows = scale == Scale::Full ? 65536 : 2048;
  shape.seeded_ports = true;
  return std::make_unique<DrainWorkload>(shape, seed);
}

}  // namespace e2ebench
