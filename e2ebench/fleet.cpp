// fleet_faulted: the system-level >=1K-host point. A seeded Poisson
// stream of 200 tenants (a fixed mix of 8-64 hosts in seeded order, 20
// iterations each) arrives at a 1,024-host x 2-rail fabric while host
// deaths and ToR deaths strike at seeded times and every eighth tenant
// carries a job-local GPU failure, so the mitigation ladder
// (isolate-restart, reroute, elastic shrink) runs. A StreamAnalyzer is
// subscribed throughout. The window is one FleetRuntime::run(): job-engine
// steps, the collective runner, inline telemetry ingest and the fleet
// scheduler carry it; the solver is a few percent of it.
//
// Gate per window: every tenant completes all its configured
// iterations, and the fault schedule drives at least one successful
// mitigation.
//
// The traced run adds two replays over the campaign's captured job
// telemetry, outside the window: store ingest (a fresh TelemetryStore
// with a subscribed StreamAnalyzer, fed through public record() calls)
// and analyzer drill-down (HierarchicalAnalyzer::diagnose() per job the
// faults touched).
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"
#include "fabric_at_scale.h"
#include "harness.h"
#include "monitor/analyzer.h"
#include "monitor/fleet_runtime.h"
#include "monitor/stream_analyzer.h"
#include "obs/metrics.h"

namespace e2ebench {
namespace {

using namespace astral;

struct FleetShape {
  topo::FabricParams fabric;
  int jobs = 0;
  std::vector<int> sizes;
  std::vector<double> size_weights;
  int local_fault_every = 8;  ///< Every n-th tenant gets a job-local fault.
  int host_deaths = 0;
  int tor_deaths = 0;
};

/// The campaign's seeded inputs: tenants, their job-local faults, and the
/// fleet-level fault schedule.
struct FleetInputs {
  std::vector<monitor::FleetJobSpec> jobs;
  std::vector<std::vector<monitor::FaultSpec>> local_faults;
  std::vector<monitor::FleetFault> faults;
};

FleetInputs generate_inputs(const topo::Fabric& fabric, const FleetShape& shape,
                            std::uint64_t seed) {
  monitor::ArrivalProcessConfig ap;
  ap.jobs = shape.jobs;
  ap.arrival_rate = 20.0;
  ap.sizes = shape.sizes;
  ap.size_weights = shape.size_weights;
  ap.priorities = {0, 0, 0, 1};
  ap.iterations = 20;
  ap.comm_bytes = 8ull * 1024 * 1024;
  ap.recovery.enabled = true;
  ap.recovery.checkpoint_interval = 2;
  ap.recovery.max_restarts = 1;  // first host loss restarts, the next shrinks
  ap.recovery.detect_time = 0.05;
  ap.recovery.restart_time = 0.2;
  ap.recovery.backoff_base = 0.05;
  ap.seed = seed;

  FleetInputs in;
  in.jobs = monitor::generate_arrivals(ap);
  core::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  // Same size mix for every seed (the weights' exact multiset, in seeded
  // order), so seeds differ in timing and placement, not in total work.
  std::vector<int> sizes;
  for (std::size_t k = 0; k < shape.sizes.size(); ++k) {
    const auto n = static_cast<std::size_t>(shape.size_weights[k] * shape.jobs + 0.5);
    sizes.insert(sizes.end(), n, shape.sizes[k]);
  }
  sizes.resize(in.jobs.size(), shape.sizes.front());
  for (std::size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[rng.uniform_int(i + 1)]);
  }
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    in.jobs[i].job.hosts = sizes[i];
    std::vector<monitor::FaultSpec> local;
    if (i % static_cast<std::size_t>(shape.local_fault_every) == 0) {
      monitor::FaultSpec f;
      f.cause = monitor::RootCause::GpuHardware;
      f.manifestation = monitor::Manifestation::FailStop;
      f.target_host_rank = static_cast<int>(rng.uniform_int(
          static_cast<std::uint64_t>(in.jobs[i].job.hosts)));
      f.at_iteration = 2 + static_cast<int>(rng.uniform_int(15));
      local.push_back(f);
    }
    in.local_faults.push_back(std::move(local));
  }
  const double horizon = in.jobs.back().arrival;
  const auto hosts = fabric.topo().hosts();
  for (int k = 0; k < shape.host_deaths; ++k) {
    monitor::FleetFault f;
    f.at_time = rng.uniform(0.05, 1.0) * horizon;
    f.cause = monitor::RootCause::GpuHardware;
    f.target_host = static_cast<int>(rng.uniform_int(hosts.size()));
    in.faults.push_back(f);
  }
  for (int k = 0; k < shape.tor_deaths; ++k) {
    monitor::FleetFault f;
    f.at_time = rng.uniform(0.05, 1.0) * horizon;
    f.cause = monitor::RootCause::SwitchBug;
    const auto uplinks = fabric.topo().out_links(hosts[rng.uniform_int(hosts.size())]);
    f.target_link = uplinks[rng.uniform_int(uplinks.size())];
    f.switch_scope = true;
    f.heal_after = 2.0;
    in.faults.push_back(f);
  }
  return in;
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(FleetShape shape, std::uint64_t seed) : shape_(std::move(shape)), seed_(seed) {}

  bool setup_per_run() const override { return true; }

  void setup(LayerLog* log) override {
    // Engines unsubscribe from the analyzer as they die: fleet first.
    fleet_.reset();
    stream_.reset();
    metrics_.reset();
    fabric_.reset();
    fabric_ = build_fabric_at_scale(shape_.fabric, log);
    inputs_ =
        timed(log, "setup.inputs_s", [&] { return generate_inputs(*fabric_, shape_, seed_); });
    timed(log, "monitor.submit_s", [&] {
      monitor::FleetConfig fc;
      fc.placement = parallel::HostPolicy::RailAligned;
      fc.elastic.cordon_heal_time = 0.5;
      fc.seed = seed_;
      fleet_ = std::make_unique<monitor::FleetRuntime>(*fabric_, fc);
      for (std::size_t i = 0; i < inputs_.jobs.size(); ++i) {
        fleet_->submit(inputs_.jobs[i], inputs_.local_faults[i]);
      }
      for (const monitor::FleetFault& f : inputs_.faults) fleet_->inject(f);
      stream_ = std::make_unique<monitor::StreamAnalyzer>(fabric_->topo());
      fleet_->set_stream_analyzer(stream_.get());
    });
  }

  RunResult run(LayerLog* log) override {
    RunResult r;
    if (log != nullptr) {
      metrics_ = std::make_unique<obs::Metrics>();
      fleet_->set_metrics(metrics_.get());
    }
    const auto t0 = Clock::now();
    const monitor::FleetOutcome out = fleet_->run();
    r.window_s = seconds_since(t0);

    // Gate: every tenant completed all its iterations; faults mitigated.
    int mitigations = 0;
    std::uint64_t committed = 0;
    for (const monitor::FleetJobLedger& job : out.jobs) {
      const auto& spec = inputs_.jobs[static_cast<std::size_t>(job.job_id)].job;
      const auto want = static_cast<std::uint64_t>(spec.iterations);
      r.attempted += want;
      committed += static_cast<std::uint64_t>(job.merged.committed_iterations);
      for (const monitor::MitigationRecord& m : job.merged.mitigations) mitigations += m.succeeded;
      if (job.completed && static_cast<std::uint64_t>(job.merged.committed_iterations) == want) {
        r.items += want;
      } else {
        r.failed += want;
        r.violations.push_back("job " + std::to_string(job.job_id) + " committed " +
                               std::to_string(job.merged.committed_iterations) + "/" +
                               std::to_string(want) + (job.completed ? "" : ", not completed"));
      }
    }
    if (mitigations == 0) {
      r.violations.push_back("fault schedule drove no successful mitigation");
      r.failed = r.attempted;
      r.items = 0;
    }
    std::uint64_t touched = 0;
    for (const monitor::FleetFaultLedger& f : out.faults) touched += f.jobs_touched.size();
    r.fingerprint["sim_makespan_s"] = out.makespan;
    r.fingerprint["iterations_committed"] = static_cast<double>(committed);
    r.fingerprint["fleet_goodput"] = out.fleet_goodput;
    r.fingerprint["mitigations"] = mitigations;
    r.fingerprint["jobs_touched"] = static_cast<double>(touched);
    r.fingerprint["records_ingested"] = static_cast<double>(stream_->records_ingested());

    if (log != nullptr) {
      LayerLog& layers = *log;
      const double solve_s = log_solver_metrics(*metrics_, layers);
      auto counter = [&](const char* name) { return static_cast<double>(metrics_->counter(name)); };
      layers["monitor.fleet_run_s"].push_back(r.window_s);
      layers["monitor.fleet_other_s"].push_back(r.window_s - solve_s);
      layers["monitor.iterations_committed"].push_back(counter("runtime.iterations.committed"));
      layers["monitor.admissions"].push_back(counter("fleet.admissions"));
      layers["monitor.shrinks"].push_back(counter("fleet.shrinks"));
      layers["monitor.regrows"].push_back(counter("fleet.regrows"));
      layers["monitor.preemptions"].push_back(counter("fleet.preemptions"));
      layers["monitor.mitigations"].push_back(counter("runtime.mitigations"));
      layers["monitor.faults_touched"].push_back(counter("fleet.blast.jobs_touched"));
      layers["monitor.records_ingested"].push_back(
          static_cast<double>(stream_->records_ingested()));
      replay_ingest(out, *log);
      replay_diagnose(out, *log);
    }
    return r;
  }

  std::string input_bytes() override {
    setup(nullptr);
    std::string s;
    for (std::size_t i = 0; i < inputs_.jobs.size(); ++i) {
      const monitor::FleetJobSpec& j = inputs_.jobs[i];
      s += "job " + std::to_string(j.job.hosts) + ' ' + std::to_string(j.arrival) + ' ' +
           std::to_string(j.priority) + ' ' + std::to_string(j.seed);
      for (const monitor::FaultSpec& f : inputs_.local_faults[i]) {
        s += " local " + std::to_string(f.target_host_rank) + '@' + std::to_string(f.at_iteration);
      }
      s += '\n';
    }
    for (const monitor::FleetFault& f : inputs_.faults) {
      s += "fault " + std::to_string(f.at_time) + ' ' + std::to_string(f.target_host) + ' ' +
           std::to_string(f.target_link) + '\n';
    }
    return s;
  }

 private:
  core::Seconds expected_comm(int job_id) const {
    // JobEngine's forecast: one ring flow per NIC port at line rate.
    return core::transfer_time(inputs_.jobs[static_cast<std::size_t>(job_id)].job.comm_bytes,
                               core::gbps(200.0));
  }
  core::Seconds expected_compute(int job_id) const {
    return inputs_.jobs[static_cast<std::size_t>(job_id)].job.compute_time;
  }

  /// Store ingest: every job's captured telemetry, in time order, through
  /// a fresh store's public record() calls with a StreamAnalyzer
  /// subscribed at its seam.
  void replay_ingest(const monitor::FleetOutcome& out, LayerLog& log) {
    monitor::StreamAnalyzer stream(fabric_->topo());
    double ingest_s = 0.0;
    std::uint64_t records = 0;
    for (const monitor::FleetJobLedger& job : out.jobs) {
      const monitor::TelemetryStore* src = fleet_->job_telemetry(job.job_id);
      if (src == nullptr) continue;
      std::vector<monitor::QpMeta> metas;
      for (const auto& [qp, meta] : src->qp_metas()) metas.push_back(meta);
      std::sort(metas.begin(), metas.end(),
                [](const monitor::QpMeta& a, const monitor::QpMeta& b) { return a.qp < b.qp; });
      monitor::StreamAnalyzer::JobContext ctx;
      ctx.job_id = job.job_id;
      ctx.expected_compute = expected_compute(job.job_id);
      ctx.expected_comm = expected_comm(job.job_id);
      for (const monitor::QpMeta& m : metas) {
        const auto rank = static_cast<std::size_t>(m.src_host_rank);
        if (ctx.host_pods.size() <= rank) ctx.host_pods.resize(rank + 1, 0);
        ctx.host_pods[rank] = fabric_->topo().node(m.src_host).pod;
      }
      // (time, stream, index) merge of the store's seven record streams.
      struct Ref {
        core::Seconds t;
        int stream;
        std::size_t i;
      };
      std::vector<const monitor::SflowPathRecord*> sflow;
      for (const auto& [qp, rec] : src->sflow_paths()) sflow.push_back(&rec);
      std::sort(sflow.begin(), sflow.end(),
                [](const auto* a, const auto* b) { return a->qp < b->qp; });
      std::vector<Ref> order;
      auto add = [&](int stream, const auto& records) {
        for (std::size_t i = 0; i < records.size(); ++i) order.push_back({records[i].t, stream, i});
      };
      add(0, src->nccl_timeline());
      add(1, src->qp_rates());
      add(2, src->err_cqes());
      for (std::size_t i = 0; i < sflow.size(); ++i) order.push_back({sflow[i]->t, 3, i});
      add(4, src->int_probes());
      add(5, src->link_counters());
      add(6, src->syslog());
      std::stable_sort(order.begin(), order.end(),
                       [](const Ref& a, const Ref& b) { return a.t < b.t; });

      monitor::TelemetryStore store;
      stream.subscribe(store, std::move(ctx));
      const auto t0 = Clock::now();
      for (const monitor::QpMeta& m : metas) store.register_qp(m);
      for (const Ref& ref : order) {
        switch (ref.stream) {
          case 0: store.record(src->nccl_timeline()[ref.i]); break;
          case 1: store.record(src->qp_rates()[ref.i]); break;
          case 2: store.record(src->err_cqes()[ref.i]); break;
          case 3: store.record(*sflow[ref.i]); break;
          case 4: store.record(src->int_probes()[ref.i]); break;
          case 5: store.record(src->link_counters()[ref.i]); break;
          default: store.record(src->syslog()[ref.i]); break;
        }
      }
      ingest_s += seconds_since(t0);
      records += order.size();
      stream.unsubscribe(store);
    }
    log["monitor.ingest_s"].push_back(ingest_s);
    log["monitor.ingest_records"].push_back(static_cast<double>(records));
    log["monitor.ingest_rec_per_s"].push_back(
        ingest_s > 0 ? static_cast<double>(records) / ingest_s : 0.0);
  }

  /// Analyzer drill-down over the captured store of every job a fault
  /// touched or a mitigation served.
  void replay_diagnose(const monitor::FleetOutcome& out, LayerLog& log) {
    std::set<int> touched;
    for (const monitor::FleetFaultLedger& f : out.faults) {
      touched.insert(f.jobs_touched.begin(), f.jobs_touched.end());
    }
    for (const monitor::FleetJobLedger& job : out.jobs) {
      if (!job.merged.mitigations.empty()) touched.insert(job.job_id);
    }
    double diagnose_s = 0.0;
    int diagnoses = 0;
    for (int job_id : touched) {
      const monitor::TelemetryStore* store = fleet_->job_telemetry(job_id);
      if (store == nullptr) continue;
      monitor::HierarchicalAnalyzer analyzer(*store, fabric_->topo(), expected_compute(job_id),
                                             expected_comm(job_id));
      const auto t0 = Clock::now();
      (void)analyzer.diagnose();
      diagnose_s += seconds_since(t0);
      ++diagnoses;
    }
    log["monitor.diagnose_s"].push_back(diagnose_s);
    log["monitor.diagnoses"].push_back(diagnoses);
  }

  FleetShape shape_;
  std::uint64_t seed_;
  std::unique_ptr<topo::Fabric> fabric_;
  std::unique_ptr<obs::Metrics> metrics_;
  std::unique_ptr<monitor::StreamAnalyzer> stream_;
  std::unique_ptr<monitor::FleetRuntime> fleet_;
  FleetInputs inputs_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_faulted(std::uint64_t seed, Scale scale) {
  FleetShape shape;
  shape.fabric.rails = 2;
  shape.fabric.hosts_per_block = 16;
  if (scale == Scale::Full) {
    shape.fabric.blocks_per_pod = 16;
    shape.fabric.pods = 4;  // 1,024 hosts
    shape.jobs = 200;
    shape.sizes = {8, 16, 32, 64};
    shape.size_weights = {0.4, 0.3, 0.2, 0.1};
    shape.host_deaths = 8;
    shape.tor_deaths = 8;
  } else {
    shape.fabric.blocks_per_pod = 2;
    shape.fabric.pods = 2;  // 64 hosts
    shape.jobs = 16;
    shape.sizes = {4, 8, 16};
    shape.size_weights = {0.5, 0.3, 0.2};
    shape.local_fault_every = 4;
    shape.host_deaths = 2;
    shape.tor_deaths = 2;
  }
  return std::make_unique<FleetWorkload>(std::move(shape), seed);
}

}  // namespace e2ebench
