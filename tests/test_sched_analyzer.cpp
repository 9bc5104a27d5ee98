// Tests for hbosim::des scheduler forensics: the SchedTrace lifecycle
// event stream, the SchedAnalyzer's exact replay (closed-form wait /
// slowdown / Jain / starvation answers on hand-constructed schedules),
// and the two observational guarantees — tracing changes no simulated
// result, and the fleet SchedHealth roll-up is thread-count invariant.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "hbosim/common/error.hpp"
#include "hbosim/des/ps_resource.hpp"
#include "hbosim/des/sched_analyzer.hpp"
#include "hbosim/des/sched_trace.hpp"
#include "hbosim/des/simulator.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"

namespace hbosim {
namespace {

// ---------------------------------------------------------------------------
// SchedTrace: ring mechanics.

TEST(SchedTrace, RecordsAndRoundsCapacityToPowerOfTwo) {
  des::SchedTraceConfig cfg;
  cfg.capacity_per_resource = 3;  // rounds up to 4
  des::SchedTrace trace(cfg);
  const std::uint16_t rid = trace.register_resource("cpu");
  EXPECT_EQ(trace.resources(), 1u);
  EXPECT_EQ(trace.resource_name(rid), "cpu");

  for (int i = 0; i < 6; ++i) {
    des::SchedEvent ev;
    ev.time = static_cast<double>(i);
    ev.resource = rid;
    ev.job = static_cast<JobId>(i + 1);
    trace.record(ev);
  }
  EXPECT_EQ(trace.recorded(rid), 6u);
  EXPECT_EQ(trace.dropped(rid), 2u);  // ring holds 4, oldest 2 gone
  const std::vector<des::SchedEvent> events = trace.events(rid);
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the retained records.
  EXPECT_EQ(events.front().job, 3u);
  EXPECT_EQ(events.back().job, 6u);
  EXPECT_EQ(trace.total_recorded(), 6u);
  EXPECT_EQ(trace.total_dropped(), 2u);
}

// ---------------------------------------------------------------------------
// SchedAnalyzer: closed-form schedules.

TEST(SchedAnalyzer, SoloJobHasUnitSlowdownAndZeroWait) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.25, [] {}, "solo");
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.jobs().size(), 1u);
  const des::SchedJobRecord& j = an.jobs().front();
  EXPECT_TRUE(j.completed);
  EXPECT_DOUBLE_EQ(j.ideal_s, 0.25);
  EXPECT_DOUBLE_EQ(j.turnaround_s, 0.25);
  EXPECT_DOUBLE_EQ(j.wait_s, 0.0);
  EXPECT_DOUBLE_EQ(j.slowdown, 1.0);
  EXPECT_EQ(an.health().jobs, 1u);
  EXPECT_DOUBLE_EQ(an.health().worst_p99_slowdown, 1.0);
  EXPECT_TRUE(an.starved().empty());
}

// Two equal jobs sharing one unit: each runs at rate 1/2, so turnaround
// is exactly twice the solo service time — slowdown 2, wait = ideal.
TEST(SchedAnalyzer, TwoEqualJobsHaveSlowdownExactlyTwo) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.05, [] {}, "pair");
  cpu.submit(0.05, [] {}, "pair");
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.jobs().size(), 2u);
  for (const des::SchedJobRecord& j : an.jobs()) {
    EXPECT_TRUE(j.completed);
    EXPECT_DOUBLE_EQ(j.ideal_s, 0.05);
    EXPECT_DOUBLE_EQ(j.turnaround_s, 0.1);
    EXPECT_DOUBLE_EQ(j.slowdown, 2.0);
    EXPECT_NEAR(j.wait_s, 0.05, 1e-15);
  }
  ASSERT_EQ(an.resources().size(), 1u);
  EXPECT_DOUBLE_EQ(an.resources()[0].slowdown.p99, 2.0);
  EXPECT_DOUBLE_EQ(an.health().worst_p99_slowdown, 2.0);
}

// A mid-service rescale (the DVFS governor halving the clock) must be
// replayed exactly: demand 0.1 runs at rate 1 for 0.05 s, then at rate
// 0.5 for the remaining 0.05 of virtual work -> completes at 0.15,
// slowdown 1.5 against the rate-1 ideal snapshotted at submit.
TEST(SchedAnalyzer, RescaleMidServiceIsReplayedExactly) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.1, [] {}, "dvfs");
  sim.schedule_at(0.05, [&] { cpu.set_max_rate_per_job(0.5); });
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.jobs().size(), 1u);
  const des::SchedJobRecord& j = an.jobs().front();
  EXPECT_NEAR(j.turnaround_s, 0.15, 1e-12);
  EXPECT_DOUBLE_EQ(j.ideal_s, 0.1);
  EXPECT_NEAR(j.slowdown, 1.5, 1e-12);

  // The stream carries the rescale with the post-event share.
  bool saw_rescale = false;
  for (const des::SchedEvent& ev : trace.events(0)) {
    if (ev.kind == des::SchedEventKind::Rescale) {
      saw_rescale = true;
      EXPECT_DOUBLE_EQ(ev.share, 0.5);
    }
  }
  EXPECT_TRUE(saw_rescale);
}

// Jain fairness closed form: classes A (two jobs) and B (one job), all
// backlogged with equal per-job shares, so in every window A attains 2/3
// of the service and B 1/3. J = (x_A+x_B)^2 / (2(x_A^2+x_B^2)) = 0.9.
TEST(SchedAnalyzer, JainIndexMatchesTwoVersusOneClosedForm) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(10.0, [] {}, "A");
  cpu.submit(10.0, [] {}, "A");
  cpu.submit(10.0, [] {}, "B");
  sim.run();

  des::SchedAnalyzerConfig cfg;
  cfg.fairness_window_s = 1.0;
  des::SchedAnalyzer an(trace, cfg);
  ASSERT_FALSE(an.fairness_windows().empty());
  for (const des::FairnessWindow& w : an.fairness_windows()) {
    EXPECT_EQ(w.classes, 2u);
    EXPECT_NEAR(w.jain, 0.9, 1e-12) << "window [" << w.begin_s << ", "
                                    << w.end_s << ")";
  }
  EXPECT_NEAR(an.health().fairness_floor, 0.9, 1e-12);
}

TEST(SchedAnalyzer, EqualClassesArePerfectlyFair) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(5.0, [] {}, "A");
  cpu.submit(5.0, [] {}, "B");
  sim.run();

  des::SchedAnalyzerConfig cfg;
  cfg.fairness_window_s = 1.0;
  des::SchedAnalyzer an(trace, cfg);
  ASSERT_FALSE(an.fairness_windows().empty());
  for (const des::FairnessWindow& w : an.fairness_windows())
    EXPECT_NEAR(w.jain, 1.0, 1e-12);
  EXPECT_NEAR(an.health().fairness_floor, 1.0, 1e-12);
}

// Starvation closed form: five uncontended "fast" jobs establish a ~0
// class median wait (threshold falls back to k x the 1 ms floor = 4 ms).
// A sixth fast job lands together with nine long "hog" jobs and waits
// 90 ms -- flagged, with exactly the nine hogs as contenders. The hogs
// themselves all wait the same amount, so none exceeds 4x their own
// median and none is flagged.
TEST(SchedAnalyzer, StarvationDetectorFlagsKnownVictimWithContenders) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(0.1 * i, [&] { cpu.submit(0.01, [] {}, "fast"); });
  }
  sim.schedule_at(1.0, [&] {
    for (int i = 0; i < 9; ++i) cpu.submit(1.0, [] {}, "hog");
    cpu.submit(0.01, [] {}, "fast");  // the victim: share 1/10
  });
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.starved().size(), 1u);
  const des::StarvedJob& sj = an.starved().front();
  EXPECT_STREQ(sj.job.cls, "fast");
  EXPECT_NEAR(sj.job.wait_s, 0.09, 1e-9);
  // k=4 x max(median ~ 0, floor 1e-3).
  EXPECT_DOUBLE_EQ(sj.threshold_s, 4e-3);
  EXPECT_NEAR(sj.flagged_at_s, 1.0 + 0.01 + 4e-3, 1e-9);
  ASSERT_EQ(sj.contenders.size(), 9u);
  for (const auto& [id, cls] : sj.contenders) EXPECT_EQ(cls, "hog");
  EXPECT_EQ(an.health().starved_jobs, 1u);
}

TEST(SchedAnalyzer, CancelledJobsAreExcludedFromLatencyStats) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  const JobId doomed = cpu.submit(5.0, [] {}, "doomed");
  cpu.submit(0.1, [] {}, "ok");
  sim.schedule_at(0.3, [&] { EXPECT_TRUE(cpu.cancel(doomed)); });
  sim.run();

  des::SchedAnalyzer an(trace);
  ASSERT_EQ(an.jobs().size(), 2u);  // Gantt still shows the cancel...
  EXPECT_EQ(an.health().jobs, 1u);  // ...stats count completed jobs only.
  std::size_t completed = 0;
  for (const des::SchedJobRecord& j : an.jobs()) {
    if (j.completed) ++completed;
  }
  EXPECT_EQ(completed, 1u);
}

// When the ring wraps, jobs whose Submit record fell off are simply not
// reconstructable; the analyzer reports the drop count instead of
// silently under-counting, and still reconstructs the retained suffix.
TEST(SchedAnalyzer, RingWrapKeepsSuffixAndReportsDrops) {
  des::SchedTraceConfig cfg;
  cfg.capacity_per_resource = 4;
  des::Simulator sim;
  des::SchedTrace trace(cfg);
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  // Eight strictly sequential jobs: 16 records, ring keeps the last 4
  // (submit+complete of the last two jobs).
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(1.0 * i, [&] { cpu.submit(0.5, [] {}, "seq"); });
  }
  sim.run();

  des::SchedAnalyzer an(trace);
  EXPECT_EQ(an.health().events, 16u);
  EXPECT_EQ(an.health().dropped_events, 12u);
  EXPECT_EQ(an.health().jobs, 2u);
}

TEST(SchedAnalyzer, GanttCsvHasHeaderAndOneRowPerJob) {
  des::Simulator sim;
  des::SchedTrace trace;
  sim.set_sched_trace(&trace);
  des::PsResource cpu(sim, "cpu", 1.0, 1.0);
  cpu.submit(0.05, [] {}, "a");
  cpu.submit(0.05, [] {});  // untagged
  sim.run();

  des::SchedAnalyzer an(trace);
  std::ostringstream os;
  an.write_gantt_csv(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 jobs
  EXPECT_EQ(lines[0],
            "resource,job,class,submit_s,end_s,demand_s,cores,ideal_s,"
            "wait_s,slowdown,completed");
  EXPECT_NE(lines[1].find("cpu,"), std::string::npos);
  EXPECT_NE(lines[2].find("(untagged)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The observational guarantee at the DES level: attaching a trace changes
// nothing the simulation computes — completion times and work counters
// are bit-identical with tracing on and off.

TEST(SchedTrace, AttachingATraceIsObservationallyInvisible) {
  auto run = [](des::SchedTrace* trace) {
    des::Simulator sim;
    if (trace != nullptr) sim.set_sched_trace(trace);
    des::PsResource cpu(sim, "cpu", 4.0, 1.0);
    std::vector<double> completion_times;
    for (int i = 0; i < 12; ++i) {
      sim.schedule_at(0.01 * i, [&, i] {
        cpu.submit(0.02 + 0.003 * i, 1.0 + (i % 3),
                   [&] { completion_times.push_back(sim.now()); }, "mix");
      });
    }
    sim.schedule_at(0.05, [&] { cpu.set_capacity(2.0); });
    sim.schedule_at(0.09, [&] { cpu.set_background_utilization(0.25); });
    sim.run();
    completion_times.push_back(cpu.work_done());
    completion_times.push_back(sim.now());
    return completion_times;
  };

  des::SchedTrace trace;
  const std::vector<double> untraced = run(nullptr);
  const std::vector<double> traced = run(&trace);
  ASSERT_EQ(untraced.size(), traced.size());
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_EQ(untraced[i], traced[i]) << "index " << i;  // bitwise
  }
  EXPECT_GT(trace.total_recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Fleet integration.

/// Same truncated config the other fleet tests use, small enough for CI.
fleet::FleetSpec fast_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = threads;
  spec.duration_s = 14.0;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 2;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  spec.scenarios = {{scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  return spec;
}

TEST(FleetSched, ValidateRejectsNonsenseKnobs) {
  fleet::FleetSpec spec = fast_fleet(1, 1);
  spec.sched.enabled = true;
  spec.sched.capacity_per_resource = 0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fast_fleet(1, 1);
  spec.sched.enabled = true;
  spec.sched_analysis.starvation_k = 0.0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fast_fleet(1, 1);
  spec.sched.enabled = true;
  spec.sched_analysis.fairness_window_s = 0.0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);
}

// The bitwise-parity acceptance criterion: enabling sched tracing changes
// no simulated result — every non-sched SessionResult field is identical
// (not merely close) to the untraced run's.
TEST(FleetSched, TracingChangesNoSessionResult) {
  fleet::FleetResult off = fleet::FleetSimulator(fast_fleet(6, 1)).run();
  fleet::FleetSpec traced_spec = fast_fleet(6, 1);
  traced_spec.sched.enabled = true;
  fleet::FleetResult on = fleet::FleetSimulator(traced_spec).run();

  ASSERT_EQ(off.sessions.size(), on.sessions.size());
  for (std::size_t i = 0; i < off.sessions.size(); ++i) {
    const fleet::SessionResult& a = off.sessions[i];
    const fleet::SessionResult& b = on.sessions[i];
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    EXPECT_EQ(a.periods, b.periods);
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.energy_j, b.energy_j);
    // The traced run actually traced.
    EXPECT_FALSE(a.sched_traced);
    EXPECT_TRUE(b.sched_traced);
    EXPECT_GT(b.sched_events, 0u);
    EXPECT_GT(b.sched_jobs, 0u);
  }
  EXPECT_FALSE(off.metrics.sched.enabled);
  EXPECT_TRUE(on.metrics.sched.enabled);
  EXPECT_GT(on.metrics.sched.jobs, 0u);
}

// The roll-up acceptance criterion: SchedHealth is identical on 1 and 4
// fleet threads (order-independent reductions + session-id-order feed).
TEST(FleetSched, SchedHealthIsThreadCountInvariant) {
  auto sched_fleet = [](std::size_t threads) {
    fleet::FleetSpec spec = fast_fleet(16, threads);
    spec.sched.enabled = true;
    return spec;
  };
  fleet::FleetResult serial = fleet::FleetSimulator(sched_fleet(1)).run();
  fleet::FleetResult threaded = fleet::FleetSimulator(sched_fleet(4)).run();

  ASSERT_EQ(serial.sessions.size(), threaded.sessions.size());
  for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.sched_jobs, b.sched_jobs) << "session " << i;
    EXPECT_EQ(a.sched_events, b.sched_events) << "session " << i;
    EXPECT_EQ(a.sched_worst_p99_slowdown, b.sched_worst_p99_slowdown)
        << "session " << i;
    EXPECT_EQ(a.sched_fairness_floor, b.sched_fairness_floor)
        << "session " << i;
    EXPECT_EQ(a.sched_starved_jobs, b.sched_starved_jobs) << "session " << i;
  }
  const fleet::FleetMetrics::SchedHealth& sa = serial.metrics.sched;
  const fleet::FleetMetrics::SchedHealth& sb = threaded.metrics.sched;
  EXPECT_EQ(sa.jobs, sb.jobs);
  EXPECT_EQ(sa.events, sb.events);
  EXPECT_EQ(sa.dropped_events, sb.dropped_events);
  EXPECT_EQ(sa.worst_p99_slowdown, sb.worst_p99_slowdown);
  EXPECT_EQ(sa.fairness_floor, sb.fairness_floor);
  EXPECT_EQ(sa.starved_jobs, sb.starved_jobs);
  EXPECT_EQ(sa.p99_slowdown.p50, sb.p99_slowdown.p50);
  EXPECT_EQ(sa.p99_slowdown.max, sb.p99_slowdown.max);
  EXPECT_EQ(sa.starved_session_fraction, sb.starved_session_fraction);
}

// The deep-dive path behind `fleet_demo --sched`: re-running one session
// with a caller-owned trace reproduces the fleet run's numbers exactly,
// and analyzing that trace reproduces the session's SchedHealth fields.
TEST(FleetSched, RunSessionTracedReproducesTheFleetTrajectory) {
  fleet::FleetSpec spec = fast_fleet(4, 2);
  spec.sched.enabled = true;
  fleet::FleetSimulator sim(spec);
  fleet::FleetResult result = sim.run();
  ASSERT_EQ(result.sessions.size(), 4u);

  const fleet::SessionResult& fleet_run = result.sessions[2];
  des::SchedTrace trace(spec.sched);
  const fleet::SessionResult redo = sim.run_session_traced(
      sim.session_spec(2), trace);

  EXPECT_EQ(redo.mean_quality, fleet_run.mean_quality);
  EXPECT_EQ(redo.mean_reward, fleet_run.mean_reward);
  EXPECT_EQ(redo.activations, fleet_run.activations);
  EXPECT_EQ(redo.sched_jobs, fleet_run.sched_jobs);
  EXPECT_EQ(redo.sched_events, fleet_run.sched_events);
  EXPECT_EQ(redo.sched_worst_p99_slowdown, fleet_run.sched_worst_p99_slowdown);
  EXPECT_EQ(redo.sched_fairness_floor, fleet_run.sched_fairness_floor);
  EXPECT_EQ(redo.sched_starved_jobs, fleet_run.sched_starved_jobs);

  des::SchedAnalyzer an(trace, spec.sched_analysis);
  EXPECT_EQ(an.health().jobs, fleet_run.sched_jobs);
  EXPECT_EQ(an.health().events, fleet_run.sched_events);
  EXPECT_EQ(an.health().worst_p99_slowdown,
            fleet_run.sched_worst_p99_slowdown);
  EXPECT_EQ(an.health().fairness_floor, fleet_run.sched_fairness_floor);
  EXPECT_EQ(an.health().starved_jobs, fleet_run.sched_starved_jobs);
}

// A learner-driven session ran against its epoch's frozen priors, bandit
// model or market allocation; a lone re-run would silently diverge, so
// the deep-dive refuses every such fleet up front.
TEST(FleetSched, RunSessionTracedRejectsFleetsWithALearner) {
  fleet::FleetSpec prior = fast_fleet(4, 1);
  prior.policy.mode = fleet::PolicyMode::Prior;
  fleet::FleetSpec bandit = fast_fleet(4, 1);
  bandit.policy.mode = fleet::PolicyMode::Bandit;
  fleet::FleetSpec market = fast_fleet(4, 1);
  market.use_edge_service = true;
  market.edge = edgesvc::edge_service_preset("wifi");
  market.market.enabled = true;
  for (const fleet::FleetSpec& spec : {prior, bandit, market}) {
    fleet::FleetSimulator sim(spec);
    des::SchedTrace trace(spec.sched);
    EXPECT_THROW(sim.run_session_traced(sim.session_spec(0), trace), Error);
  }
}

// A pooled session fetched from its epoch's frozen pool snapshot, which a
// lone re-run does not have (and must not publish into): the deep-dive
// refuses pool fleets too, before and after a run.
TEST(FleetSched, RunSessionTracedRejectsPoolFleets) {
  fleet::FleetSpec spec = fast_fleet(4, 1);
  spec.use_shared_pool = true;
  fleet::FleetSimulator sim(spec);
  des::SchedTrace trace(spec.sched);
  EXPECT_THROW(sim.run_session_traced(sim.session_spec(0), trace), Error);
  sim.run();
  EXPECT_THROW(sim.run_session_traced(sim.session_spec(0), trace), Error);
}

// The deep-dive re-run is diagnostic only: it must not count its edge
// traffic into the broker a second time.
TEST(FleetSched, RunSessionTracedLeavesBrokerStatsUntouched) {
  fleet::FleetSpec spec = fast_fleet(4, 2);
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("wifi");
  fleet::FleetSimulator sim(spec);
  const fleet::FleetResult result = sim.run();
  const edgesvc::EdgeFleetStats before = sim.edge_broker()->stats();
  ASSERT_EQ(before.clients_absorbed, 4u);
  ASSERT_GT(before.client.requests, 0u);

  des::SchedTrace trace(spec.sched);
  const fleet::SessionResult redo =
      sim.run_session_traced(sim.session_spec(1), trace);
  EXPECT_EQ(redo.edge_requests, result.sessions[1].edge_requests);
  EXPECT_EQ(redo.mean_reward, result.sessions[1].mean_reward);

  const edgesvc::EdgeFleetStats after = sim.edge_broker()->stats();
  EXPECT_EQ(after.clients_absorbed, before.clients_absorbed);
  EXPECT_EQ(after.client.requests, before.client.requests);
  EXPECT_EQ(after.client.total_elapsed_s, before.client.total_elapsed_s);
  EXPECT_EQ(after.server.arrivals, before.server.arrivals);
}

// `fleet_demo --sched` re-runs its worst session, which a learner fleet
// cannot reproduce: the demo rejects the combination before running.
TEST(FleetSched, FleetDemoRejectsSchedWithALearner) {
  for (const char* flags : {"--sched --policy prior", "--sched --policy bandit",
                            "--market --sched"}) {
    const std::string cmd =
        std::string(HBOSIM_FLEET_DEMO) + " " + flags + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << flags;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
    EXPECT_NE(output.find("--sched"), std::string::npos) << output;
  }
}

}  // namespace
}  // namespace hbosim
