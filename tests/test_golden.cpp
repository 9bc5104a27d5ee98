// Golden end-to-end digests: committed FNV-1a digests of every simulated
// SessionResult field of small canonical fleets, one per fleet mode, and
// of their FleetMetrics roll-ups on both the exact and the streaming path,
// plus one of the BO suggestion sequence the optimizer makes on its own.
// Any change that moves a simulated trajectory or a roll-up, even by one
// ulp in one session, changes a digest and fails here. A change that
// means to move behaviour updates the constant explicitly and says so in
// CHANGES.md.
//
// The digests were captured with GCC 12 on x86-64 (RelWithDebInfo), and
// the AVX-512 fastmath clones and the baseline x86-64 code (as built under
// ThreadSanitizer, which disables the clones) both reproduce them. The
// batched GP predict is specified only to ulp-level agreement across
// clones and compilers, so another toolchain may print a different
// digest; the failure message shows the value it computed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/marketsvc/market.hpp"

namespace hbosim {
namespace {

/// FNV-1a over the bytes of every simulated SessionResult field (all but
/// wall_seconds, which is host time).
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001B3ull;
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void digest_session(Digest& d, const fleet::SessionResult& r) {
  d.add(std::uint64_t{r.session_id});
  d.add(r.device);
  d.add(r.scenario);
  d.add(r.seed);
  d.add(r.sim_seconds);
  d.add(std::uint64_t{r.periods});
  d.add(r.mean_quality);
  d.add(r.mean_latency_ratio);
  d.add(r.mean_reward);
  d.add(std::uint64_t{r.activations});
  d.add(std::uint64_t{r.warm_starts});
  d.add(std::uint64_t{r.shared_warm_starts});
  d.add(std::uint64_t{r.prior_activations});
  d.add(std::uint64_t{r.bandit_pulls});
  d.add(r.edge_requests);
  d.add(r.edge_retries);
  d.add(r.edge_rejected_attempts);
  d.add(r.edge_timeout_attempts);
  d.add(r.edge_fallbacks);
  d.add(r.edge_decim_fallbacks);
  d.add(r.edge_bo_fallbacks);
  d.add(r.edge_payload_bytes);
  d.add(r.edge_units);
  d.add(r.edge_service_s);
  d.add(r.edge_elapsed_s);
  d.add(r.market_session);
  d.add(r.market_denied);
  d.add(r.market_resolution);
  d.add(r.market_bandwidth_frac);
  d.add(r.market_price);
  d.add(r.offload_session);
  d.add(r.offload_completed);
  d.add(r.offload_remote);
  d.add(r.offload_fallbacks);
  d.add(r.offload_rate);
  d.add(r.mean_edge_share);
  d.add(r.radio_energy_j);
  d.add(r.offload_elapsed_s);
  d.add(r.energy_j);
  d.add(r.mean_power_w);
  d.add(r.max_die_temp_c);
  d.add(r.throttle_events);
  d.add(r.time_throttled_s);
  d.add(r.min_freq_scale);
  d.add(r.battery_soc);
  d.add(r.battery_drain_pct_per_hour);
  d.add(r.sched_traced);
  d.add(std::uint64_t{r.sched_jobs});
  d.add(r.sched_worst_p99_slowdown);
  d.add(r.sched_fairness_floor);
  d.add(std::uint64_t{r.sched_starved_jobs});
  d.add(r.sched_events);
  d.add(r.sched_dropped_events);
}

void digest_summary(Digest& d, const fleet::MetricSummary& m) {
  d.add(m.min);
  d.add(m.mean);
  d.add(m.p50);
  d.add(m.p90);
  d.add(m.p99);
  d.add(m.max);
}

/// FNV-1a over every simulated FleetMetrics field: everything but the
/// host-time figures (wall_seconds, sessions_per_sec) and the pool stats
/// (the one pooled fleet below pins what the pool did through its
/// sessions' warm starts).
void digest_metrics(Digest& d, const fleet::FleetMetrics& m) {
  d.add(std::uint64_t{m.sessions});
  d.add(m.streamed);
  d.add(m.total_sim_seconds);
  digest_summary(d, m.quality);
  digest_summary(d, m.latency_ratio);
  digest_summary(d, m.reward);
  d.add(std::uint64_t{m.total_activations});
  d.add(std::uint64_t{m.total_warm_starts});
  d.add(std::uint64_t{m.total_shared_warm_starts});
  d.add(m.warm_start_rate);

  const fleet::FleetMetrics::EdgeHealth& e = m.edge;
  d.add(e.enabled);
  d.add(e.requests);
  d.add(e.retries);
  d.add(e.rejected_attempts);
  d.add(e.timeout_attempts);
  d.add(e.fallbacks);
  d.add(e.decim_fallbacks);
  d.add(e.bo_fallbacks);
  d.add(e.rejection_rate);
  d.add(e.fallback_rate);
  d.add(e.queue_depth_p95);
  d.add(e.mean_wait_ms);

  const fleet::FleetMetrics::OffloadHealth& o = m.offload;
  d.add(o.enabled);
  d.add(o.completed_inferences);
  d.add(o.remote_inferences);
  d.add(o.fallbacks);
  d.add(o.offload_rate);
  digest_summary(d, o.edge_share);
  d.add(o.radio_energy_j);

  const fleet::FleetMetrics::PowerHealth& pw = m.power;
  d.add(pw.enabled);
  d.add(pw.total_energy_j);
  digest_summary(d, pw.mean_power_w);
  digest_summary(d, pw.max_die_temp_c);
  digest_summary(d, pw.drain_pct_per_hour);
  d.add(pw.throttle_events);
  d.add(pw.min_freq_scale);
  d.add(pw.throttled_session_fraction);

  const fleet::FleetMetrics::PolicyHealth& pol = m.policy;
  d.add(pol.enabled);
  d.add(pol.mode);
  d.add(std::uint64_t{pol.epochs});
  d.add(std::uint64_t{pol.prior_activations});
  d.add(std::uint64_t{pol.bandit_pulls});
  d.add(pol.prior_injection_rate);
  d.add(std::uint64_t{pol.store_keys});
  d.add(std::uint64_t{pol.store_observations});
  d.add(pol.priors_fitted);
  d.add(pol.bandit_updates);

  const fleet::FleetMetrics::MarketHealth& mk = m.market;
  d.add(mk.enabled);
  d.add(mk.policy);
  d.add(std::uint64_t{mk.ticks});
  d.add(std::uint64_t{mk.denied_sessions});
  d.add(mk.admission_rate);
  digest_summary(d, mk.resolution);
  d.add(mk.link_activity);
  d.add(mk.compute_utilization);
  d.add(mk.final_price);

  const fleet::FleetMetrics::SchedHealth& sc = m.sched;
  d.add(sc.enabled);
  d.add(std::uint64_t{sc.jobs});
  d.add(sc.worst_p99_slowdown);
  d.add(sc.fairness_floor);
  d.add(std::uint64_t{sc.starved_jobs});
  d.add(sc.events);
  d.add(sc.dropped_events);
  digest_summary(d, sc.p99_slowdown);
  d.add(sc.starved_session_fraction);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Prior-guided HBO: 16 sessions of 20 s on 2 threads with the solution
// pool off (so every session is a pure function of spec and seed), in
// epochs of 4 so sessions after the first epoch run with fitted priors.
TEST(GoldenDigest, PriorFleet) {
  fleet::FleetSpec spec;
  spec.sessions = 16;
  spec.threads = 2;
  spec.duration_s = 20.0;
  spec.use_shared_pool = false;
  spec.policy.mode = fleet::PolicyMode::Prior;
  spec.epoch_sessions = 4;

  const fleet::FleetResult res = fleet::FleetSimulator(spec).run();
  ASSERT_EQ(res.sessions.size(), spec.sessions);
  std::size_t prior_activations = 0;
  Digest d;
  for (const fleet::SessionResult& r : res.sessions) {
    prior_activations += r.prior_activations;
    digest_session(d, r);
  }
  // The digest only pins the prior path if priors were injected.
  EXPECT_GT(prior_activations, 0u);
  EXPECT_EQ(hex(d.value()), "0x2b17088e0bbf2cb3")
      << "prior-fleet trajectories moved; if intended, update the golden "
         "digest and record it in CHANGES.md";
}

/// The three digests of one canonical fleet: its per-session results, and
/// its FleetMetrics roll-up on the exact (retain_results) and the
/// streaming (P² sketch) path.
struct FleetDigests {
  std::string sessions;
  std::string exact_metrics;
  std::string streamed_metrics;
  fleet::FleetMetrics metrics;  ///< The exact roll-up, for sanity checks.

  void expect(const char* sessions_want, const char* exact_want,
              const char* streamed_want) const {
    const char* moved =
        "fleet results moved; if intended, update the golden digest and "
        "record it in CHANGES.md";
    EXPECT_EQ(sessions, sessions_want) << "sessions: " << moved;
    EXPECT_EQ(exact_metrics, exact_want) << "exact metrics: " << moved;
    EXPECT_EQ(streamed_metrics, streamed_want)
        << "streamed metrics: " << moved;
  }
};

FleetDigests digest_fleet(fleet::FleetSpec spec) {
  FleetDigests out;
  spec.retain_results = true;
  const fleet::FleetResult exact = fleet::FleetSimulator(spec).run();
  EXPECT_EQ(exact.sessions.size(), spec.sessions);
  Digest sessions;
  for (const fleet::SessionResult& r : exact.sessions)
    digest_session(sessions, r);
  out.sessions = hex(sessions.value());
  Digest exact_metrics;
  digest_metrics(exact_metrics, exact.metrics);
  out.exact_metrics = hex(exact_metrics.value());
  out.metrics = exact.metrics;

  spec.retain_results = false;
  const fleet::FleetResult streamed = fleet::FleetSimulator(spec).run();
  EXPECT_TRUE(streamed.sessions.empty());
  Digest streamed_metrics;
  digest_metrics(streamed_metrics, streamed.metrics);
  out.streamed_metrics = hex(streamed_metrics.value());
  return out;
}

/// 16 sessions of 20 s on 2 threads, pool off (so every session is a pure
/// function of spec and seed). The cases below each add one fleet layer.
fleet::FleetSpec golden_fleet() {
  fleet::FleetSpec spec;
  spec.sessions = 16;
  spec.threads = 2;
  spec.duration_s = 20.0;
  spec.use_shared_pool = false;
  return spec;
}

// Plain HBO fleet, no learner and no edge: the windowed Off path. Also the
// allocator reference for the per-worker session arena.
TEST(GoldenDigest, PlainFleet) {
  const FleetDigests got = digest_fleet(golden_fleet());
  EXPECT_GT(got.metrics.total_activations, 0u);
  got.expect("0xd0a83c501deea7d1", "0xe290e8847860b326",
             "0xf442af490fca7eb2");
}

// Power model plus 4-target offload against the congested edge preset,
// on a thermal-soak mix run long enough for the DVFS governor to throttle.
TEST(GoldenDigest, PowerOffloadFleet) {
  fleet::FleetSpec spec = golden_fleet();
  spec.duration_s = 40.0;
  spec.scenarios = {
      {scenario::ObjectSet::ThermalSoak, scenario::TaskSet::CF1, 1.0},
      {scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  spec.use_power_model = true;
  spec.power.ambient_c = 31.0;
  spec.power.initial_temp_c = 60.0;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.hbo.w_energy = 0.05;
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("congested");
  spec.offload.enabled = true;
  const FleetDigests got = digest_fleet(spec);
  // The digest only pins the power and offload paths if both engaged.
  EXPECT_GT(got.metrics.power.throttle_events, 0u);
  EXPECT_GT(got.metrics.offload.remote_inferences, 0u);
  got.expect("0xcb197e85ca1687f2", "0xa77201a4be4c2f70",
             "0xb09c06c588a61cae");
}

// Proportional-fair market on the wifi edge, four tenants per broker tick.
TEST(GoldenDigest, MarketFleet) {
  fleet::FleetSpec spec = golden_fleet();
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("wifi");
  spec.market.enabled = true;
  spec.market.allocator.policy = marketsvc::MarketPolicy::ProportionalFair;
  spec.epoch_sessions = 4;
  const FleetDigests got = digest_fleet(spec);
  EXPECT_EQ(got.metrics.market.ticks, 4u);
  got.expect("0xe56b8839e6bdcb81", "0xc93bf3c5d1de61cf",
             "0x8f7d60677f1599ca");
}

// Static-trim baseline (bench_market's comparison cell): every edge
// client pinned at resolution 0.6 on the wifi edge, no allocator.
TEST(GoldenDigest, StaticTrimFleet) {
  fleet::FleetSpec spec = golden_fleet();
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("wifi");
  spec.edge_static_resolution = 0.6;
  const FleetDigests got = digest_fleet(spec);
  EXPECT_GT(got.metrics.edge.requests, 0u);
  got.expect("0xc1bebd95af0f2674", "0x2dee49d13a957978",
             "0xd3971bfe5ace8cf3");
}

// LinUCB agent in place of HBO, learning in epochs of four sessions.
TEST(GoldenDigest, BanditFleet) {
  fleet::FleetSpec spec = golden_fleet();
  spec.policy.mode = fleet::PolicyMode::Bandit;
  spec.epoch_sessions = 4;
  const FleetDigests got = digest_fleet(spec);
  EXPECT_EQ(got.metrics.policy.epochs, 4u);
  EXPECT_GT(got.metrics.policy.bandit_updates, 0u);
  got.expect("0xb1d44a88f958c8d9", "0x766431535165609b",
             "0xb589ffdcd5f0c40d");
}

// Shared solution pool behind the wifi edge, one device so every session
// keys the same environments. One-session epochs on one thread: every
// session sees all earlier sessions' publishes, as the pool did before
// it was frozen per epoch, so these digests predate the epoch pool. Every
// local lookup miss reaches the pool through a RemoteBo exchange on the
// session's edge mirror, so this pins that exchange's timing and
// accounting.
TEST(GoldenDigest, SharedPoolEdgeFleet) {
  fleet::FleetSpec spec = golden_fleet();
  spec.threads = 1;
  spec.epoch_sessions = 1;
  spec.devices = {{"Pixel 7", 1.0}};
  spec.use_shared_pool = true;
  spec.session.warm_start_tolerance = 10.0;  // accept pooled configs
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("wifi");
  const FleetDigests got = digest_fleet(spec);
  EXPECT_GT(got.metrics.total_shared_warm_starts, 0u);
  EXPECT_GT(got.metrics.edge.requests, 0u);
  got.expect("0x85b896671a4eac67", "0xb1c41c882568a2a6",
             "0x7ec47d25a235fea3");
}

// Scheduler forensics on: per-session SchedTrace, offline analysis, and
// the SchedHealth roll-up.
TEST(GoldenDigest, SchedFleet) {
  fleet::FleetSpec spec = golden_fleet();
  spec.sched.enabled = true;
  const FleetDigests got = digest_fleet(spec);
  EXPECT_GT(got.metrics.sched.jobs, 0u);
  EXPECT_GT(got.metrics.sched.events, 0u);
  got.expect("0x083a8cb47f97fcc6", "0x53783794417dc505",
             "0xcfd7ebf327d7e4bf");
}

// The optimizer alone: the bits of the 30 suggestions a default-config
// BayesianOptimizer makes on the HBO domain at seed 4242, each told the
// squared distance to a fixed target.
TEST(GoldenDigest, BoSuggestSequence) {
  const std::vector<double> target = {0.6, 0.1, 0.3, 0.7};
  bo::BayesianOptimizer opt(bo::SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(4242);
  Digest d;
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> z = opt.suggest(rng);
    for (double v : z) d.add(v);
    const double dist = euclidean_distance(std::span<const double>(z),
                                           std::span<const double>(target));
    opt.tell(z, dist * dist);
  }
  EXPECT_EQ(hex(d.value()), "0x15e92db6b9a69efa")
      << "BO suggestions moved; if intended, update the golden digest and "
         "record it in CHANGES.md";
}

}  // namespace
}  // namespace hbosim
