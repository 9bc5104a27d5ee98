// Tests for hbosim::fleet: deterministic session stamping, the shared
// cross-session solution pool, and the fleet determinism guarantee (same
// per-session aggregates regardless of thread count).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>

#include "hbosim/common/error.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"

namespace hbosim {
namespace {

/// A fleet config small and fast enough for unit tests: the light object
/// set / taskset and a truncated activation loop.
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

TEST(FleetSpec, ValidateRejectsNonsense) {
  fleet::FleetSpec spec;
  spec.sessions = 0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.duration_s = 0.0;
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.devices = {{"No Such Phone", 1.0}};
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);

  spec = fleet::FleetSpec{};
  spec.devices = {{"Pixel 7", -1.0}};
  EXPECT_THROW(fleet::FleetSimulator{spec}, Error);
}

// The static-trim baseline (bench_market) pins every edge client's
// resolution; validate() rejects each way of misusing it.
TEST(FleetSpec, StaticResolutionValidation) {
  auto rejection = [](const fleet::FleetSpec& spec) -> std::string {
    try {
      spec.validate();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  fleet::FleetSpec spec;
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("wifi");
  spec.edge_static_resolution = 0.6;
  EXPECT_EQ(rejection(spec), "");

  for (double bad : {0.0, -0.5, 1.5, std::nan("")}) {
    spec.edge_static_resolution = bad;
    EXPECT_NE(rejection(spec).find("must be in (0, 1]"), std::string::npos)
        << bad;
  }

  spec.edge_static_resolution = 0.6;
  spec.use_edge_service = false;
  EXPECT_NE(rejection(spec).find("needs use_edge_service"), std::string::npos);

  spec.use_edge_service = true;
  spec.market.enabled = true;
  spec.use_shared_pool = false;
  EXPECT_NE(rejection(spec).find("not both"), std::string::npos);
}

TEST(FleetSimulator, SessionSpecsAreDeterministicAndSeededByOffset) {
  fleet::FleetSpec spec;  // default mixes: 2 devices x 4 scenarios
  spec.sessions = 64;
  spec.base_seed = 42;
  fleet::FleetSimulator a(spec), b(spec);
  std::map<std::string, int> devices;
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    const fleet::SessionSpec sa = a.session_spec(i);
    const fleet::SessionSpec sb = b.session_spec(i);
    EXPECT_EQ(sa.device, sb.device);
    EXPECT_EQ(sa.scenario_name(), sb.scenario_name());
    EXPECT_EQ(sa.seed, 42u + i);
    ++devices[sa.device];
  }
  // Both equally-weighted devices actually appear in a 64-session fleet.
  EXPECT_EQ(devices.size(), 2u);
  EXPECT_THROW(a.session_spec(spec.sessions), Error);
}

TEST(FleetSimulator, ZeroWeightEntriesAreNeverPicked) {
  fleet::FleetSpec spec = fast_fleet(32, 1);
  spec.devices = {{"Pixel 7", 1.0}, {"Galaxy S22", 0.0}};
  fleet::FleetSimulator fleet(spec);
  for (std::size_t i = 0; i < spec.sessions; ++i)
    EXPECT_EQ(fleet.session_spec(i).device, "Pixel 7");
}

/// Drive the pool one operation at a time: each call is a one-operation
/// session against a fresh snapshot, replayed at once — the live-pool
/// semantics a fleet with one-session epochs runs under.
std::optional<core::StoredSolution> fetch(fleet::SharedSolutionPool& pool,
                                          const fleet::PoolKey& key) {
  std::vector<fleet::PoolOp> traffic;
  const auto hit =
      fleet::pool_hooks(pool.snapshot(), key, &traffic).fetch(key.env);
  pool.replay(traffic);
  return hit;
}

void publish(fleet::SharedSolutionPool& pool, const fleet::PoolKey& key,
             const core::StoredSolution& solution) {
  std::vector<fleet::PoolOp> traffic;
  fleet::pool_hooks(pool.snapshot(), key, &traffic).publish(key.env, solution);
  pool.replay(traffic);
}

TEST(SharedSolutionPool, FetchPublishCountersAndCollisionPolicy) {
  fleet::SharedSolutionPool pool;
  fleet::PoolKey key{"Pixel 7", "SC2/CF2", {12, 4, 99}};

  EXPECT_FALSE(fetch(pool, key).has_value());
  publish(pool, key, {{0.5, 0.5, 0.0, 0.8}, -1.0});
  const auto hit = fetch(pool, key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->cost, -1.0);

  // Collision: the worse (higher-cost) solution is ignored, the better
  // one replaces.
  publish(pool, key, {{1.0, 0.0, 0.0, 1.0}, -0.5});
  EXPECT_DOUBLE_EQ(fetch(pool, key)->cost, -1.0);
  publish(pool, key, {{1.0, 0.0, 0.0, 1.0}, -2.0});
  EXPECT_DOUBLE_EQ(fetch(pool, key)->cost, -2.0);

  const fleet::SharedSolutionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 3u);
  EXPECT_NEAR(stats.hit_rate(), 0.75, 1e-12);

  // Distinct devices / scenarios / environments do not alias.
  EXPECT_FALSE(fetch(pool, {"Galaxy S22", "SC2/CF2", {12, 4, 99}}).has_value());
  EXPECT_FALSE(fetch(pool, {"Pixel 7", "SC1/CF2", {12, 4, 99}}).has_value());
  EXPECT_FALSE(fetch(pool, {"Pixel 7", "SC2/CF2", {13, 4, 99}}).has_value());
}

TEST(SharedSolutionPool, EvictsLeastRecentlyUsedAtCapacity) {
  fleet::SharedSolutionPoolConfig cfg;
  cfg.capacity = 2;
  fleet::SharedSolutionPool pool(cfg);
  fleet::PoolKey a{"d", "s", {1, 0, 0}};
  fleet::PoolKey b{"d", "s", {2, 0, 0}};
  fleet::PoolKey c{"d", "s", {3, 0, 0}};
  publish(pool, a, {{}, -1.0});
  publish(pool, b, {{}, -1.0});
  EXPECT_TRUE(fetch(pool, a).has_value());  // refresh a; b is now LRU
  publish(pool, c, {{}, -1.0});             // evicts b
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_TRUE(fetch(pool, a).has_value());
  EXPECT_FALSE(fetch(pool, b).has_value());
  EXPECT_TRUE(fetch(pool, c).has_value());
}

// A scripted interleaving of publishes and fetches across more keys than
// the pool holds: fetch-refreshes must steer eviction order exactly, and
// the lower-cost-wins collision policy must hold mid-stream.
TEST(SharedSolutionPool, InterleavedFetchPublishEvictionOrderIsDeterministic) {
  fleet::SharedSolutionPoolConfig cfg;
  cfg.capacity = 3;
  fleet::SharedSolutionPool pool(cfg);
  auto key = [](std::uint64_t i) {
    return fleet::PoolKey{"d", "s", {i, 0, 0}};
  };

  publish(pool, key(1), {{}, -1.0});
  publish(pool, key(2), {{}, -1.0});
  publish(pool, key(3), {{}, -1.0});
  // Touch 1 and 2; 3 becomes LRU despite being the newest insert.
  EXPECT_TRUE(fetch(pool, key(1)).has_value());
  EXPECT_TRUE(fetch(pool, key(2)).has_value());
  publish(pool, key(4), {{}, -1.0});  // evicts 3
  EXPECT_FALSE(fetch(pool, key(3)).has_value());

  // A losing collision (higher cost) keeps the better entry but touches
  // the key's recency (the collision probe); re-touch 2 and 4 so 1 is
  // back at LRU before the next insert.
  publish(pool, key(1), {{}, -0.1});
  EXPECT_DOUBLE_EQ(fetch(pool, key(2))->cost, -1.0);  // refresh 2
  EXPECT_TRUE(fetch(pool, key(4)).has_value());       // refresh 4
  publish(pool, key(5), {{}, -1.0});                  // evicts 1
  EXPECT_FALSE(fetch(pool, key(1)).has_value());
  EXPECT_DOUBLE_EQ(fetch(pool, key(2))->cost, -1.0);

  const fleet::SharedSolutionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.size, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.stores, 6u);
  EXPECT_EQ(stats.misses, 2u);
}

// Within an epoch the snapshot is frozen: a session never sees a publish
// made after the freeze, its own included. The replay counts what the
// session saw, and a snapshot is re-frozen only after an entry changed.
TEST(SharedSolutionPool, SnapshotIsFrozenUntilReplayChangesAnEntry) {
  fleet::SharedSolutionPoolConfig cfg;
  cfg.capacity = 1;
  fleet::SharedSolutionPool pool(cfg);
  const fleet::PoolKey a{"d", "s", {1, 0, 0}};
  const fleet::PoolKey b{"d", "s", {2, 0, 0}};
  publish(pool, a, {{0.5}, -1.0});

  const auto frozen = pool.snapshot();
  EXPECT_EQ(pool.snapshot(), frozen);  // nothing changed: same snapshot
  std::vector<fleet::PoolOp> traffic;
  const core::SolutionStoreHooks hooks = fleet::pool_hooks(frozen, a, &traffic);
  hooks.publish(b.env, {{0.7}, -3.0});
  EXPECT_FALSE(hooks.fetch(b.env).has_value());  // own publish: not visible
  EXPECT_TRUE(hooks.fetch(a.env).has_value());
  ASSERT_EQ(traffic.size(), 3u);
  EXPECT_EQ(traffic[0].kind, fleet::PoolOp::Kind::Publish);
  EXPECT_EQ(traffic[1].kind, fleet::PoolOp::Kind::Miss);
  EXPECT_EQ(traffic[2].kind, fleet::PoolOp::Kind::Hit);

  // Replayed in order: b's publish evicts a before a's hit is replayed;
  // the hit still counts, as the session was served.
  pool.replay(traffic);
  const fleet::SharedSolutionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.stores, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_NE(pool.snapshot(), frozen);
  EXPECT_EQ(pool.snapshot()->count(b.str()), 1u);
  EXPECT_EQ(pool.snapshot()->count(a.str()), 0u);
  // The old snapshot is immutable: its holders still see a.
  EXPECT_EQ(frozen->count(a.str()), 1u);
}

// SolutionLookupTable::replace under an interleaved fetch/store sequence:
// store keeps the lower-cost entry on collision, so after a warm start is
// rejected only replace() can install the (worse but real) measured cost.
TEST(SolutionLookupTable, ReplaceOverridesLowerCostWinsMidSequence) {
  core::SolutionLookupTable table;
  const core::EnvironmentKey env{7, 3, 42};

  table.store(env, {{1.0, 0.0, 0.0, 1.0}, -2.0});
  ASSERT_TRUE(table.find(env).has_value());

  // A later, worse store loses the collision...
  table.store(env, {{0.0, 1.0, 0.0, 0.5}, -1.0});
  EXPECT_DOUBLE_EQ(table.find(env)->cost, -2.0);
  // ...but replace() overwrites unconditionally (stale-entry poisoning).
  table.replace(env, {{0.0, 1.0, 0.0, 0.5}, -1.0});
  EXPECT_DOUBLE_EQ(table.find(env)->cost, -1.0);
  EXPECT_DOUBLE_EQ(table.find(env)->z[1], 1.0);

  // Interleave further: store now wins again only with a better cost.
  table.store(env, {{0.5, 0.5, 0.0, 0.9}, -0.5});
  EXPECT_DOUBLE_EQ(table.find(env)->cost, -1.0);
  table.store(env, {{0.5, 0.5, 0.0, 0.9}, -3.0});
  EXPECT_DOUBLE_EQ(table.find(env)->cost, -3.0);
  // replace() on a missing key inserts.
  const core::EnvironmentKey fresh{8, 3, 42};
  table.replace(fresh, {{0.2, 0.3, 0.5, 0.7}, -0.25});
  ASSERT_TRUE(table.find(fresh).has_value());
  EXPECT_EQ(table.size(), 2u);
}

TEST(FleetMetrics, SummarizeMetricThrowsOnEmptyInput) {
  EXPECT_THROW(fleet::summarize_metric({}), Error);
  const fleet::MetricSummary one = fleet::summarize_metric({2.5});
  EXPECT_DOUBLE_EQ(one.min, 2.5);
  EXPECT_DOUBLE_EQ(one.p99, 2.5);
  EXPECT_DOUBLE_EQ(one.max, 2.5);
}

// The acceptance-criteria test: a pool-disabled fleet produces identical
// per-session aggregates on 1 thread and on several threads.
TEST(FleetSimulator, PerSessionResultsAreThreadCountInvariant) {
  const std::size_t kSessions = 64;
  fleet::FleetResult serial = fleet::FleetSimulator(fast_fleet(kSessions, 1)).run();
  fleet::FleetResult threaded =
      fleet::FleetSimulator(fast_fleet(kSessions, 4)).run();

  ASSERT_EQ(serial.sessions.size(), kSessions);
  ASSERT_EQ(threaded.sessions.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.session_id, i);
    EXPECT_EQ(b.session_id, i);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.periods, b.periods);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    // Bit-identical trajectories, not merely close ones.
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
  }
  // Every session actually ran its initial activation.
  EXPECT_GE(serial.metrics.total_activations, kSessions);
  EXPECT_GT(serial.metrics.reward.mean, serial.metrics.reward.min - 1.0);
}

// The power-model variant of the invariance guarantee: per-session
// PowerManagers rescale PsResource capacities mid-run (the governor), and
// that feedback must still be bit-identical across thread counts because
// each session owns its power state and derives its ambient Rng from the
// session seed.
TEST(FleetSimulator, PowerModelKeepsThreadCountInvariance) {
  auto power_fleet = [](std::size_t threads) {
    fleet::FleetSpec spec = fast_fleet(24, threads);
    spec.use_power_model = true;
    spec.power.ambient_c = 28.0;
    spec.power.initial_temp_c = 61.0;  // warm: MidTier/S22 throttle quickly
    spec.scenarios = {
        {scenario::ObjectSet::ThermalSoak, scenario::TaskSet::CF1, 1.0}};
    return spec;
  };
  fleet::FleetResult serial = fleet::FleetSimulator(power_fleet(1)).run();
  fleet::FleetResult threaded = fleet::FleetSimulator(power_fleet(4)).run();

  ASSERT_EQ(serial.sessions.size(), threaded.sessions.size());
  std::uint64_t total_throttle_events = 0;
  for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    // The power trajectory itself is part of the invariant.
    EXPECT_EQ(a.energy_j, b.energy_j) << "session " << i;
    EXPECT_EQ(a.max_die_temp_c, b.max_die_temp_c) << "session " << i;
    EXPECT_EQ(a.throttle_events, b.throttle_events) << "session " << i;
    EXPECT_EQ(a.battery_soc, b.battery_soc) << "session " << i;
    total_throttle_events += a.throttle_events;
  }
  // The test only means something if the governor actually acted.
  EXPECT_GT(total_throttle_events, 0u);
  EXPECT_TRUE(serial.metrics.power.enabled);
  EXPECT_GT(serial.metrics.power.total_energy_j, 0.0);
  EXPECT_GT(serial.metrics.power.throttled_session_fraction, 0.0);
}

// Enabling the shared pool lets later sessions warm-start from earlier
// sessions' solutions: nonzero hit rate, nonzero shared warm starts.
TEST(FleetSimulator, SharedPoolProducesCrossSessionWarmStarts) {
  fleet::FleetSpec spec = fast_fleet(12, 2);
  spec.devices = {{"Pixel 7", 1.0}};  // one key -> guaranteed sharing
  spec.use_shared_pool = true;
  spec.epoch_sessions = 2;  // later epochs see earlier epochs' publishes
  spec.session.warm_start_tolerance = 10.0;  // accept pooled configs
  fleet::FleetSimulator fleet(spec);
  const fleet::FleetResult result = fleet.run();

  const fleet::SharedSolutionPoolStats pool = result.metrics.pool;
  EXPECT_GT(pool.stores, 0u);
  EXPECT_GT(pool.hits, 0u);
  EXPECT_GT(pool.hit_rate(), 0.0);
  EXPECT_GT(result.metrics.total_shared_warm_starts, 0u);
  EXPECT_GT(result.metrics.warm_start_rate, 0.0);
  // Only sessions after the first epoch can share; the first epoch reads
  // an empty snapshot.
  EXPECT_EQ(result.sessions[0].shared_warm_starts, 0u);
  EXPECT_EQ(result.sessions[1].shared_warm_starts, 0u);
  EXPECT_LT(result.metrics.total_shared_warm_starts,
            result.metrics.total_activations);
}

/// Every simulated SessionResult field of two runs agrees bit for bit
/// (wall_seconds, host time, excepted).
void expect_same_sessions(const fleet::FleetResult& a,
                          const fleet::FleetResult& b) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const fleet::SessionResult& x = a.sessions[i];
    const fleet::SessionResult& y = b.sessions[i];
#define HB_SAME(field) EXPECT_EQ(x.field, y.field) << #field << ", session " << i
    HB_SAME(session_id); HB_SAME(device); HB_SAME(scenario); HB_SAME(seed);
    HB_SAME(sim_seconds); HB_SAME(periods); HB_SAME(mean_quality);
    HB_SAME(mean_latency_ratio); HB_SAME(mean_reward); HB_SAME(activations);
    HB_SAME(warm_starts); HB_SAME(shared_warm_starts);
    HB_SAME(prior_activations); HB_SAME(bandit_pulls);
    HB_SAME(edge_requests); HB_SAME(edge_retries);
    HB_SAME(edge_rejected_attempts); HB_SAME(edge_timeout_attempts);
    HB_SAME(edge_fallbacks); HB_SAME(edge_decim_fallbacks);
    HB_SAME(edge_bo_fallbacks); HB_SAME(edge_payload_bytes);
    HB_SAME(edge_units); HB_SAME(edge_service_s); HB_SAME(edge_elapsed_s);
    HB_SAME(market_session); HB_SAME(market_denied);
    HB_SAME(market_resolution); HB_SAME(market_bandwidth_frac);
    HB_SAME(market_price); HB_SAME(offload_session);
    HB_SAME(offload_completed); HB_SAME(offload_remote);
    HB_SAME(offload_fallbacks); HB_SAME(offload_rate);
    HB_SAME(mean_edge_share); HB_SAME(radio_energy_j);
    HB_SAME(offload_elapsed_s); HB_SAME(energy_j); HB_SAME(mean_power_w);
    HB_SAME(max_die_temp_c); HB_SAME(throttle_events);
    HB_SAME(time_throttled_s); HB_SAME(min_freq_scale); HB_SAME(battery_soc);
    HB_SAME(battery_drain_pct_per_hour); HB_SAME(sched_traced);
    HB_SAME(sched_jobs); HB_SAME(sched_worst_p99_slowdown);
    HB_SAME(sched_fairness_floor); HB_SAME(sched_starved_jobs);
    HB_SAME(sched_events); HB_SAME(sched_dropped_events);
#undef HB_SAME
  }
  const fleet::SharedSolutionPoolStats& p = a.metrics.pool;
  const fleet::SharedSolutionPoolStats& q = b.metrics.pool;
  EXPECT_EQ(p.size, q.size);
  EXPECT_EQ(p.hits, q.hits);
  EXPECT_EQ(p.misses, q.misses);
  EXPECT_EQ(p.stores, q.stores);
  EXPECT_EQ(p.evictions, q.evictions);
}

/// Run `spec` on 1 and on 4 threads and require identical fleets.
fleet::FleetResult expect_thread_count_invariant(fleet::FleetSpec spec) {
  spec.threads = 1;
  const fleet::FleetResult serial = fleet::FleetSimulator(spec).run();
  spec.threads = 4;
  const fleet::FleetResult threaded = fleet::FleetSimulator(spec).run();
  expect_same_sessions(serial, threaded);
  return serial;
}

/// A pool fleet concentrated on one device, accepting pooled configs.
fleet::FleetSpec pool_fleet(std::size_t sessions) {
  fleet::FleetSpec spec = fast_fleet(sessions, 1);
  spec.devices = {{"Pixel 7", 1.0}};
  spec.use_shared_pool = true;
  spec.session.warm_start_tolerance = 10.0;
  return spec;
}

/// Add a proportional-fair market on the wifi edge.
fleet::FleetSpec with_market(fleet::FleetSpec spec) {
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("wifi");
  spec.market.enabled = true;
  return spec;
}

// The epoch-frozen pool at its default epoch size: every session of an
// epoch reads one snapshot, and the replay runs in session-id order, so
// which sessions warm start no longer depends on the thread count.
TEST(FleetSimulator, PoolFleetIsThreadCountInvariant) {
  const fleet::FleetResult r = expect_thread_count_invariant(pool_fleet(80));
  EXPECT_GT(r.metrics.pool.hits, 0u);
  EXPECT_GT(r.metrics.total_shared_warm_starts, 0u);
}

// Market + pool: the allocator ticks and the pool freezes at the same
// epoch heads, and both are fed at the window head.
TEST(FleetSimulator, MarketPoolFleetIsThreadCountInvariant) {
  fleet::FleetSpec spec = with_market(pool_fleet(24));
  spec.epoch_sessions = 6;
  const fleet::FleetResult r = expect_thread_count_invariant(spec);
  EXPECT_EQ(r.metrics.market.ticks, 4u);
  EXPECT_GT(r.metrics.pool.hits, 0u);
  EXPECT_GT(r.metrics.total_shared_warm_starts, 0u);
}

// Market + learned priors share one epoch size.
TEST(FleetSimulator, MarketPriorFleetIsThreadCountInvariant) {
  fleet::FleetSpec spec = with_market(fast_fleet(16, 1));
  spec.devices = {{"Pixel 7", 1.0}};
  spec.policy.mode = fleet::PolicyMode::Prior;
  spec.policy.prior.min_observations = 4;
  spec.epoch_sessions = 4;
  const fleet::FleetResult r = expect_thread_count_invariant(spec);
  EXPECT_EQ(r.metrics.market.ticks, 4u);
  EXPECT_EQ(r.metrics.policy.epochs, 4u);
  EXPECT_GT(r.metrics.policy.prior_activations, 0u);
}

TEST(FleetMetrics, AggregateComputesPercentilesAndThroughput) {
  std::vector<fleet::SessionResult> sessions(5);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].session_id = i;
    sessions[i].mean_quality = 0.5 + 0.1 * static_cast<double>(i);
    sessions[i].mean_latency_ratio = 0.1;
    sessions[i].mean_reward = static_cast<double>(i);
    sessions[i].sim_seconds = 10.0;
    sessions[i].activations = 2;
    sessions[i].warm_starts = 1;
  }
  const fleet::FleetMetrics m = fleet::aggregate_fleet(sessions, 2.0);
  EXPECT_EQ(m.sessions, 5u);
  EXPECT_DOUBLE_EQ(m.total_sim_seconds, 50.0);
  EXPECT_DOUBLE_EQ(m.sessions_per_sec, 2.5);
  EXPECT_DOUBLE_EQ(m.reward.p50, 2.0);
  EXPECT_DOUBLE_EQ(m.reward.min, 0.0);
  EXPECT_DOUBLE_EQ(m.reward.max, 4.0);
  EXPECT_DOUBLE_EQ(m.reward.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.quality.p90, 0.86);
  EXPECT_DOUBLE_EQ(m.warm_start_rate, 0.5);
  EXPECT_EQ(m.total_activations, 10u);
}

// retain_results=false must agree with the exact path: counters and
// min/mean/max bitwise (both are exact sums in the same order), sketched
// percentiles within the P² tolerance — and it must not keep per-session
// results around.
TEST(FleetSimulator, StreamingAgreesWithExactAggregation) {
  fleet::FleetSpec exact_spec = fast_fleet(48, 2);
  fleet::FleetSpec stream_spec = exact_spec;
  stream_spec.retain_results = false;
  const fleet::FleetResult exact = fleet::FleetSimulator(exact_spec).run();
  const fleet::FleetResult stream = fleet::FleetSimulator(stream_spec).run();

  EXPECT_EQ(exact.sessions.size(), 48u);
  EXPECT_TRUE(stream.sessions.empty());
  EXPECT_FALSE(exact.metrics.streamed);
  EXPECT_TRUE(stream.metrics.streamed);

  const fleet::FleetMetrics& a = exact.metrics;
  const fleet::FleetMetrics& b = stream.metrics;
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.total_activations, b.total_activations);
  EXPECT_EQ(a.total_warm_starts, b.total_warm_starts);
  EXPECT_EQ(a.total_sim_seconds, b.total_sim_seconds);
  for (auto field : {&fleet::FleetMetrics::quality,
                     &fleet::FleetMetrics::latency_ratio,
                     &fleet::FleetMetrics::reward}) {
    const fleet::MetricSummary& ea = a.*field;
    const fleet::MetricSummary& eb = b.*field;
    EXPECT_EQ(ea.min, eb.min);
    // Exact path sums naively, streaming uses Welford: same order, same
    // value up to rounding.
    EXPECT_NEAR(ea.mean, eb.mean, 1e-12);
    EXPECT_EQ(ea.max, eb.max);
    // Sketched percentiles land within the metric's observed range and
    // near the exact values (generous: 48 samples is small for P²).
    const double span = ea.max - ea.min + 1e-12;
    EXPECT_NEAR(ea.p50, eb.p50, 0.25 * span);
    EXPECT_NEAR(ea.p90, eb.p90, 0.25 * span);
    EXPECT_NEAR(ea.p99, eb.p99, 0.25 * span);
    EXPECT_GE(eb.p50, ea.min);
    EXPECT_LE(eb.p99, ea.max);
  }
}

// The streaming path inherits the fleet determinism guarantee: sessions
// are rolled up in session-id order no matter which worker finished
// first, so a pool-disabled streaming fleet's metrics are bit-identical
// on 1 thread and on several threads (wall-clock fields excluded).
TEST(FleetSimulator, StreamingMetricsAreThreadCountInvariant) {
  auto stream_fleet = [](std::size_t threads) {
    fleet::FleetSpec spec = fast_fleet(48, threads);
    spec.retain_results = false;
    return spec;
  };
  const fleet::FleetMetrics a =
      fleet::FleetSimulator(stream_fleet(1)).run().metrics;
  const fleet::FleetMetrics b =
      fleet::FleetSimulator(stream_fleet(4)).run().metrics;

  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.total_activations, b.total_activations);
  EXPECT_EQ(a.total_warm_starts, b.total_warm_starts);
  EXPECT_EQ(a.total_sim_seconds, b.total_sim_seconds);
  for (auto field : {&fleet::FleetMetrics::quality,
                     &fleet::FleetMetrics::latency_ratio,
                     &fleet::FleetMetrics::reward}) {
    EXPECT_EQ((a.*field).min, (b.*field).min);
    EXPECT_EQ((a.*field).mean, (b.*field).mean);
    EXPECT_EQ((a.*field).p50, (b.*field).p50);
    EXPECT_EQ((a.*field).p90, (b.*field).p90);
    EXPECT_EQ((a.*field).p99, (b.*field).p99);
    EXPECT_EQ((a.*field).max, (b.*field).max);
  }
}

// progress_every fires on the main thread at exact completion multiples,
// in order, with a monotone wall clock.
TEST(FleetSimulator, ProgressCallbackFiresAtConfiguredInterval) {
  fleet::FleetSpec spec = fast_fleet(32, 2);
  spec.retain_results = false;
  spec.progress_every = 8;
  std::vector<fleet::FleetProgress> ticks;
  spec.on_progress = [&ticks](const fleet::FleetProgress& p) {
    ticks.push_back(p);
  };
  fleet::FleetSimulator(spec).run();

  ASSERT_EQ(ticks.size(), 4u);
  double last_wall = -1.0;
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i].completed, 8 * (i + 1));
    EXPECT_EQ(ticks[i].sessions, 32u);
    EXPECT_GE(ticks[i].wall_seconds, last_wall);
    last_wall = ticks[i].wall_seconds;
  }
}

TEST(FleetMetrics, PercentileHelperInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 99.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0}, 100.0), 3.0);
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, 101.0), Error);
}

}  // namespace
}  // namespace hbosim
