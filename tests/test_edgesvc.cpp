// Tests for hbosim::edgesvc: stochastic link validation/determinism,
// Gilbert-Elliott loss bursts, bandwidth sharing, queue-policy ordering,
// bounded-queue rejection, the retry/backoff schedule, timeout-triggered
// fallback, per-tenant fairness under asymmetric load, telemetry
// counters, and the fleet determinism guarantee with a shared edge box.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "hbosim/common/error.hpp"
#include "hbosim/core/monitored_session.hpp"
#include "hbosim/edge/decimation_service.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/render/mesh.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim {
namespace {

using namespace hbosim::edgesvc;

// ---------------------------------------------------------------------------
// LinkModel

TEST(LinkModel, ValidatesConfig) {
  LinkModelConfig cfg;
  cfg.mbit_per_s = 1e-6;  // the historical inf/NaN event-time bug
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.rtt_ms = -1.0;
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.rtt_jitter_frac = 1.0;
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.loss_bad = 1.5;
  EXPECT_THROW(LinkModel{cfg}, Error);

  EXPECT_NO_THROW(LinkModel{LinkModelConfig{}});
}

TEST(LinkModel, RejectsNonFiniteValues) {
  // A NaN or infinite RTT/throughput must not reach the event queue as a
  // NaN/inf transfer time.
  LinkModelConfig cfg;
  cfg.rtt_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.rtt_ms = std::numeric_limits<double>::infinity();
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.mbit_per_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.mbit_per_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(LinkModel{cfg}, Error);

  cfg = LinkModelConfig{};
  cfg.mbit_per_s = 0.0;
  EXPECT_THROW(LinkModel{cfg}, Error);
}

TEST(LinkModel, DegenerateConfigMatchesClosedFormExactly) {
  LinkModel link;  // defaults: no jitter, no loss, no sharing
  Rng rng(7);
  const std::uint64_t payload = 36'000;
  const double expected = 20.0 * 1e-3 + 36'000 * 8.0 / (120.0 * 1e6);
  EXPECT_EQ(link.nominal_seconds(payload), expected);
  const LinkSample s = link.sample(payload, rng);
  EXPECT_FALSE(s.lost);
  EXPECT_EQ(s.seconds, expected);
}

TEST(LinkModel, SampleSequenceIsSeedDeterministic) {
  LinkModelConfig cfg;
  cfg.rtt_jitter_frac = 0.3;
  cfg.p_good_to_bad = 0.1;
  cfg.p_bad_to_good = 0.5;
  cfg.loss_bad = 0.4;
  LinkModel a(cfg), b(cfg);
  Rng ra(99), rb(99);
  for (int i = 0; i < 200; ++i) {
    const LinkSample sa = a.sample(1000, ra);
    const LinkSample sb = b.sample(1000, rb);
    EXPECT_EQ(sa.lost, sb.lost);
    EXPECT_EQ(sa.seconds, sb.seconds);
  }
}

TEST(LinkModel, GilbertElliottLossesClusterIntoBursts) {
  // Force the chain straight into (and never out of) the bad state with
  // certain loss: every exchange is lost.
  LinkModelConfig cfg;
  cfg.p_good_to_bad = 1.0;
  cfg.p_bad_to_good = 0.0;
  cfg.loss_bad = 1.0;
  LinkModel link(cfg);
  Rng rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(link.sample(100, rng).lost);
  EXPECT_TRUE(link.in_bad_state());
}

TEST(LinkModel, BandwidthSharingDividesThroughput) {
  LinkModelConfig cfg;
  cfg.background_flows = 3.0;
  cfg.share_weight = 1.0;
  LinkModel link(cfg);
  EXPECT_DOUBLE_EQ(link.effective_mbit_per_s(), 120.0 / 4.0);
  const double bits = 1e6 * 8.0;
  EXPECT_DOUBLE_EQ(link.nominal_seconds(1'000'000),
                   0.020 + bits / (30.0 * 1e6));
}

TEST(LinkModel, JitterStaysInsideTheConfiguredBand) {
  LinkModelConfig cfg;
  cfg.rtt_jitter_frac = 0.25;
  LinkModel link(cfg);
  const double transfer = link.nominal_seconds(50'000) - 0.020;
  Rng rng(7);
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i < 500; ++i) {
    const LinkSample s = link.sample(50'000, rng);
    ASSERT_FALSE(s.lost);
    const double rtt = s.seconds - transfer;
    lo = std::min(lo, rtt);
    hi = std::max(hi, rtt);
  }
  // RTT scale is uniform in [0.75, 1.25): bounded, and actually spread.
  EXPECT_GE(lo, 0.020 * 0.75 - 1e-12);
  EXPECT_LT(hi, 0.020 * 1.25 + 1e-12);
  EXPECT_LT(lo, 0.020 * 0.85);
  EXPECT_GT(hi, 0.020 * 1.15);
}

TEST(LinkModel, LossFreeJitterFreeSampleDrawsNothing) {
  // A link that cannot lose or jitter must leave the session's generator
  // untouched, so attaching it cannot shift any later draw.
  LinkModelConfig cfg;
  cfg.background_flows = 2.0;
  LinkModel link(cfg);
  Rng used(42), fresh(42);
  for (int i = 0; i < 10; ++i) (void)link.sample(10'000, used);
  EXPECT_EQ(used.next_u64(), fresh.next_u64());
}

TEST(LinkModel, GilbertElliottStateAlternatesWithCertainTransitions) {
  // Both transitions certain: the chain flips every exchange, and only
  // the Bad-state exchanges are lost.
  LinkModelConfig cfg;
  cfg.p_good_to_bad = 1.0;
  cfg.p_bad_to_good = 1.0;
  cfg.loss_bad = 1.0;
  LinkModel link(cfg);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const bool bad = (i % 2 == 0);
    const LinkSample s = link.sample(100, rng);
    EXPECT_EQ(link.in_bad_state(), bad) << "exchange " << i;
    EXPECT_EQ(s.lost, bad) << "exchange " << i;
    if (!bad) {
      EXPECT_DOUBLE_EQ(s.seconds, link.nominal_seconds(100));
    }
  }
}

// ---------------------------------------------------------------------------
// EdgeServerSim

EdgeServerSpec one_core_spec() {
  EdgeServerSpec spec;
  spec.cores = 1;
  spec.decimation_ms_per_mtri = 1000.0;  // 1 s per unit, easy arithmetic
  return spec;
}

EdgeRequest decim_request(double units, double arrival,
                          double deadline = 1e18) {
  EdgeRequest req;
  req.cls = RequestClass::Decimation;
  req.units = units;
  req.arrival_s = arrival;
  req.deadline_s = deadline;
  return req;
}

TEST(EdgeServerSim, FifoRequestsStackInSubmitOrder) {
  EdgeServerSim sim(one_core_spec(), {}, /*background_tenants=*/0, 42);
  const AdmissionResult a = sim.submit(decim_request(1.0, 0.0));
  const AdmissionResult b = sim.submit(decim_request(1.0, 0.0));
  const AdmissionResult c = sim.submit(decim_request(1.0, 0.0));
  ASSERT_EQ(a.status, AdmissionStatus::Ok);
  ASSERT_EQ(b.status, AdmissionStatus::Ok);
  ASSERT_EQ(c.status, AdmissionStatus::Ok);
  EXPECT_DOUBLE_EQ(a.wait_s, 0.0);
  EXPECT_DOUBLE_EQ(a.completion_s, 1.0);
  EXPECT_DOUBLE_EQ(b.wait_s, 1.0);
  EXPECT_DOUBLE_EQ(b.completion_s, 2.0);
  // Resolving b ran the virtual clock to 1.0; c's t=0 arrival is clamped
  // to "now" (started work is never rewound), so it waits 1 s, not 2.
  EXPECT_DOUBLE_EQ(c.wait_s, 1.0);
  EXPECT_DOUBLE_EQ(c.completion_s, 3.0);
  EXPECT_EQ(sim.stats().served, 3u);
  EXPECT_EQ(sim.stats().bg_arrivals, 0u);
}

TEST(EdgeServerSim, DeadlinePolicyShedsExpiredRequests) {
  EdgeServerSpec spec = one_core_spec();
  spec.policy = QueuePolicy::DeadlinePriority;
  EdgeServerSim sim(spec, {}, 0, 42);
  // A 10 s job holds the single core; the next request's deadline passes
  // long before the core frees, so the policy drops it unserved.
  ASSERT_EQ(sim.submit(decim_request(10.0, 0.0)).status, AdmissionStatus::Ok);
  const AdmissionResult shed = sim.submit(decim_request(0.1, 0.0, 0.5));
  EXPECT_EQ(shed.status, AdmissionStatus::Shed);
  EXPECT_EQ(sim.stats().shed, 1u);
  EXPECT_EQ(sim.stats().served, 1u);
}

TEST(EdgeServerSim, FifoNeverSheds) {
  EdgeServerSim sim(one_core_spec(), {}, 0, 42);
  ASSERT_EQ(sim.submit(decim_request(10.0, 0.0)).status, AdmissionStatus::Ok);
  // Same expired request as above: FIFO burns the core on it anyway (the
  // server cannot see client-side timeouts).
  const AdmissionResult late = sim.submit(decim_request(0.1, 0.0, 0.5));
  EXPECT_EQ(late.status, AdmissionStatus::Ok);
  EXPECT_GE(late.wait_s, 10.0 - 1e-12);
  EXPECT_EQ(sim.stats().shed, 0u);
}

/// Heavy synthetic co-tenant load: a few tenants hammering the box hard
/// enough to keep its single core overloaded and the queue backed up.
BackgroundLoadConfig heavy_background() {
  BackgroundLoadConfig bg;
  bg.per_tenant_rps = 50.0;
  bg.mean_units = 0.3;
  return bg;
}

/// Near-critical load (~0.94 on one core): the queue is usually backed up
/// but far from capacity, so admission never interferes with the
/// policy-ordering comparisons below.
BackgroundLoadConfig moderate_background() {
  BackgroundLoadConfig bg;
  bg.per_tenant_rps = 30.0;
  bg.mean_units = 0.3;
  return bg;
}

TEST(EdgeServerSim, BoundedQueueRejectsWhenFull) {
  EdgeServerSpec spec;
  spec.cores = 1;
  spec.queue_capacity = 2;
  EdgeServerSim sim(spec, heavy_background(), /*background_tenants=*/4, 7);
  // By t=1 the overloaded mirror's queue is pinned at capacity.
  const AdmissionResult res = sim.submit(decim_request(0.1, 1.0));
  EXPECT_EQ(res.status, AdmissionStatus::Rejected);
  EXPECT_EQ(res.depth_at_arrival, spec.queue_capacity);
  EXPECT_GT(sim.stats().rejected, 0u);
  EXPECT_GT(sim.stats().rejection_rate(), 0.0);
  EXPECT_GT(sim.stats().queue_depth_p95(), 0.0);
}

TEST(EdgeServerSim, DeadlinePriorityJumpsTheQueue) {
  // Same seed => identical background arrival/service streams; only the
  // pick order differs. A tight-deadline session request overtakes queued
  // background work (deadline arrival+0.05 vs the background's +0.25), so
  // its wait can never exceed the FIFO wait.
  EdgeServerSpec fifo_spec;
  fifo_spec.cores = 1;
  fifo_spec.queue_capacity = 256;
  EdgeServerSpec dl_spec = fifo_spec;
  dl_spec.policy = QueuePolicy::DeadlinePriority;

  EdgeServerSim fifo(fifo_spec, moderate_background(), 4, 123);
  EdgeServerSim deadline(dl_spec, moderate_background(), 4, 123);
  const EdgeRequest req = decim_request(0.01, 2.0, 2.05);
  const AdmissionResult rf = fifo.submit(req);
  const AdmissionResult rd = deadline.submit(req);
  ASSERT_EQ(rf.status, AdmissionStatus::Ok);
  ASSERT_EQ(rd.status, AdmissionStatus::Ok);
  EXPECT_GT(rf.depth_at_arrival, 0u);  // there was a backlog to jump
  EXPECT_LT(rd.wait_s, rf.wait_s);
}

TEST(EdgeServerSim, FairSharePrioritizesTheLightTenant) {
  // Asymmetric load: the background tenants have been served continuously
  // for 2 simulated seconds; the session tenant arrives with a served
  // count of zero, so the fair-share policy picks it ahead of the queued
  // heavy tenants. Under FIFO it waits behind the full backlog.
  EdgeServerSpec fifo_spec;
  fifo_spec.cores = 1;
  fifo_spec.queue_capacity = 256;
  EdgeServerSpec fair_spec = fifo_spec;
  fair_spec.policy = QueuePolicy::TenantFairShare;

  EdgeServerSim fifo(fifo_spec, moderate_background(), 4, 321);
  EdgeServerSim fair(fair_spec, moderate_background(), 4, 321);
  const EdgeRequest req = decim_request(0.01, 2.0);
  const AdmissionResult rf = fifo.submit(req);
  const AdmissionResult ra = fair.submit(req);
  ASSERT_EQ(rf.status, AdmissionStatus::Ok);
  ASSERT_EQ(ra.status, AdmissionStatus::Ok);
  EXPECT_GT(rf.depth_at_arrival, 0u);
  EXPECT_LT(ra.wait_s, rf.wait_s);
}

TEST(EdgeServerSim, QueuePolicyNamesRoundTrip) {
  EXPECT_EQ(queue_policy_from_name("fifo"), QueuePolicy::Fifo);
  EXPECT_EQ(queue_policy_from_name("deadline"), QueuePolicy::DeadlinePriority);
  EXPECT_EQ(queue_policy_from_name("fair"), QueuePolicy::TenantFairShare);
  EXPECT_THROW(queue_policy_from_name("lifo"), Error);
}

// ---------------------------------------------------------------------------
// EdgeClient

EdgeClientConfig no_jitter_client() {
  EdgeClientConfig cfg;
  cfg.backoff_jitter_frac = 0.0;
  return cfg;
}

TEST(EdgeClient, UncontendedSuccessMatchesClosedFormDelay) {
  EdgeServerSpec server;  // defaults: 35 ms/mtri, 4 cores
  LinkModelConfig link;   // defaults: no jitter/loss/sharing
  EdgeClient client(no_jitter_client(), server, {}, /*background_tenants=*/0,
                    link, /*tenant=*/0, /*seed=*/5);
  const std::uint64_t payload = 36'000;
  const EdgeResponse resp =
      client.perform(RequestClass::Decimation, 1.0, payload, 0.0);
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.attempts, 1);
  const double expected =
      server.service_seconds(RequestClass::Decimation, 1.0) +
      LinkModel(link).nominal_seconds(payload);
  EXPECT_DOUBLE_EQ(resp.elapsed_s, expected);
  EXPECT_EQ(client.stats().successes, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(EdgeClient, BackoffScheduleIsCappedExponential) {
  EdgeClientConfig cfg;
  cfg.backoff_base_s = 0.05;
  cfg.backoff_mult = 2.0;
  cfg.backoff_cap_s = 0.3;
  EdgeClient client(cfg, {}, {}, 0, {}, 0, 1);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(1), 0.05);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(2), 0.10);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(3), 0.20);
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(4), 0.30);  // capped
  EXPECT_DOUBLE_EQ(client.nominal_backoff_s(9), 0.30);
}

TEST(EdgeClient, TimeoutTriggersRetriesThenFallback) {
  // Service takes 35 ms but the client only waits 10 ms: every attempt is
  // answered too late, and after max_attempts the caller must degrade.
  EdgeClientConfig cfg = no_jitter_client();
  cfg.timeout_s = 0.010;
  cfg.max_attempts = 3;
  cfg.backoff_base_s = 0.05;
  cfg.backoff_mult = 2.0;
  EdgeClient client(cfg, {}, {}, 0, {}, 0, 2);
  const EdgeResponse resp =
      client.perform(RequestClass::Decimation, 1.0, 1000, 0.0);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.last_status, EdgeStatus::TimedOut);
  EXPECT_EQ(resp.attempts, 3);
  EXPECT_EQ(client.stats().timeout_attempts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().fallbacks, 1u);
  // 3 timeouts + the two nominal backoffs (jitter disabled).
  EXPECT_DOUBLE_EQ(resp.elapsed_s, 3 * 0.010 + 0.05 + 0.10);
  EXPECT_DOUBLE_EQ(client.stats().fallback_rate(), 1.0);
}

TEST(EdgeClient, LossBurstSurfacesAsLinkLost) {
  LinkModelConfig link;
  link.p_good_to_bad = 1.0;
  link.p_bad_to_good = 0.0;
  link.loss_bad = 1.0;
  EdgeClientConfig cfg = no_jitter_client();
  cfg.max_attempts = 2;
  EdgeClient client(cfg, {}, {}, 0, link, 0, 3);
  const EdgeResponse resp =
      client.perform(RequestClass::RemoteBo, 1.0, 88, 0.0);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.last_status, EdgeStatus::LinkLost);
  EXPECT_EQ(client.stats().lost_attempts, 2u);
  EXPECT_EQ(client.stats().fallbacks, 1u);
}

TEST(EdgeClient, RejectionsAreRetriedAgainstAFullQueue) {
  EdgeServerSpec server;
  server.cores = 1;
  server.queue_capacity = 2;
  EdgeClientConfig cfg = no_jitter_client();
  cfg.max_attempts = 2;
  EdgeClient client(cfg, server, heavy_background(), 4, {}, 0, 11);
  const EdgeResponse resp =
      client.perform(RequestClass::Decimation, 0.1, 1000, 1.0);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.last_status, EdgeStatus::Rejected);
  EXPECT_EQ(client.stats().rejected_attempts, 2u);
  EXPECT_EQ(client.stats().fallbacks, 1u);
}

TEST(EdgeClient, PerformSequenceIsSeedDeterministic) {
  const EdgeServiceSpec spec = edge_service_preset("congested");
  auto run = [&spec] {
    EdgeClient client(spec.client, spec.server, spec.background, 8, spec.link,
                      0, 77);
    std::vector<std::pair<bool, double>> out;
    for (int i = 0; i < 40; ++i) {
      const EdgeResponse r = client.perform(RequestClass::Decimation, 0.2,
                                            20'000, 0.5 * (i + 1));
      out.emplace_back(r.ok, r.elapsed_s);
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(EdgeClient, ResolutionScalesMeshWorkByArea) {
  // r = 0.5 quarters both the server-side work and the downlink payload
  // of mesh-bearing requests.
  EdgeServerSpec server;  // defaults: 35 ms/mtri, no jitter/loss/sharing
  EdgeClient client(no_jitter_client(), server, {}, 0, {}, 0, 5);
  client.set_resolution(0.5);
  const EdgeResponse resp =
      client.perform(RequestClass::Decimation, 1.0, 40'000, 0.0);
  ASSERT_TRUE(resp.ok);
  const double expected =
      server.service_seconds(RequestClass::Decimation, 0.25) +
      LinkModel(LinkModelConfig{}).nominal_seconds(10'000);
  EXPECT_DOUBLE_EQ(resp.elapsed_s, expected);
  EXPECT_DOUBLE_EQ(client.stats().units, 0.25);
  EXPECT_EQ(client.stats().payload_bytes, 10'000u);

  // The warm-start exchange is not a mesh: RemoteBo is never scaled.
  EdgeClient bo_client(no_jitter_client(), server, {}, 0, {}, 0, 6);
  bo_client.set_resolution(0.5);
  const EdgeResponse bo =
      bo_client.perform(RequestClass::RemoteBo, 1.0, 88, 0.0);
  ASSERT_TRUE(bo.ok);
  EXPECT_DOUBLE_EQ(bo.elapsed_s,
                   server.service_seconds(RequestClass::RemoteBo, 1.0) +
                       LinkModel(LinkModelConfig{}).nominal_seconds(88));

  EXPECT_THROW(client.set_resolution(0.0), Error);
  EXPECT_THROW(client.set_resolution(1.5), Error);
}

TEST(EdgeClient, FullResolutionIsBitwiseNeutral) {
  // The r = 1 guard must leave the request path untouched — same draws,
  // same elapsed times as a knob-free client (the market-off parity
  // contract at the client level).
  const EdgeServiceSpec spec = edge_service_preset("congested");
  EdgeClient plain(spec.client, spec.server, spec.background, 8, spec.link,
                   0, 77);
  EdgeClient knobbed(spec.client, spec.server, spec.background, 8, spec.link,
                     0, 77);
  knobbed.set_resolution(1.0);
  for (int i = 0; i < 40; ++i) {
    const EdgeResponse a = plain.perform(RequestClass::Decimation, 0.2,
                                         20'000, 0.5 * (i + 1));
    const EdgeResponse b = knobbed.perform(RequestClass::Decimation, 0.2,
                                           20'000, 0.5 * (i + 1));
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  }
  EXPECT_EQ(plain.stats().payload_bytes, knobbed.stats().payload_bytes);
  EXPECT_EQ(plain.stats().units, knobbed.stats().units);
}

TEST(EdgeClient, ValidatesConfig) {
  EdgeClientConfig cfg;
  cfg.timeout_s = 0.0;
  EXPECT_THROW((EdgeClient{cfg, {}, {}, 0, {}, 0, 1}), Error);
  cfg = EdgeClientConfig{};
  cfg.max_attempts = 0;
  EXPECT_THROW((EdgeClient{cfg, {}, {}, 0, {}, 0, 1}), Error);
  cfg = EdgeClientConfig{};
  cfg.backoff_mult = 0.5;
  EXPECT_THROW((EdgeClient{cfg, {}, {}, 0, {}, 0, 1}), Error);
}

// ---------------------------------------------------------------------------
// Broker and presets

TEST(EdgeBroker, PresetsValidateAndUnknownThrows) {
  for (const char* name : {"lan", "wifi", "congested"})
    EXPECT_NO_THROW(edge_service_preset(name).validate()) << name;
  EXPECT_THROW(edge_service_preset("dialup"), Error);
}

TEST(EdgeBroker, AbsorbsClientStatsThreadSafely) {
  EdgeServiceSpec spec = edge_service_preset("wifi");
  EdgeBroker broker(spec, /*session_tenants=*/4);
  EXPECT_EQ(broker.background_tenants(), 3u);
  auto client = broker.make_client(0, 1234);
  (void)client->perform(RequestClass::Decimation, 0.2, 10'000, 1.0);
  (void)client->perform(RequestClass::RemoteBo, 1.0, 88, 2.0);
  broker.absorb(*client);
  const EdgeFleetStats stats = broker.stats();
  EXPECT_EQ(stats.clients_absorbed, 1u);
  EXPECT_EQ(stats.client.requests, 2u);
  EXPECT_GT(stats.server.arrivals, 0u);
}

TEST(EdgeBroker, ClientsAreDeterministicInSeed) {
  EdgeServiceSpec spec = edge_service_preset("congested");
  EdgeBroker broker(spec, 8);
  auto a = broker.make_client(3, 999);
  auto b = broker.make_client(3, 999);
  for (int i = 0; i < 20; ++i) {
    const EdgeResponse ra =
        a->perform(RequestClass::MeshTransfer, 0.5, 50'000, 0.3 * (i + 1));
    const EdgeResponse rb =
        b->perform(RequestClass::MeshTransfer, 0.5, 50'000, 0.3 * (i + 1));
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.elapsed_s, rb.elapsed_s);
  }
}

TEST(EdgeBroker, AbsorbOrderNeverChangesTheRollup) {
  // Satellite of the marketsvc work: absorb() must be order-independent.
  // Integer counters are commutative sums; floating-point totals are
  // retained per tenant and re-summed in tenant-id order at stats() time,
  // so any interleaving of worker-thread completions yields a bitwise
  // identical roll-up.
  const EdgeServiceSpec spec = edge_service_preset("congested");
  auto run_tenant = [&spec](EdgeBroker& broker, std::uint64_t tenant) {
    auto client = broker.make_client(tenant, 1000 + tenant);
    for (int i = 0; i < 10; ++i) {
      (void)client->perform(RequestClass::Decimation, 0.2, 20'000,
                            0.4 * (i + 1));
    }
    broker.absorb(*client);
  };
  EdgeBroker forward(spec, 4), shuffled(spec, 4);
  for (std::uint64_t t : {0, 1, 2, 3}) run_tenant(forward, t);
  for (std::uint64_t t : {2, 0, 3, 1}) run_tenant(shuffled, t);

  const EdgeFleetStats a = forward.stats();
  const EdgeFleetStats b = shuffled.stats();
  EXPECT_EQ(a.clients_absorbed, b.clients_absorbed);
  EXPECT_EQ(a.client.requests, b.client.requests);
  EXPECT_EQ(a.client.retries, b.client.retries);
  EXPECT_EQ(a.client.fallbacks, b.client.fallbacks);
  // The floating-point totals are where a naive eager merge would leak
  // completion order into the last bits.
  EXPECT_EQ(a.client.total_elapsed_s, b.client.total_elapsed_s);
  EXPECT_EQ(a.client.units, b.client.units);
  EXPECT_EQ(a.client.own_service_s, b.client.own_service_s);
  EXPECT_EQ(a.server.total_wait_s, b.server.total_wait_s);
  EXPECT_EQ(a.server.total_service_s, b.server.total_service_s);
}

TEST(EdgeBroker, MarketClientsCarryTheDecidedBackground) {
  EdgeServiceSpec spec;  // default link: clean closed forms below
  spec.background.per_tenant_rps = 0.4;
  EdgeBroker broker(spec, 8);
  EXPECT_FALSE(broker.market_enabled());
  EXPECT_THROW(broker.market(), Error);
  marketsvc::TenantAllocation alloc;
  EXPECT_THROW(broker.make_market_client(alloc, 1), Error);

  broker.enable_market({});
  EXPECT_TRUE(broker.market_enabled());
  EXPECT_THROW(broker.enable_market({}), Error);

  // An admitted tenant's mirror carries the *decided* background instead
  // of the static per-tenant guesses.
  alloc.tenant = 2;
  alloc.resolution = 0.5;
  alloc.bg_flows = 1.5;
  alloc.bg_rps = 3.0;
  alloc.bg_mean_units = 0.2;
  auto admitted = broker.make_market_client(alloc, 42);
  EXPECT_EQ(admitted->tenant(), 2u);
  EXPECT_DOUBLE_EQ(admitted->resolution(), 0.5);
  EXPECT_DOUBLE_EQ(admitted->link().config().background_flows, 1.5);
  EXPECT_DOUBLE_EQ(admitted->link().config().mbit_per_s, spec.link.mbit_per_s);

  // A denied tenant gets the scavenger-class link: a sliver of the
  // downlink, no decided background.
  alloc.admitted = false;
  auto denied = broker.make_market_client(alloc, 42);
  EXPECT_DOUBLE_EQ(denied->link().config().background_flows, 0.0);
  EXPECT_DOUBLE_EQ(
      denied->link().config().mbit_per_s,
      std::max(kMinLinkMbitPerS,
               spec.link.mbit_per_s *
                   broker.market().config().denied_bandwidth_frac));
}

// ---------------------------------------------------------------------------
// Telemetry integration

TEST(EdgeTelemetry, CountersTrackRequestsRetriesAndFallbacks) {
  telemetry::TelemetrySession session;
  {
    // One clean success...
    EdgeClient ok_client(no_jitter_client(), {}, {}, 0, {}, 0, 5);
    (void)ok_client.perform(RequestClass::Decimation, 0.1, 1000, 0.0);
    // ...and one all-timeouts fallback.
    EdgeClientConfig cfg = no_jitter_client();
    cfg.timeout_s = 0.001;
    cfg.max_attempts = 3;
    EdgeClient bad_client(cfg, {}, {}, 0, {}, 0, 6);
    (void)bad_client.perform(RequestClass::Decimation, 1.0, 1000, 0.0);
  }
  const telemetry::MetricsSnapshot snap = session.metrics().snapshot();
  auto value = [&snap](const char* name) {
    const telemetry::MetricValue* m = snap.find(name);
    return m ? m->value : -1.0;
  };
  EXPECT_DOUBLE_EQ(value("edge.requests"), 2.0);
  EXPECT_DOUBLE_EQ(value("edge.successes"), 1.0);
  EXPECT_DOUBLE_EQ(value("edge.retries"), 2.0);
  EXPECT_DOUBLE_EQ(value("edge.timeout_attempts"), 3.0);
  EXPECT_DOUBLE_EQ(value("edge.fallbacks"), 1.0);
}

// ---------------------------------------------------------------------------
// Decimation fallback (nearest cached LOD)

TEST(DecimationFallback, ServesNearestCachedLodWhenEdgeFails) {
  edge::DecimationService service;
  const render::MeshAsset asset(
      "statue", 1'000'000,
      render::synthesize_degradation_params("statue", 1'000'000));
  // Prime the cache through the legacy path at ratio 0.5.
  const edge::DecimationResult primed = service.request(asset, 0.5);
  ASSERT_FALSE(primed.cache_hit);

  // Attach a client that can never succeed (timeout far below service).
  EdgeClientConfig cfg = no_jitter_client();
  cfg.timeout_s = 1e-4;
  cfg.max_attempts = 2;
  EdgeClient dead(cfg, {}, {}, 0, {}, 0, 9);
  double now = 0.0;
  service.attach_edge(&dead, [&now] { return now; });

  // A different ratio misses the cache, the edge fails, and the nearest
  // cached LOD (the primed 0.5 version) is served instead.
  const edge::DecimationResult res = service.request(asset, 0.9);
  EXPECT_TRUE(res.fallback);
  EXPECT_FALSE(res.unchanged);
  EXPECT_EQ(res.served_ratio, primed.served_ratio);
  EXPECT_EQ(res.triangles, primed.triangles);
  EXPECT_EQ(res.edge_attempts, 2);
  EXPECT_GT(res.delay_s, 0.0);  // the user still waited through the retries
  EXPECT_EQ(service.edge_fallbacks(), 1u);

  // An object with nothing cached degrades to "keep what's on screen".
  const render::MeshAsset other(
      "vase", 500'000, render::synthesize_degradation_params("vase", 500'000));
  const edge::DecimationResult keep = service.request(other, 0.7);
  EXPECT_TRUE(keep.fallback);
  EXPECT_TRUE(keep.unchanged);
  EXPECT_EQ(service.edge_fallbacks(), 2u);

  // Detaching restores the always-succeeding legacy path.
  service.attach_edge(nullptr, {});
  const edge::DecimationResult legacy = service.request(other, 0.7);
  EXPECT_FALSE(legacy.fallback);
  EXPECT_GT(legacy.delay_s, 0.0);
}

// ---------------------------------------------------------------------------
// MonitoredSession: remote-BO exchange gating the shared-store fetch

TEST(SessionEdge, StoreFetchFallsBackToLocalBoWhenEdgeIsDown) {
  auto app = scenario::make_app(soc::find_builtin("Pixel 7"),
                                scenario::ObjectSet::SC2,
                                scenario::TaskSet::CF2, 77);
  core::MonitoredSessionConfig cfg;
  cfg.hbo.n_initial = 2;
  cfg.hbo.n_iterations = 2;
  cfg.hbo.selection_candidates = 1;
  cfg.hbo.control_period_s = 1.0;
  cfg.hbo.monitor_period_s = 1.0;
  cfg.reference_periods = 2;
  cfg.use_lookup_table = true;
  core::MonitoredSession session(*app, cfg);

  int fetches = 0;
  core::SolutionStoreHooks hooks;
  hooks.fetch = [&fetches](const core::EnvironmentKey&)
      -> std::optional<core::StoredSolution> {
    ++fetches;
    return std::nullopt;
  };
  session.set_solution_store(std::move(hooks));

  EdgeClientConfig ccfg;
  ccfg.timeout_s = 1e-4;  // RemoteBo takes ~22 ms: every attempt times out
  ccfg.max_attempts = 2;
  EdgeClient dead(ccfg, {}, {}, 0, {}, 0, 13);
  session.set_edge(&dead);

  session.run_until(20.0);
  ASSERT_GE(session.activations().size(), 1u);
  // The store was never reachable; every local-miss activation fell back
  // to local BO instead of consulting it.
  EXPECT_EQ(fetches, 0);
  EXPECT_GE(session.edge_bo_fallbacks(), 1u);
  EXPECT_FALSE(session.activations().front().warm_start);
}

// The healthy-edge twin of the test above: a session whose pooled store
// always misses, so every local-miss activation runs one RemoteBo exchange.
struct RemoteBoProbe {
  EdgeClient client{no_jitter_client(), {}, {}, 0, {}, 0, 13};
  int fetches = 0;
  std::unique_ptr<app::MarApp> app;
  std::unique_ptr<core::MonitoredSession> session;

  RemoteBoProbe() {
    app = scenario::make_app(soc::find_builtin("Pixel 7"),
                             scenario::ObjectSet::SC2,
                             scenario::TaskSet::CF2, 77);
    core::MonitoredSessionConfig cfg;
    cfg.hbo.n_initial = 2;
    cfg.hbo.n_iterations = 2;
    cfg.hbo.selection_candidates = 1;
    cfg.hbo.control_period_s = 1.0;
    cfg.hbo.monitor_period_s = 1.0;
    cfg.reference_periods = 2;
    cfg.use_lookup_table = true;
    session = std::make_unique<core::MonitoredSession>(*app, cfg);
    core::SolutionStoreHooks hooks;
    hooks.fetch = [this](const core::EnvironmentKey&)
        -> std::optional<core::StoredSolution> {
      ++fetches;
      return std::nullopt;
    };
    session->set_solution_store(std::move(hooks));
    session->set_edge(&client);
    session->run_until(20.0);
  }
};

TEST(SessionEdge, RemoteBoExchangeMovesAFewBytesPerLocalMiss) {
  const RemoteBoProbe probe;
  ASSERT_GE(probe.fetches, 1);
  const EdgeClientStats& st = probe.client.stats();
  // One exchange per store fetch, every one served, none fell back.
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(probe.fetches));
  EXPECT_EQ(st.successes, st.requests);
  EXPECT_EQ(probe.session->edge_bo_fallbacks(), 0u);
  // Section VI: the exchange is "a few Bytes" — the (z, cost) uplink and
  // the next-configuration downlink, 48 + 40 bytes per iteration.
  EXPECT_EQ(st.payload_bytes, 88u * st.requests);
  EXPECT_LT(st.payload_bytes / st.requests, 256u);
}

TEST(SessionEdge, RemoteBoExchangeCostsOneSuggestPlusTheLinkTime) {
  const RemoteBoProbe probe;
  const EdgeClientStats& st = probe.client.stats();
  ASSERT_GE(st.requests, 1u);
  // Uncontended: each exchange is the server's one BO suggest plus the
  // default link's RTT and the 88-byte payload at its throughput.
  const double one = EdgeServerSpec{}.service_seconds(RequestClass::RemoteBo,
                                                      1.0) +
                     LinkModel{}.nominal_seconds(88);
  EXPECT_NEAR(st.total_elapsed_s, one * static_cast<double>(st.requests),
              1e-12);
  EXPECT_NEAR(one, 0.002 + 0.020 + 88.0 * 8.0 / 120e6, 1e-12);
}

// ---------------------------------------------------------------------------
// Fleet integration: shared edge box, bit-identical across thread counts

fleet::FleetSpec edge_fleet(std::size_t sessions, std::size_t threads) {
  fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.threads = threads;
  spec.duration_s = 12.0;
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 2;
  spec.session.hbo.selection_candidates = 1;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
  spec.session.reference_periods = 2;
  spec.scenarios = {{scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  spec.use_edge_service = true;
  spec.edge = edge_service_preset("wifi");
  return spec;
}

TEST(FleetEdge, PerSessionResultsAreThreadCountInvariantWithEdge) {
  const std::size_t kSessions = 12;
  fleet::FleetResult serial =
      fleet::FleetSimulator(edge_fleet(kSessions, 1)).run();
  fleet::FleetResult threaded =
      fleet::FleetSimulator(edge_fleet(kSessions, 4)).run();

  ASSERT_EQ(serial.sessions.size(), kSessions);
  ASSERT_EQ(threaded.sessions.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const fleet::SessionResult& a = serial.sessions[i];
    const fleet::SessionResult& b = threaded.sessions[i];
    EXPECT_EQ(a.mean_quality, b.mean_quality) << "session " << i;
    EXPECT_EQ(a.mean_latency_ratio, b.mean_latency_ratio) << "session " << i;
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "session " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "session " << i;
    // The stochastic edge interaction itself must replay bit-identically.
    EXPECT_EQ(a.edge_requests, b.edge_requests) << "session " << i;
    EXPECT_EQ(a.edge_retries, b.edge_retries) << "session " << i;
    EXPECT_EQ(a.edge_fallbacks, b.edge_fallbacks) << "session " << i;
    EXPECT_EQ(a.edge_rejected_attempts, b.edge_rejected_attempts)
        << "session " << i;
    EXPECT_EQ(a.edge_timeout_attempts, b.edge_timeout_attempts)
        << "session " << i;
  }

  // The roll-up reflects the edge interaction.
  EXPECT_TRUE(serial.metrics.edge.enabled);
  EXPECT_GT(serial.metrics.edge.requests, 0u);
  EXPECT_EQ(serial.metrics.edge.requests, threaded.metrics.edge.requests);
}

TEST(FleetEdge, DisabledEdgeLeavesHealthZeroed) {
  fleet::FleetSpec spec = edge_fleet(2, 1);
  spec.use_edge_service = false;
  fleet::FleetResult result = fleet::FleetSimulator(spec).run();
  EXPECT_FALSE(result.metrics.edge.enabled);
  EXPECT_EQ(result.metrics.edge.requests, 0u);
  EXPECT_EQ(result.sessions[0].edge_requests, 0u);
}

}  // namespace
}  // namespace hbosim
