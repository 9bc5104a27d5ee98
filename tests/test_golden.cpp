// Golden end-to-end digests: a committed FNV-1a digest of every simulated
// SessionResult field of a small canonical fleet. Any change that moves a
// simulated trajectory, even by one ulp in one session, changes the digest
// and fails here. A change that means to move behaviour updates the
// constant explicitly and says so in CHANGES.md.
//
// The digest was captured with GCC 12 on x86-64 (RelWithDebInfo), and the
// AVX-512 fastmath clones and the baseline x86-64 code (as built under
// ThreadSanitizer, which disables the clones) both reproduce it. The
// batched GP predict is specified only to ulp-level agreement across
// clones and compilers, so another toolchain may print a different
// digest; the failure message shows the value it computed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "hbosim/fleet/fleet_simulator.hpp"

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
  spec.policy.epoch_sessions = 4;

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

}  // namespace
}  // namespace hbosim
