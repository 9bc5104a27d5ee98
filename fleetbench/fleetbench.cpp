// fleetbench: the repository benchmark. Runs one named fleet workload
// through the public fleet::FleetSimulator API and prints its metrics.
//
//   fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up time
// (median of several set-ups), then runs that cycle through a fixed set
// of seed-derived fleets for --seconds, reporting host throughput, per-
// session wall percentiles, peak RSS and the simulated reward as
// reward_shortfall = 1 - B, with B = Q - w*eps the 5%-trimmed mean of
// per-session reward. B is negative and heavy-tailed under throttling, so
// neither its sign nor its plain mean (printed alongside) suits a relative
// bound. --trace 1 runs fleet 0
// untraced and then once under a telemetry::TelemetrySession, and reduces
// the spans and counters the library records into per-layer metrics. The
// two modes are separate invocations, so trace-ring memory never reaches
// the untraced run's peak RSS.
//
// Every session result is checked (finite, Q in [0,1], epsilon >= 0,
// simulated time > 0, at least one activation) and digested; the run is
// marked incorrect if the digest differs between repeats or between the
// traced and untraced runs. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hbosim/common/meminfo.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/common/thread_pool.hpp"
#include "hbosim/edgesvc/broker.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace {

using namespace hbosim;
using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: fleetbench --workload <hbo_prior|soak_power|edge_offload>\n"
    "                  --seed <n> --seconds <s> --trace <0|1>\n"
    "                  [--sessions <n>]\n"
    "\n"
    "  --workload  fleet workload to run (required)\n"
    "  --seed      workload seed; one seed gives one fleet (required)\n"
    "  --seconds   measurement time in seconds, 1..600 (required)\n"
    "  --trace     0: end-to-end metrics, untraced; 1: per-layer metrics\n"
    "              from a traced run (default 0)\n"
    "  --sessions  sessions per fleet run (default: 128)\n"
    "Fleets run on min(nproc, 4) worker threads.\n";

/// Simulated seconds every session runs for, in every workload.
constexpr double kSessionDurationS = 120.0;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "fleetbench: " << msg << "\n\n" << kUsage;
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  fleet::FleetSpec (*make)();
  /// Distinct fleets per untraced run. The run cycles through them for
  /// --seconds, and the reward metric pools all of their sessions. Per-
  /// session reward spreads widely under throttling, so the soak mixes
  /// pool more sessions to keep the seed-to-seed spread small.
  std::size_t fleets;
};

/// Sessions per fleet run, the same in both trace modes so that the two
/// modes of one seed simulate the same fleet and print the same digest.
/// About half a second to a second of host time on 4 threads, so a run of
/// --seconds holds many repeats to take medians over.
constexpr std::size_t kFleetSessions = 128;
/// Trace-ring budget per session (events): per-inference `ai` sim spans
/// dominate, measured at 15-18k per session on all three workloads.
constexpr std::size_t kTraceEventsPerSession = 20000;

fleet::FleetSpec base_spec() {
  fleet::FleetSpec spec;
  spec.duration_s = kSessionDurationS;
  spec.devices = {{"Pixel 7", 1.0}, {"Galaxy S22", 1.0}};
  // The pool makes warm starts depend on completion order; off, every
  // session is a pure function of (spec, seed), which the digest needs.
  spec.use_shared_pool = false;
  return spec;
}

/// Paper-default HBO with fleet-learned GP priors: BO-heavy, and the
/// Prior epochs put barriers between groups of 32 sessions.
fleet::FleetSpec hbo_prior_spec() {
  fleet::FleetSpec spec = base_spec();
  spec.policy.mode = fleet::PolicyMode::Prior;
  return spec;
}

void soak_mix(fleet::FleetSpec& spec) {
  spec.scenarios = {
      {scenario::ObjectSet::ThermalSoak, scenario::TaskSet::CF1, 1.0},
      {scenario::ObjectSet::SC2, scenario::TaskSet::CF2, 1.0}};
  spec.use_power_model = true;
  spec.power.ambient_c = 31.0;
  spec.power.initial_temp_c = 60.0;
  spec.session.hbo.control_period_s = 1.0;
  spec.session.hbo.monitor_period_s = 1.0;
}

/// Truncated HBO on the Off path with DVFS throttling: the simulated
/// phone (DES, processor sharing, AI engine, render, power) does most of
/// the work. The per-session lookup table lets throttle-driven
/// re-activations warm start.
fleet::FleetSpec soak_power_spec() {
  fleet::FleetSpec spec = base_spec();
  soak_mix(spec);
  spec.session.hbo.n_initial = 2;
  spec.session.hbo.n_iterations = 3;
  spec.session.use_lookup_table = true;
  return spec;
}

/// The 4-target CPU/GPU/NPU/edge simplex against a congested edge box,
/// with radio energy charged through the power model.
fleet::FleetSpec edge_offload_spec() {
  fleet::FleetSpec spec = base_spec();
  soak_mix(spec);
  spec.session.hbo.n_initial = 4;
  spec.session.hbo.n_iterations = 6;
  spec.session.hbo.w_energy = 0.05;
  spec.use_edge_service = true;
  spec.edge = edgesvc::edge_service_preset("congested");
  spec.offload.enabled = true;
  return spec;
}

constexpr Workload kWorkloads[] = {
    {"hbo_prior", hbo_prior_spec, 8},
    {"soak_power", soak_power_spec, 32},
    {"edge_offload", edge_offload_spec, 32},
};

// ---------------------------------------------------------------------------
// Command line

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t sessions = 0;  ///< 0: kFleetSessions.
  std::size_t threads = 0;   ///< min(nproc, 4).
};

std::uint64_t parse_uint(std::string_view flag, std::string_view text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || end != last || v < lo || v > hi) {
    usage_error(std::string(flag) + " expects a whole number in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
                std::string(text) + "'");
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::cout << kUsage;
      std::exit(0);
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--sessions") {
      usage_error("unknown argument '" + std::string(flag) + "'");
    }
    if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) opt.workload = &w;
      if (!opt.workload)
        usage_error("unknown workload '" + std::string(value) + "'");
    } else if (flag == "--seed") {
      opt.seed = parse_uint(flag, value, 0, UINT64_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_uint(flag, value, 1, 600));
      have_seconds = true;
    } else if (flag == "--trace") {
      opt.trace = parse_uint(flag, value, 0, 1) == 1;
    } else {
      opt.sessions = parse_uint(flag, value, 1, 1u << 20);
    }
  }
  if (!opt.workload) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  if (!have_seconds) usage_error("--seconds is required");
  if (opt.sessions == 0) opt.sessions = kFleetSessions;
  opt.threads = std::min<std::size_t>(ThreadPool::hardware_threads(), 4);
  return opt;
}

// ---------------------------------------------------------------------------
// Output checks and digest

/// FNV-1a over the bytes of every simulated SessionResult field.
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

/// Everything but wall_seconds, which is host time.
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

bool session_ok(const fleet::SessionResult& r) {
  const double values[] = {r.sim_seconds,     r.mean_quality,
                           r.mean_latency_ratio, r.mean_reward,
                           r.energy_j,        r.mean_power_w,
                           r.max_die_temp_c,  r.battery_soc,
                           r.offload_rate,    r.mean_edge_share,
                           r.radio_energy_j,  r.edge_elapsed_s};
  for (double v : values)
    if (!std::isfinite(v)) return false;
  return r.mean_quality >= 0.0 && r.mean_quality <= 1.0 &&
         r.mean_latency_ratio >= 0.0 && r.sim_seconds > 0.0 &&
         r.activations >= 1;
}

/// One fleet run's outcome: its results (empty if run() threw), how many
/// sessions failed, and the digest of the results.
struct RunOutcome {
  fleet::FleetResult result;
  double wall_s = 0.0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  bool threw = false;
};

RunOutcome run_fleet(fleet::FleetSimulator& sim) {
  RunOutcome out;
  const auto t0 = Clock::now();
  try {
    out.result = sim.run();
  } catch (const std::exception& e) {
    std::cerr << "fleetbench: fleet run failed: " << e.what() << "\n";
    out.threw = true;
  }
  out.wall_s = seconds_since(t0);
  const std::size_t n = sim.spec().sessions;
  if (out.threw || out.result.sessions.size() != n) {
    out.failed = n;
    return out;
  }
  Digest d;
  for (const fleet::SessionResult& r : out.result.sessions) {
    if (!session_ok(r)) ++out.failed;
    digest_session(d, r);
  }
  out.digest = d.value();
  return out;
}

// ---------------------------------------------------------------------------
// Statistics and output

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean of `v` without its lowest and highest 5%.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 20;
  double sum = 0.0;
  for (std::size_t i = cut; i + cut < v.size(); ++i) sum += v[i];
  return ratio(sum, static_cast<double>(v.size() - 2 * cut));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Host and build stamp, one JSON line ahead of the result.
void print_stamp(const Options& opt) {
  const char* git = std::getenv("FLEETBENCH_GIT_DESCRIBE");
  std::cout << "stamp {\"nproc\": " << ThreadPool::hardware_threads()
            << ", \"threads\": " << opt.threads << ", \"cpu\": \""
            << json_escape(cpu_model()) << "\", \"compiler\": \""
            << json_escape(FLEETBENCH_COMPILER) << "\", \"build_type\": \""
            << FLEETBENCH_BUILD_TYPE << "\", \"git_describe\": \""
            << json_escape(git && *git ? git : "unknown")
            << "\", \"workload\": \"" << opt.workload->name
            << "\", \"seed\": " << opt.seed << ", \"sessions\": "
            << opt.sessions << ", \"sim_seconds_per_session\": "
            << kSessionDurationS << ", \"trace\": " << (opt.trace ? 1 : 0)
            << "}\n";
}

/// Prints each metric as a line, then the result JSON. A non-finite
/// value marks the run incorrect (JSON cannot carry it; it prints as 0).
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
    correct = correct && std::isfinite(m.value);
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << num(v) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// Set-up

/// Seed of the warm-up fleet: the same warm-up work in every run.
constexpr std::uint64_t kWarmUpSeed = 0x57A27E0F1EE70001ull;

/// Fleet k's base seed, a pure function of (--seed, k).
std::uint64_t fleet_seed(std::uint64_t seed, std::size_t k) {
  SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ull * (k + 1)));
  return mix.next();
}

fleet::FleetSpec make_spec(const Options& opt, std::size_t sessions,
                           std::uint64_t base_seed) {
  fleet::FleetSpec spec = opt.workload->make();
  spec.sessions = sessions;
  spec.threads = opt.threads;
  spec.base_seed = base_seed;
  return spec;
}

/// Builds the specs and simulators of the first `fleets` fleets, then runs
/// a one-session-per-worker warm-up fleet so allocator and thread start-up
/// costs land here rather than in the first measured run.
std::vector<fleet::FleetSimulator> set_up(const Options& opt,
                                          std::size_t fleets) {
  std::vector<fleet::FleetSimulator> sims;
  sims.reserve(fleets);
  for (std::size_t k = 0; k < fleets; ++k)
    sims.emplace_back(make_spec(opt, opt.sessions, fleet_seed(opt.seed, k)));
  fleet::FleetSimulator warm(make_spec(opt, opt.threads, kWarmUpSeed));
  warm.run();
  return sims;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Untraced run

int run_untraced(const Options& opt) {
  const std::size_t fleets = opt.workload->fleets;
  std::vector<double> setups;
  std::vector<fleet::FleetSimulator> sims;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    sims = set_up(opt, fleets);
    setups.push_back(seconds_since(t0));
  }

  // At least fleets + 1 runs, so every fleet runs and fleet 0 runs twice.
  std::vector<double> throughputs, session_walls;
  std::vector<std::optional<std::uint64_t>> digests(fleets);
  std::size_t attempted = 0, failed = 0, runs = 0;
  std::vector<double> rewards;
  bool stable = true;
  const auto start = Clock::now();
  for (; runs <= fleets || seconds_since(start) < opt.seconds; ++runs) {
    const std::size_t k = runs % fleets;
    const RunOutcome r = run_fleet(sims[k]);
    attempted += opt.sessions;
    failed += r.failed;
    if (r.threw) {
      stable = false;
      continue;
    }
    if (!digests[k]) {
      digests[k] = r.digest;
      for (const fleet::SessionResult& s : r.result.sessions)
        rewards.push_back(s.mean_reward);
    } else if (*digests[k] != r.digest) {
      stable = false;
    }
    throughputs.push_back(static_cast<double>(opt.sessions) / r.wall_s);
    for (const fleet::SessionResult& s : r.result.sessions)
      session_walls.push_back(s.wall_seconds * 1e3);
  }
  double reward_sum = 0.0;
  for (double b : rewards) reward_sum += b;
  const double reward_mean =
      ratio(reward_sum, static_cast<double>(rewards.size()));

  std::cout << "digest fleet0 " << (digests[0] ? hex(*digests[0]) : "none")
            << "\ndigests " << (stable ? "stable" : "UNSTABLE") << " over "
            << runs << " runs of " << fleets << " fleets of " << opt.sessions
            << " sessions\n"
            << "samples session_wall_ms " << session_walls.size()
            << ", sessions_per_s " << throughputs.size() << ", setup_s "
            << setups.size() << ", reward " << rewards.size() << " sessions\n"
            << "failed_session_frac " << num(ratio(failed, attempted))
            << " (" << failed << " of " << attempted << ")\n"
            << "reward_mean " << num(reward_mean)
            << " (B = Q - w*eps; mean over sessions)\n";
  print_result(stable && failed == 0 && rewards.size() == fleets * opt.sessions,
               attempted, failed,
               {{"sessions_per_s", percentile(throughputs, 50), "1/s"},
                {"session_wall_ms_p50", percentile(session_walls, 50), "ms"},
                {"session_wall_ms_p99", percentile(session_walls, 99), "ms"},
                {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) /
                                    (1024.0 * 1024.0), "MB"},
                {"setup_s", percentile(setups, 50), "s"},
                {"reward_shortfall", 1.0 - trimmed_mean(rewards), "reward"}});
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run

/// Wall-time totals reduced from the recorded scopes (nanoseconds).
struct SpanTotals {
  std::uint64_t session_ns = 0, sessions = 0;
  std::uint64_t bo_ns = 0, policy_ns = 0, sim_self_ns = 0;  // in sessions
  std::uint64_t suggest_ns = 0, tell_ns = 0;
  std::uint64_t score_self_ns = 0, candidates_self_ns = 0, fit_self_ns = 0;
  std::uint64_t snapshot_ns = 0, epoch_ns = 0, epochs = 0;
};

/// Rebuilds each thread's scope nesting from interval containment and
/// splits every session's wall time into bo.*, policy.* and the rest
/// ("sim": self time of the session span and of every other span under
/// it, i.e. the simulated phone).
SpanTotals reduce_spans(const std::vector<telemetry::ThreadSnapshot>& threads) {
  struct Open {
    const telemetry::TraceEvent* ev;
    std::uint64_t end, child_ns = 0;
    bool in_session, in_named;  // self/ancestor is a session; a bo/policy span
  };
  SpanTotals t;
  for (const telemetry::ThreadSnapshot& th : threads) {
    std::vector<const telemetry::TraceEvent*> scopes;
    for (const telemetry::TraceEvent& ev : th.events)
      if (ev.kind == telemetry::EventKind::Scope) scopes.push_back(&ev);
    std::sort(scopes.begin(), scopes.end(), [](auto* a, auto* b) {
      if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
      return a->dur_ns > b->dur_ns;
    });
    std::vector<Open> stack;
    auto close = [&t, &stack] {
      const Open o = stack.back();
      stack.pop_back();
      const std::uint64_t self =
          o.ev->dur_ns - std::min(o.child_ns, o.ev->dur_ns);
      const std::string_view name = o.ev->name;
      if (name == "bo.score") t.score_self_ns += self;
      if (name == "bo.candidates") t.candidates_self_ns += self;
      if (name == "bo.fit") t.fit_self_ns += self;
      if (o.in_session && !o.in_named) t.sim_self_ns += self;
    };
    for (const telemetry::TraceEvent* ev : scopes) {
      const std::uint64_t end = ev->ts_ns + ev->dur_ns;
      while (!stack.empty() && stack.back().end < end) close();
      const Open* parent = stack.empty() ? nullptr : &stack.back();
      const std::string_view name = ev->name;
      const bool session = std::string_view(ev->cat) == "fleet" &&
                           name.starts_with("session ");
      const bool bo = name.starts_with("bo.");
      const bool named = bo || name.starts_with("policy.");
      const bool in_session = session || (parent && parent->in_session);
      const bool parent_named = parent && parent->in_named;
      if (parent) stack.back().child_ns += ev->dur_ns;

      if (session) {
        t.session_ns += ev->dur_ns;
        ++t.sessions;
      }
      if (name == "bo.suggest") t.suggest_ns += ev->dur_ns;
      if (name == "bo.tell") t.tell_ns += ev->dur_ns;
      if (name == "policy.snapshot") t.snapshot_ns += ev->dur_ns;
      if (name == "fleet.policy_epoch") {
        t.epoch_ns += ev->dur_ns;
        ++t.epochs;
      }
      if (in_session && named && !parent_named) {
        (bo ? t.bo_ns : t.policy_ns) += ev->dur_ns;
      }
      stack.push_back(Open{ev, end, 0, in_session, named || parent_named});
    }
    while (!stack.empty()) close();
  }
  return t;
}

double counter(const telemetry::MetricsSnapshot& m, std::string_view name) {
  const telemetry::MetricValue* v = m.find(name);
  return v ? v->value : 0.0;
}

int run_traced(const Options& opt) {
  fleet::FleetSimulator sim = std::move(set_up(opt, 1).front());

  // Untraced reference: wall time for the overhead figure, and the digest
  // the traced run must reproduce.
  std::vector<double> walls;
  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  std::optional<std::uint64_t> digest;
  const auto start = Clock::now();
  do {
    const RunOutcome r = run_fleet(sim);
    attempted += opt.sessions;
    failed += r.failed;
    walls.push_back(r.wall_s);
    if (r.threw) correct = false;
    else if (!digest) digest = r.digest;
    else if (*digest != r.digest) correct = false;
  } while (seconds_since(start) < opt.seconds / 2.0 || walls.size() < 2);

  // Each worker records its sessions into its own ring; size the rings for
  // 1.5x a fair share of the fleet so an unlucky worker still fits.
  telemetry::TelemetryConfig tcfg;
  const std::size_t share = (opt.sessions + opt.threads - 1) / opt.threads;
  tcfg.events_per_thread = std::bit_ceil(
      std::max<std::size_t>(3 * share * kTraceEventsPerSession / 2, 1 << 16));
  RunOutcome traced;
  SpanTotals spans;
  telemetry::MetricsSnapshot counters;
  std::uint64_t recorded = 0, dropped = 0;
  {
    telemetry::TelemetrySession session(tcfg);
    traced = run_fleet(sim);
    spans = reduce_spans(session.snapshot());
    counters = session.metrics().snapshot();
    recorded = session.events_recorded();
    dropped = session.events_dropped();
  }
  attempted += opt.sessions;
  failed += traced.failed;
  if (traced.threw || !digest || traced.digest != *digest) correct = false;

  const std::uint64_t accounted =
      spans.bo_ns + spans.policy_ns + spans.sim_self_ns;
  const bool accounts =
      accounted == spans.session_ns && spans.sessions == opt.sessions;
  if (!accounts || dropped != 0) correct = false;

  const fleet::FleetMetrics& fm = traced.result.metrics;
  std::uint64_t throttle_events = 0;
  for (const fleet::SessionResult& s : traced.result.sessions)
    throttle_events += s.throttle_events;
  const double ms = 1e-6;
  const double session_ms = static_cast<double>(spans.session_ns) * ms;
  const double sim_self_ms = static_cast<double>(spans.sim_self_ns) * ms;
  const double des_events = counter(counters, "des.events_executed");
  const double edge_requests = counter(counters, "edge.requests");
  const telemetry::MetricValue* response =
      counters.find("edge.response_sim_us");
  const double untraced_wall = percentile(walls, 50);

  std::cout << "digest fleet0 " << (digest ? hex(*digest) : "none")
            << "\ndigest traced "
            << (traced.threw ? "none" : hex(traced.digest))
            << (digest && !traced.threw && traced.digest == *digest
                    ? " (== untraced)"
                    : " (MISMATCH)")
            << "\n"
            << "accounting bo " << num(spans.bo_ns * ms) << " + policy "
            << num(spans.policy_ns * ms) << " + sim " << num(sim_self_ms)
            << " = " << num(accounted * ms) << " ms of " << num(session_ms)
            << " ms session wall over " << spans.sessions << " session spans"
            << (accounts ? "" : " (MISMATCH)") << "\n"
            << "trace events " << recorded << " recorded, " << dropped
            << " dropped, ring " << tcfg.events_per_thread << " per thread\n"
            << "untraced reference " << walls.size() << " runs, median wall "
            << num(untraced_wall) << " s; traced wall " << num(traced.wall_s)
            << " s\n";
  print_result(
      correct && failed == 0, attempted, failed,
      {{"bo.suggests", counter(counters, "bo.suggests"), "count"},
       {"bo.suggest_ms", spans.suggest_ns * ms, "ms"},
       {"bo.score_self_ms", spans.score_self_ns * ms, "ms"},
       {"bo.candidates_self_ms", spans.candidates_self_ns * ms, "ms"},
       {"bo.fit_self_ms", spans.fit_self_ns * ms, "ms"},
       {"bo.tell_ms", spans.tell_ns * ms, "ms"},
       {"bo.share", ratio(spans.bo_ns, spans.session_ns), "fraction"},
       {"policy.snapshot_ms", spans.snapshot_ns * ms, "ms"},
       {"policy.prior_injected", counter(counters, "policy.prior_injected"),
        "count"},
       {"fleet.idle_frac",
        1.0 - ratio(session_ms * 1e-3, opt.threads * traced.wall_s),
        "fraction"},
       {"fleet.epochs", static_cast<double>(spans.epochs), "count"},
       {"fleet.epoch_ms", ratio(spans.epoch_ns * ms, spans.epochs), "ms"},
       {"core.activations", counter(counters, "hbo.activations"), "count"},
       {"core.periods", counter(counters, "hbo.periods"), "count"},
       {"core.warm_start_hits", counter(counters, "hbo.warm_start_hits"),
        "count"},
       {"sim.self_ms", sim_self_ms, "ms"},
       {"sim.share", ratio(spans.sim_self_ns, spans.session_ns), "fraction"},
       {"des.events", des_events, "count"},
       {"des.ps_jobs", counter(counters, "ps.jobs_submitted"), "count"},
       {"ai.inferences", counter(counters, "ai.inferences"), "count"},
       {"sim.ns_per_event", ratio(sim_self_ms * 1e6, des_events), "ns"},
       {"power.throttle_events", static_cast<double>(throttle_events), "count"},
       {"power.throttled_session_frac", fm.power.throttled_session_fraction,
        "fraction"},
       {"edgesvc.requests", edge_requests, "count"},
       {"edgesvc.retries", counter(counters, "edge.retries"), "count"},
       {"edgesvc.fallback_frac",
        ratio(counter(counters, "edge.fallbacks"), edge_requests), "fraction"},
       {"edgesvc.response_sim_ms_p50",
        response ? response->hist.p50 * 1e-3 : 0.0, "sim_ms"},
       {"offload.exchanges", counter(counters, "offload.exchanges"), "count"},
       {"offload.remote_frac", fm.offload.offload_rate, "fraction"},
       {"offload.fallbacks", static_cast<double>(fm.offload.fallbacks),
        "count"},
       {"telemetry.overhead_frac", ratio(traced.wall_s, untraced_wall) - 1.0,
        "fraction"},
       {"telemetry.dropped_events", static_cast<double>(dropped), "count"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    print_stamp(opt);
    return opt.trace ? run_traced(opt) : run_untraced(opt);
  } catch (const std::exception& e) {
    std::cerr << "fleetbench: " << e.what() << "\n";
    return 1;
  }
}
