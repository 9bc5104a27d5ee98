// BO surrogate bench: suggest()/tell() latency of the optimizer's
// incremental GP path (cached distance matrix, rank-1 Cholesky growth,
// batched allocation-free predict) against the full-refit oracle of the
// test suite (tests/support/full_refit_oracle.hpp: every grid GP refit
// from scratch per suggest, one scalar predict per candidate), plus the
// wall clock of a small single-threaded fleet.
//
// Not a paper artefact — this measures the optimizer engine itself. The
// acceptance bar for the incremental path is >= 5x on suggest() at n = 64
// observations with the default 3-point length-scale grid.
//
// Usage: see kUsage below, or run `bench_bo --help`.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/fleet/fleet_simulator.hpp"
#include "support/full_refit_oracle.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Smooth synthetic cost over the HBO domain (same shape the optimizer
/// tests use); the bench only needs something finite and non-constant.
double synthetic_cost(std::span<const double> z) {
  const std::vector<double> target = {0.6, 0.1, 0.3, 0.7};
  const double d = hbosim::euclidean_distance(z, target);
  return d * d;
}

/// An optimizer (or the oracle) pre-loaded with n observations and warmed
/// by one suggest(), ready for suggest() timing.
template <class Opt>
Opt warmed(std::size_t n, hbosim::Rng& rng) {
  Opt opt(hbosim::bo::SimplexBoxSpace(3, 0.2, 1.0));
  for (std::size_t i = 0; i < n; ++i) {
    const auto z = opt.space().sample(rng);
    opt.tell(z, synthetic_cost(z));
  }
  (void)opt.suggest(rng);  // builds the optimizer's live surrogates once
  return opt;
}

/// Mean microseconds per suggest() call, repeated until `min_seconds` of
/// work has accumulated (at least 3 calls).
template <class Opt>
double time_suggest_us(Opt& opt, hbosim::Rng& rng, double min_seconds) {
  double sink = 0.0;
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (reps < 3 || elapsed < min_seconds) {
    sink += opt.suggest(rng)[0];
    ++reps;
    elapsed = seconds_since(t0);
  }
  if (sink < -1.0) std::cout << "";  // keep the work observable
  return elapsed / reps * 1e6;
}

double fleet_wall_seconds(std::size_t sessions) {
  hbosim::fleet::FleetSpec spec;
  spec.sessions = sessions;
  spec.duration_s = 20.0;
  spec.threads = 1;  // single worker: wall time == optimizer + sim CPU work
  spec.session.hbo.n_initial = 5;
  spec.session.hbo.n_iterations = 15;
  const auto t0 = Clock::now();
  (void)hbosim::fleet::FleetSimulator(spec).run();
  return seconds_since(t0);
}

constexpr const char* kUsage =
    "usage: bench_bo [--smoke] [--json <path>]\n"
    "  --smoke   smaller sizes and shorter repetitions (CI)\n"
    "  --json    write a machine-readable summary (default: BENCH_bo.json)\n";

constexpr benchutil::Cli kCli{"bench_bo", kUsage, "BENCH_bo.json"};

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse_args(kCli, argc, argv);
  const bool smoke = args.smoke;
  const std::string& json_path = args.json_path;

  benchutil::banner("bench_bo",
                    "incremental GP surrogate vs the full-refit oracle");
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{8, 64}
            : std::vector<std::size_t>{8, 16, 32, 64, 128};
  const double min_seconds = smoke ? 0.05 : 0.4;

  // --- suggest() latency vs database size ---------------------------------
  benchutil::section("suggest() latency (3-point length-scale grid)");
  std::cout << "        n   full_us   incr_us   speedup\n" << std::fixed;
  struct Row {
    std::size_t n;
    double full_us, incr_us;
  };
  std::vector<Row> rows;
  double speedup_at_64 = 0.0;
  for (std::size_t n : sizes) {
    hbosim::Rng rng_full(1000 + n), rng_incr(1000 + n);
    auto full = warmed<hbosim::testsupport::FullRefitOracle>(n, rng_full);
    auto incr = warmed<hbosim::bo::BayesianOptimizer>(n, rng_incr);
    const double full_us = time_suggest_us(full, rng_full, min_seconds);
    const double incr_us = time_suggest_us(incr, rng_incr, min_seconds);
    rows.push_back({n, full_us, incr_us});
    const double speedup = full_us / incr_us;
    if (n == 64) speedup_at_64 = speedup;
    std::cout << "  " << std::setw(7) << n << std::setprecision(1)
              << std::setw(10) << full_us << std::setw(10) << incr_us
              << std::setprecision(2) << std::setw(10) << speedup << "\n";
  }

  // --- tell() latency (incremental bookkeeping) ---------------------------
  benchutil::section("tell() latency while growing 64 -> 128 observations");
  double tell_us = 0.0;
  {
    hbosim::Rng rng(77);
    auto opt = warmed<hbosim::bo::BayesianOptimizer>(64, rng);
    std::vector<std::vector<double>> zs;
    for (int i = 0; i < 64; ++i) zs.push_back(opt.space().sample(rng));
    const auto t0 = Clock::now();
    for (const auto& z : zs) opt.tell(z, synthetic_cost(z));
    tell_us = seconds_since(t0) / 64.0 * 1e6;
    std::cout << "  incremental tell(): " << std::setprecision(1) << tell_us
              << " us/observation (distance row + 3 bordered updates)\n";
  }

  // --- end-to-end fleet wall-clock ----------------------------------------
  const std::size_t fleet_sessions = smoke ? 8 : 48;
  benchutil::section("end-to-end fleet wall-clock (" +
                     std::to_string(fleet_sessions) + " sessions, 1 thread)");
  const double fleet_s = fleet_wall_seconds(fleet_sessions);
  std::cout << std::setprecision(2) << "  wall clock: " << fleet_s << " s\n";

  benchutil::section("recap");
  benchutil::recap_line("suggest speedup @ n=64", ">= 5x",
                        std::to_string(speedup_at_64) + "x");

  // --- machine-readable summary -------------------------------------------
  std::ofstream json(json_path);
  json << std::setprecision(6) << std::fixed;
  json << "{\n  \"bench\": \"bench_bo\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"suggest\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"n\": " << rows[i].n << ", \"full_us\": " << rows[i].full_us
         << ", \"incremental_us\": " << rows[i].incr_us << ", \"speedup\": "
         << rows[i].full_us / rows[i].incr_us << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"tell_incremental_us\": " << tell_us
       << ",\n  \"fleet\": {\"sessions\": " << fleet_sessions
       << ", \"threads\": 1, \"wall_s\": " << fleet_s << "}\n}\n";
  std::cout << "\nJSON summary written to " << json_path << "\n";

  return speedup_at_64 >= 5.0 || smoke ? 0 : 1;
}
