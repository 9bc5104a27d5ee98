// Tests for the Bayesian optimizer on synthetic black-box functions.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "hbosim/bo/optimizer.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/telemetry/telemetry.hpp"
#include "support/full_refit_oracle.hpp"

namespace hbosim::bo {
namespace {

/// A smooth synthetic cost over the HBO domain with a known minimizer:
/// prefers c ~ (0.6, 0.1, 0.3) and x ~ 0.7.
double synthetic_cost(std::span<const double> z) {
  const std::vector<double> target = {0.6, 0.1, 0.3, 0.7};
  const double d = euclidean_distance(z, target);
  return d * d;
}

TEST(Optimizer, InitializationPhaseIsRandomFeasible) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(1);
  EXPECT_TRUE(opt.in_initialization());
  for (int i = 0; i < opt.config().n_initial; ++i) {
    const auto z = opt.suggest(rng);
    EXPECT_TRUE(opt.space().contains(z, 1e-9));
    opt.tell(z, synthetic_cost(z));
  }
  EXPECT_FALSE(opt.in_initialization());
}

TEST(Optimizer, SuggestionsStayFeasibleAfterModelKicksIn) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(2);
  for (int i = 0; i < 15; ++i) {
    const auto z = opt.suggest(rng);
    EXPECT_TRUE(opt.space().contains(z, 1e-9));
    opt.tell(z, synthetic_cost(z));
  }
}

TEST(Optimizer, BeatsTheRandomPhaseOnASmoothFunction) {
  // Property: after BO iterations, the incumbent must improve on the best
  // random initial sample (averaged over seeds to be robust).
  int improved = 0;
  for (int seed = 0; seed < 5; ++seed) {
    BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
    Rng rng(100 + seed);
    double best_random = 1e9;
    for (int i = 0; i < opt.config().n_initial; ++i) {
      const auto z = opt.suggest(rng);
      const double c = synthetic_cost(z);
      best_random = std::min(best_random, c);
      opt.tell(z, c);
    }
    for (int i = 0; i < 15; ++i) {
      const auto z = opt.suggest(rng);
      opt.tell(z, synthetic_cost(z));
    }
    if (opt.best().cost < best_random - 1e-6) ++improved;
  }
  EXPECT_GE(improved, 4);
}

TEST(Optimizer, FindsTheNeighborhoodOfTheMinimum) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const auto z = opt.suggest(rng);
    opt.tell(z, synthetic_cost(z));
  }
  EXPECT_LT(opt.best().cost, 0.05);  // within ~0.22 of the target point
}

TEST(Optimizer, BestTracksTheMinimumCostObservation) {
  BayesianOptimizer opt(SimplexBoxSpace(2, 0.2, 1.0));
  EXPECT_THROW(opt.best(), hbosim::Error);
  opt.tell({0.5, 0.5, 0.5}, 3.0);
  opt.tell({0.4, 0.6, 0.7}, 1.0);
  opt.tell({0.2, 0.8, 0.9}, 2.0);
  EXPECT_DOUBLE_EQ(opt.best().cost, 1.0);
  EXPECT_EQ(opt.observation_count(), 3u);
}

TEST(Optimizer, TellValidatesConstraintsAndFiniteness) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  EXPECT_THROW(opt.tell({0.9, 0.9, 0.9, 0.5}, 1.0), hbosim::Error);  // sum
  EXPECT_THROW(opt.tell({0.3, 0.3, 0.4, 0.05}, 1.0), hbosim::Error);  // box
  EXPECT_THROW(opt.tell({0.3, 0.3, 0.4, 0.5},
                        std::numeric_limits<double>::quiet_NaN()),
               hbosim::Error);
  EXPECT_NO_THROW(opt.tell({0.3, 0.3, 0.4, 0.5}, 1.0));
}

TEST(Optimizer, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
    Rng rng(seed);
    std::vector<double> last;
    for (int i = 0; i < 12; ++i) {
      last = opt.suggest(rng);
      opt.tell(last, synthetic_cost(last));
    }
    return last;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Optimizer, AllKernelKindsProduceFeasibleSuggestions) {
  for (auto kind :
       {KernelKind::Matern52, KernelKind::Matern32, KernelKind::Rbf}) {
    BoConfig cfg;
    cfg.kernel = kind;
    BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0), cfg);
    Rng rng(5);
    for (int i = 0; i < 10; ++i) {
      const auto z = opt.suggest(rng);
      EXPECT_TRUE(opt.space().contains(z, 1e-9));
      opt.tell(z, synthetic_cost(z));
    }
  }
}

TEST(Optimizer, AllAcquisitionsProduceFeasibleSuggestions) {
  for (auto kind : {AcquisitionKind::ExpectedImprovement,
                    AcquisitionKind::ProbabilityOfImprovement,
                    AcquisitionKind::LowerConfidenceBound}) {
    BoConfig cfg;
    cfg.acquisition = kind;
    BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0), cfg);
    Rng rng(6);
    for (int i = 0; i < 10; ++i) {
      const auto z = opt.suggest(rng);
      EXPECT_TRUE(opt.space().contains(z, 1e-9));
      opt.tell(z, synthetic_cost(z));
    }
  }
}

TEST(Optimizer, ConstantCostsDoNotCrashStandardization) {
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    const auto z = opt.suggest(rng);
    opt.tell(z, 1.0);  // zero variance in y
  }
  EXPECT_NO_THROW(opt.suggest(rng));
}

TEST(Optimizer, PinnedBoxSearchesOnlyTheSimplex) {
  // The BNT configuration: x pinned to 1.
  BayesianOptimizer opt(SimplexBoxSpace(3, 1.0, 1.0));
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    const auto z = opt.suggest(rng);
    EXPECT_DOUBLE_EQ(z[3], 1.0);
    opt.tell(z, synthetic_cost(z));
  }
}

/// Suggestion sequence of `Opt` (the optimizer or the full-refit oracle)
/// over `iterations` suggest/tell rounds on seed `seed`.
template <class Opt>
std::vector<std::vector<double>> suggestion_run(const BoConfig& cfg,
                                                std::uint64_t seed,
                                                int iterations) {
  Opt opt(SimplexBoxSpace(3, 0.2, 1.0), cfg);
  Rng rng(seed);
  std::vector<std::vector<double>> suggestions;
  for (int i = 0; i < iterations; ++i) {
    auto z = opt.suggest(rng);
    opt.tell(z, synthetic_cost(z));
    suggestions.push_back(std::move(z));
  }
  return suggestions;
}

TEST(Optimizer, IncrementalMatchesFullRefitSuggestionSequence) {
  // The headline equivalence property of the incremental surrogate path:
  // on the same seed, the suggestion sequence must match a from-scratch
  // refit per suggest to tight tolerance (they share every RNG call and
  // the same surrogate math; only the batched exp may differ by ulps).
  const auto fast = suggestion_run<BayesianOptimizer>(BoConfig{}, 4242, 30);
  const auto slow =
      suggestion_run<testsupport::FullRefitOracle>(BoConfig{}, 4242, 30);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_EQ(fast[i].size(), slow[i].size()) << "iteration " << i;
    for (std::size_t j = 0; j < fast[i].size(); ++j)
      EXPECT_NEAR(fast[i][j], slow[i][j], 1e-8)
          << "iteration " << i << " coord " << j;
  }
}

TEST(Optimizer, IncrementalMatchesAcrossKernelsAndAcquisitions) {
  for (auto kernel :
       {KernelKind::Matern52, KernelKind::Matern32, KernelKind::Rbf}) {
    for (auto acq : {AcquisitionKind::ExpectedImprovement,
                     AcquisitionKind::LowerConfidenceBound}) {
      BoConfig cfg;
      cfg.kernel = kernel;
      cfg.acquisition = acq;
      const auto fast = suggestion_run<BayesianOptimizer>(cfg, 99, 12).back();
      const auto slow =
          suggestion_run<testsupport::FullRefitOracle>(cfg, 99, 12).back();
      ASSERT_EQ(fast.size(), slow.size());
      for (std::size_t j = 0; j < fast.size(); ++j)
        EXPECT_NEAR(fast[j], slow[j], 1e-8)
            << kernel_kind_name(kernel) << " coord " << j;
    }
  }
}

TEST(Optimizer, BestMatchesFullRescan) {
  // best() is O(1) via the incumbent index; it must always agree with a
  // front-to-back scan, including the first-minimum tie rule.
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const auto z = opt.space().sample(rng);
    // Coarse costs so duplicates (ties) actually occur.
    const double cost = std::floor(synthetic_cost(z) * 4.0);
    opt.tell(z, cost);
    const auto& data = opt.observations();
    std::size_t scan = 0;
    for (std::size_t k = 1; k < data.size(); ++k)
      if (data[k].cost < data[scan].cost) scan = k;
    EXPECT_EQ(opt.best().z, data[scan].z) << "after " << i + 1 << " tells";
    EXPECT_DOUBLE_EQ(opt.best().cost, data[scan].cost);
  }
}

TEST(Optimizer, SetKernelInvalidatesLiveSurrogates) {
  // Swapping the kernel mid-run must rebuild the incremental surrogates
  // (from the still-valid distance cache) instead of reusing stale ones.
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0));
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    const auto z = opt.suggest(rng);
    opt.tell(z, synthetic_cost(z));
  }
  opt.set_kernel(std::make_unique<Rbf>(0.5));
  for (int i = 0; i < 5; ++i) {
    const auto z = opt.suggest(rng);
    EXPECT_TRUE(opt.space().contains(z, 1e-9));
    opt.tell(z, synthetic_cost(z));
  }
}

// ---------------------------------------------------------------------------
// Prior screen: suggest() with a learned prior scores candidates with the
// batched mean_many() and confirms only the possible winners with the
// exact mean(). These tests pin that the chosen point is bitwise the one
// an exhaustive exact loop picks, whatever the batched path returns
// within its declared tolerance.

/// Test priors over one smooth mean function, quantized to multiples of
/// 2^-20 so that m +- 2^-12 is exact in floating point. Variants differ
/// only in how mean_many() answers and what tolerance it declares.
class GridPrior : public SurrogatePrior {
 public:
  enum class Mode {
    Exact,       ///< default mean_many (loops mean()), tolerance 0
    Exhaustive,  ///< exact values, tolerance so wide every candidate
                 ///< survives the screen: the exhaustive exact loop
    Adversarial  ///< off by exactly +-kTol, sign varying per candidate
  };
  static constexpr double kTol = 1.0 / 4096.0;

  explicit GridPrior(Mode mode) : mode_(mode) {}

  double mean(std::span<const double> z) const override {
    const double f =
        0.8 * std::sin(3.0 * z[0] + 1.0) + 0.5 * z[1] * z[2] - 0.4 * z[3];
    return std::round(f * 1048576.0) / 1048576.0;
  }
  void mean_many(std::span<const double> zs_flat, std::size_t count,
                 std::span<double> out,
                 std::vector<double>& scratch) const override {
    SurrogatePrior::mean_many(zs_flat, count, out, scratch);
    if (mode_ != Mode::Adversarial) return;
    for (std::size_t c = 0; c < count; ++c) {
      const auto q = static_cast<long long>(std::llround(out[c] * 1048576.0));
      out[c] += ((q + static_cast<long long>(c)) % 2 == 0) ? kTol : -kTol;
    }
  }
  double mean_many_tolerance() const override {
    switch (mode_) {
      case Mode::Exact: return 0.0;
      case Mode::Exhaustive: return 1e3;
      case Mode::Adversarial: return kTol;
    }
    return 0.0;
  }

 private:
  Mode mode_;
};

std::vector<std::vector<double>> prior_run(GridPrior::Mode mode,
                                           AcquisitionKind acq,
                                           std::uint64_t seed, double xi) {
  BoConfig cfg;
  cfg.n_initial = 4;
  cfg.acquisition = acq;
  cfg.acq_params.xi = xi;
  cfg.prior = std::make_shared<GridPrior>(mode);
  BayesianOptimizer opt(SimplexBoxSpace(3, 0.2, 1.0), cfg);
  Rng rng(seed);
  std::vector<std::vector<double>> suggestions;
  for (int i = 0; i < 14; ++i) {
    auto z = opt.suggest(rng);
    // The residual the GP sees is cost - prior mean: keep it non-trivial.
    opt.tell(z, synthetic_cost(z) + 0.3 * std::cos(5.0 * z[1]));
    suggestions.push_back(std::move(z));
  }
  return suggestions;
}

/// Candidates re-scored with the exact mean() during f(), read from the
/// optimizer's bo.prior_confirms counter.
template <typename F>
double confirms_during(F&& f) {
  telemetry::TelemetrySession session;
  f();
  const telemetry::MetricsSnapshot snap = session.metrics().snapshot();
  const telemetry::MetricValue* m = snap.find("bo.prior_confirms");
  return m ? m->value : 0.0;
}

// 14 suggests minus 4 initialization draws, 576 candidates each.
constexpr double kAllCandidates = 10.0 * 576.0;

TEST(OptimizerPriorScreen, MatchesExhaustiveExactLoopBitwise) {
  // The reference really is exhaustive: every candidate is confirmed.
  EXPECT_EQ(confirms_during([] {
              prior_run(GridPrior::Mode::Exhaustive,
                        AcquisitionKind::ExpectedImprovement, 3, 0.01);
            }),
            kAllCandidates);

  using Mode = GridPrior::Mode;
  for (auto acq : {AcquisitionKind::ExpectedImprovement,
                   AcquisitionKind::ProbabilityOfImprovement,
                   AcquisitionKind::LowerConfidenceBound}) {
    for (std::uint64_t seed : {3u, 17u, 2024u}) {
      const auto exhaustive = prior_run(Mode::Exhaustive, acq, seed, 0.01);
      const auto exact = prior_run(Mode::Exact, acq, seed, 0.01);
      const auto adversarial = prior_run(Mode::Adversarial, acq, seed, 0.01);
      // operator== on the coordinate vectors: every double must match.
      EXPECT_EQ(exact, exhaustive)
          << acquisition_name(acq) << " seed " << seed;
      EXPECT_EQ(adversarial, exhaustive)
          << acquisition_name(acq) << " seed " << seed;
    }
  }
}

TEST(OptimizerPriorScreen, AllZeroExpectedImprovementKeepsFirstCandidate) {
  // A huge xi makes EI underflow to exactly 0 at every candidate: every
  // candidate ties, all survive the screen, and the first-strictly-greater
  // rule still picks candidate 0, as the exhaustive loop does.
  using Mode = GridPrior::Mode;
  for (std::uint64_t seed : {5u, 6u}) {
    const auto exhaustive = prior_run(
        Mode::Exhaustive, AcquisitionKind::ExpectedImprovement, seed, 1e6);
    std::vector<std::vector<double>> adversarial;
    EXPECT_EQ(confirms_during([&] {
                adversarial = prior_run(Mode::Adversarial,
                                        AcquisitionKind::ExpectedImprovement,
                                        seed, 1e6);
              }),
              kAllCandidates);
    EXPECT_EQ(adversarial, exhaustive);
    EXPECT_EQ(prior_run(Mode::Exact, AcquisitionKind::ExpectedImprovement,
                        seed, 1e6),
              exhaustive);
  }
}

TEST(Optimizer, InvalidConfigThrows) {
  BoConfig cfg;
  cfg.n_initial = 0;
  EXPECT_THROW(BayesianOptimizer(SimplexBoxSpace(3, 0.2, 1.0), cfg),
               hbosim::Error);
  BoConfig cfg2;
  cfg2.n_random_candidates = 0;
  cfg2.n_local_candidates = 0;
  EXPECT_THROW(BayesianOptimizer(SimplexBoxSpace(3, 0.2, 1.0), cfg2),
               hbosim::Error);
}

}  // namespace
}  // namespace hbosim::bo
