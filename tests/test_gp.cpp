// Tests for kernels and Gaussian-process regression.

#include <gtest/gtest.h>

#include <cmath>

#include "hbosim/bo/gp.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/common/rng.hpp"

namespace hbosim::bo {
namespace {

TEST(Matern52Kernel, EquationSevenKnownValues) {
  const Matern52 k(1.0, 1.0);
  const std::vector<double> a = {0.0};
  // k(0) = sigma_f^2.
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);
  // r = 1, l = 1: (1 + sqrt5 + 5/3) exp(-sqrt5).
  const std::vector<double> b = {1.0};
  const double s5 = std::sqrt(5.0);
  EXPECT_NEAR(k(a, b), (1.0 + s5 + 5.0 / 3.0) * std::exp(-s5), 1e-12);
}

TEST(Matern52Kernel, SymmetricAndDecaying) {
  const Matern52 k(1.0, 2.0);
  Rng rng(3);
  std::vector<double> prev_val = {k.prior_variance() + 1.0};
  double prev = k.prior_variance() + 1.0;
  for (double r = 0.0; r < 5.0; r += 0.25) {
    const std::vector<double> a = {0.0, 0.0};
    const std::vector<double> b = {r, 0.0};
    EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
    const double v = k(a, b);
    EXPECT_LT(v, prev);
    EXPECT_GT(v, 0.0);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(k.prior_variance(), 4.0);
}

TEST(Kernels, LengthScaleControlsWidth) {
  const Matern52 narrow(0.5), wide(2.0);
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {1.0};
  EXPECT_LT(narrow(a, b), wide(a, b));
}

TEST(Kernels, InvalidParamsThrow) {
  EXPECT_THROW(Matern52(0.0, 1.0), hbosim::Error);
  EXPECT_THROW(Matern52(1.0, 0.0), hbosim::Error);
  EXPECT_THROW(Rbf(0.0), hbosim::Error);
  EXPECT_THROW(Matern32(-1.0), hbosim::Error);
}

TEST(Kernels, RbfAndMatern32Forms) {
  const Rbf rbf(1.0, 1.0);
  const Matern32 m32(1.0, 1.0);
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {1.0};
  EXPECT_NEAR(rbf(a, b), std::exp(-0.5), 1e-12);
  const double s3 = std::sqrt(3.0);
  EXPECT_NEAR(m32(a, b), (1.0 + s3) * std::exp(-s3), 1e-12);
}

TEST(Kernels, CloneIsEquivalent) {
  const Matern52 k(0.7, 1.3);
  const auto c = k.clone();
  const std::vector<double> a = {0.1, 0.2};
  const std::vector<double> b = {0.4, 0.9};
  EXPECT_DOUBLE_EQ(k(a, b), (*c)(a, b));
}

GpConfig tight() {
  GpConfig cfg;
  cfg.noise_variance = 1e-10;
  return cfg;
}

TEST(GaussianProcess, InterpolatesTrainingPointsWithZeroNoise) {
  GaussianProcess gp(std::make_unique<Matern52>(), tight());
  const std::vector<std::vector<double>> x = {{0.0}, {0.5}, {1.0}};
  const std::vector<double> y = {1.0, -1.0, 2.0};
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto p = gp.predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 1e-5);
    EXPECT_NEAR(p.variance, 0.0, 1e-5);
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  GaussianProcess gp(std::make_unique<Matern52>(), tight());
  gp.fit({{0.0}, {1.0}}, {0.0, 1.0});
  const auto near = gp.predict(std::vector<double>{0.5});
  const auto far = gp.predict(std::vector<double>{10.0});
  EXPECT_LT(near.variance, far.variance);
  // Far from all data the posterior reverts to the prior.
  EXPECT_NEAR(far.variance, 1.0, 1e-3);
  EXPECT_NEAR(far.mean, 0.5, 1e-3);  // the (centered) data mean
}

TEST(GaussianProcess, PredictionIsSmoothBetweenPoints) {
  GaussianProcess gp(std::make_unique<Matern52>(), tight());
  gp.fit({{0.0}, {1.0}}, {0.0, 1.0});
  const auto mid = gp.predict(std::vector<double>{0.5});
  EXPECT_GT(mid.mean, 0.1);
  EXPECT_LT(mid.mean, 0.9);
}

TEST(GaussianProcess, NoiseSmoothsInterpolation) {
  GpConfig noisy;
  noisy.noise_variance = 0.5;
  GaussianProcess gp(std::make_unique<Matern52>(), noisy);
  gp.fit({{0.0}, {1e-6}}, {1.0, -1.0});  // conflicting near-duplicates
  const auto p = gp.predict(std::vector<double>{0.0});
  EXPECT_NEAR(p.mean, 0.0, 0.5);  // averages the conflict
}

TEST(GaussianProcess, LogMarginalLikelihoodPrefersTheTruth) {
  // Data drawn from a smooth function: a GP with matched length scale
  // should score higher than a wildly mismatched one.
  Rng rng(17);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i <= 20; ++i) {
    const double t = i / 20.0;
    x.push_back({t});
    y.push_back(std::sin(2.0 * t));
  }
  GpConfig cfg;
  cfg.noise_variance = 1e-6;
  GaussianProcess good(std::make_unique<Matern52>(1.0), cfg);
  GaussianProcess bad(std::make_unique<Matern52>(0.001), cfg);
  good.fit(x, y);
  bad.fit(x, y);
  EXPECT_GT(good.log_marginal_likelihood(), bad.log_marginal_likelihood());
}

TEST(GaussianProcess, ValidatesInputs) {
  GaussianProcess gp(std::make_unique<Matern52>());
  EXPECT_THROW(gp.fit({}, {}), hbosim::Error);
  EXPECT_THROW(gp.fit({{0.0}}, {1.0, 2.0}), hbosim::Error);
  EXPECT_THROW(gp.fit({{0.0}, {0.0, 1.0}}, {1.0, 2.0}), hbosim::Error);
  EXPECT_THROW(gp.predict(std::vector<double>{0.0}), hbosim::Error);
  gp.fit({{0.0, 0.0}}, {1.0});
  EXPECT_THROW(gp.predict(std::vector<double>{0.0}), hbosim::Error);
  EXPECT_THROW(GaussianProcess(nullptr), hbosim::Error);
}

TEST(GaussianProcess, RefitReplacesData) {
  GaussianProcess gp(std::make_unique<Matern52>(), tight());
  gp.fit({{0.0}}, {5.0});
  gp.fit({{0.0}}, {-5.0});
  EXPECT_NEAR(gp.predict(std::vector<double>{0.0}).mean, -5.0, 1e-6);
  EXPECT_EQ(gp.observation_count(), 1u);
}

TEST(Kernels, FromDistanceMatchesPairEvaluation) {
  // The distance-cache path feeds precomputed ||a-b|| through
  // from_distance; it must agree bitwise with the pairwise form for every
  // kernel family, or a cached-Gram fit would drift from a plain fit.
  const Matern52 m52(0.7, 1.3);
  const Matern32 m32(0.4, 2.0);
  const Rbf rbf(1.1, 0.9);
  hbosim::Rng rng(21);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> a(4), b(4);
    for (std::size_t j = 0; j < 4; ++j) {
      a[j] = rng.normal();
      b[j] = rng.normal();
    }
    const double r = hbosim::euclidean_distance(a, b);
    EXPECT_EQ(m52(a, b), m52.from_distance(r));
    EXPECT_EQ(m32(a, b), m32.from_distance(r));
    EXPECT_EQ(rbf(a, b), rbf.from_distance(r));
  }
}

TEST(Kernels, FromDistanceManyMatchesScalarWithinUlps) {
  // The batched path may use a vectorized exp that differs from libm by a
  // couple ulp; anything beyond that is a bug in the polynomial kernels.
  const Matern52 m52(0.7, 1.3);
  const Matern32 m32(0.4, 2.0);
  const Rbf rbf(1.1, 0.9);
  std::vector<double> r(257);
  hbosim::Rng rng(22);
  for (auto& v : r) v = std::abs(rng.normal()) * 3.0;
  r[0] = 0.0;
  std::vector<double> out(r.size());
  for (const Kernel* k : {static_cast<const Kernel*>(&m52),
                          static_cast<const Kernel*>(&m32),
                          static_cast<const Kernel*>(&rbf)}) {
    k->from_distance_many(r, out);
    for (std::size_t i = 0; i < r.size(); ++i) {
      const double exact = k->from_distance(r[i]);
      EXPECT_NEAR(out[i], exact, std::abs(exact) * 1e-14 + 1e-300) << r[i];
    }
  }
}

/// Shared fixture data: a small anisotropic data set on the simplex-ish
/// domain the optimizer uses.
std::pair<std::vector<std::vector<double>>, std::vector<double>>
wiggly_data(std::size_t n) {
  hbosim::Rng rng(33);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> z(3);
    for (auto& v : z) v = rng.uniform();
    x.push_back(z);
    y.push_back(std::sin(3.0 * z[0]) + z[1] * z[1] - 0.5 * z[2]);
  }
  return {x, y};
}

TEST(GaussianProcess, FitWithDistanceMatrixMatchesPlainFit) {
  const auto [x, y] = wiggly_data(12);
  hbosim::Matrix dist(x.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < x.size(); ++j)
      dist(i, j) = hbosim::euclidean_distance(x[i], x[j]);

  GaussianProcess plain(std::make_unique<Matern52>(0.6), GpConfig{});
  GaussianProcess cached(std::make_unique<Matern52>(0.6), GpConfig{});
  plain.fit(x, y);
  cached.fit(x, y, dist);

  EXPECT_EQ(plain.log_marginal_likelihood(), cached.log_marginal_likelihood());
  const std::vector<double> q = {0.2, 0.5, 0.8};
  EXPECT_EQ(plain.predict(q).mean, cached.predict(q).mean);
  EXPECT_EQ(plain.predict(q).variance, cached.predict(q).variance);
}

TEST(GaussianProcess, IncrementalFitMatchesFullRefitAtEveryStep) {
  // Grow one GP a point at a time through append_point() + set_targets(),
  // as BayesianOptimizer::tell() and suggest() do; a fresh GP refit from
  // scratch on the same prefix must agree exactly (the bordered Cholesky
  // update performs the same arithmetic as the full factorization's last
  // row).
  const auto [x, y] = wiggly_data(16);
  GaussianProcess inc(std::make_unique<Matern52>(0.6), GpConfig{});
  inc.fit({x.front()}, {y.front()});
  const std::vector<double> queries_flat = {0.2, 0.5, 0.8, 0.9, 0.1, 0.4};
  for (std::size_t n = 1; n <= x.size(); ++n) {
    if (n > 1) {
      std::vector<double> dist_row(n - 1);
      for (std::size_t i = 0; i + 1 < n; ++i)
        dist_row[i] = hbosim::euclidean_distance(x[n - 1], x[i]);
      inc.append_point(x[n - 1], dist_row);
      inc.set_targets(std::span<const double>(y.data(), n));
    }
    GaussianProcess full(std::make_unique<Matern52>(0.6), GpConfig{});
    full.fit({x.begin(), x.begin() + n}, {y.begin(), y.begin() + n});
    EXPECT_EQ(inc.log_marginal_likelihood(), full.log_marginal_likelihood())
        << "n=" << n;
    for (std::size_t q = 0; q < 2; ++q) {
      const std::span<const double> z(queries_flat.data() + q * 3, 3);
      const auto pi = inc.predict(z);
      const auto pf = full.predict(z);
      EXPECT_EQ(pi.mean, pf.mean) << "n=" << n;
      EXPECT_EQ(pi.variance, pf.variance) << "n=" << n;
    }
  }
  EXPECT_EQ(inc.observation_count(), x.size());
}

TEST(GaussianProcess, SetTargetsMatchesRefitWithNewTargets) {
  const auto [x, y] = wiggly_data(10);
  GaussianProcess gp(std::make_unique<Matern52>(0.6), GpConfig{});
  gp.fit(x, y);
  // Rescale the targets (what cost re-standardization does per suggest).
  std::vector<double> y2 = y;
  for (auto& v : y2) v = v * 2.5 - 1.0;
  gp.set_targets(y2);
  GaussianProcess fresh(std::make_unique<Matern52>(0.6), GpConfig{});
  fresh.fit(x, y2);
  EXPECT_EQ(gp.log_marginal_likelihood(), fresh.log_marginal_likelihood());
  const std::vector<double> q = {0.3, 0.3, 0.4};
  EXPECT_EQ(gp.predict(q).mean, fresh.predict(q).mean);
  EXPECT_EQ(gp.predict(q).variance, fresh.predict(q).variance);
}

TEST(GaussianProcess, PredictManyMatchesPredictWithinUlps) {
  const auto [x, y] = wiggly_data(20);
  GaussianProcess gp(std::make_unique<Matern52>(0.6), GpConfig{});
  gp.fit(x, y);
  // More candidates than one block (64) to cover the blocking logic,
  // including a ragged tail.
  const std::size_t count = 150;
  hbosim::Rng rng(45);
  std::vector<double> flat(count * 3);
  for (auto& v : flat) v = rng.uniform();
  std::vector<GaussianProcess::Prediction> preds(count);
  GaussianProcess::BatchScratch scratch;
  gp.predict_many(flat, count, preds, scratch);
  for (std::size_t c = 0; c < count; ++c) {
    const auto exact =
        gp.predict(std::span<const double>(flat.data() + c * 3, 3));
    EXPECT_NEAR(preds[c].mean, exact.mean, 1e-12) << c;
    EXPECT_NEAR(preds[c].variance, exact.variance, 1e-12) << c;
  }
}

}  // namespace
}  // namespace hbosim::bo
