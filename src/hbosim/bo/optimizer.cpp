#include "hbosim/bo/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::bo {

BayesianOptimizer::BayesianOptimizer(SimplexBoxSpace space, BoConfig cfg)
    : space_(std::move(space)), cfg_(cfg) {
  HB_REQUIRE(cfg_.n_initial >= 1, "need at least one initial sample");
  HB_REQUIRE(cfg_.n_random_candidates + cfg_.n_local_candidates > 0,
             "need at least one acquisition candidate");
}

const char* kernel_kind_name(KernelKind k) {
  switch (k) {
    case KernelKind::Matern52: return "Matern52";
    case KernelKind::Matern32: return "Matern32";
    case KernelKind::Rbf: return "RBF";
  }
  return "?";
}

std::unique_ptr<Kernel> BayesianOptimizer::make_kernel(
    double length_scale) const {
  if (kernel_override_) return kernel_override_->clone();
  switch (cfg_.kernel) {
    case KernelKind::Matern32:
      return std::make_unique<Matern32>(length_scale, cfg_.sigma_f);
    case KernelKind::Rbf:
      return std::make_unique<Rbf>(length_scale, cfg_.sigma_f);
    case KernelKind::Matern52:
      break;
  }
  return std::make_unique<Matern52>(length_scale, cfg_.sigma_f);
}

void BayesianOptimizer::set_kernel(std::unique_ptr<Kernel> kernel) {
  kernel_override_ = std::move(kernel);
  // The live surrogates were built for the old kernel; drop them so the
  // next suggest() rebuilds from the (still valid) distance cache.
  grid_gps_.clear();
}

std::vector<double> BayesianOptimizer::length_scale_grid() const {
  std::vector<double> grid = cfg_.length_scale_grid;
  if (grid.empty() || kernel_override_) grid = {1.0};
  if (cfg_.prior && !kernel_override_) {
    // The prior's data-driven hint competes in the marginal-likelihood
    // refit like any other grid entry; appending (rather than replacing)
    // keeps the refit free to reject a bad estimate.
    const double factor = cfg_.prior->length_scale_factor();
    if (factor > 0.0 &&
        std::find(grid.begin(), grid.end(), factor) == grid.end()) {
      grid.push_back(factor);
    }
  }
  return grid;
}

std::vector<double> BayesianOptimizer::suggest(Rng& rng) {
  HB_TRACE_SCOPE("bo", "bo.suggest");
  HB_TELEM_COUNT("bo.suggests", 1.0);
  if (in_initialization()) {
    if (cfg_.prior) {
      if (!prior_seeds_ready_) {
        prior_seeds_ready_ = true;
        for (const std::vector<double>& s : cfg_.prior->seed_points(
                 static_cast<std::size_t>(cfg_.n_initial))) {
          if (s.size() == space_.dim()) prior_seeds_.push_back(space_.clip(s));
          if (prior_seeds_.size() >=
              static_cast<std::size_t>(cfg_.n_initial)) {
            break;
          }
        }
      }
      // Seeds stand in for the first initialization draws; any remaining
      // draws stay random so initialization keeps some exploration.
      if (data_.size() < prior_seeds_.size()) {
        HB_TELEM_COUNT("bo.prior_seed_suggests", 1.0);
        return prior_seeds_[data_.size()];
      }
    }
    return space_.sample(rng);
  }

  // Standardize the observed costs so the surrogate's fixed prior variance
  // stays commensurate with the data. With a learned prior the GP models
  // the residual cost - m0(z): subtract the cached prior means first, so
  // the surrogate only has to explain what past traffic did not predict.
  std::vector<double> y;
  y.reserve(data_.size());
  for (const auto& obs : data_) y.push_back(obs.cost);
  if (cfg_.prior) {
    for (std::size_t i = 0; i < y.size(); ++i) y[i] -= prior_mean_obs_[i];
  }
  double scale = 1.0;
  if (cfg_.standardize) {
    const double sd = stdev(y);
    if (sd > 1e-12) scale = sd;
    const double m = mean(y);
    for (auto& v : y) v = (v - m) / scale;
  }

  return acquire(rng, y, scale);
}

void BayesianOptimizer::sync_grid_gps(const std::vector<double>& y) {
  const std::vector<double> grid = length_scale_grid();

  // tell() keeps live surrogates in lockstep with data_; a mismatch means
  // they were invalidated (set_kernel, or created before this config path
  // existed) and must be rebuilt from the distance cache.
  const bool rebuild = grid_gps_.size() != grid.size() ||
                       (!grid_gps_.empty() &&
                        grid_gps_.front().gp.observation_count() != data_.size());
  if (rebuild) grid_gps_.clear();

  if (grid_gps_.empty()) {
    std::vector<std::vector<double>> x;
    x.reserve(data_.size());
    for (const auto& obs : data_) x.push_back(obs.z);
    grid_gps_.reserve(grid.size());
    for (double factor : grid) {
      grid_gps_.push_back(GridGp{
          factor, GaussianProcess(make_kernel(cfg_.length_scale * factor),
                                  cfg_.gp)});
      grid_gps_.back().gp.fit(x, y, dist_);
    }
    return;
  }

  // Steady state: the factors are current (grown by tell()); only the
  // standardized targets change between suggests. O(G n^2).
  for (auto& g : grid_gps_) g.gp.set_targets(y);
}

std::vector<double> BayesianOptimizer::acquire(Rng& rng,
                                               const std::vector<double>& y,
                                               double scale) {
  GaussianProcess* gp = nullptr;
  {
    HB_TRACE_SCOPE("bo", "bo.fit");
    sync_grid_gps(y);

    // Hyperparameter refit (see BoConfig::length_scale_grid): keep the
    // length scale that explains the standardized costs best, first
    // strictly greater in grid order.
    double best_lml = -std::numeric_limits<double>::infinity();
    for (auto& g : grid_gps_) {
      const double lml = g.gp.log_marginal_likelihood();
      if (lml > best_lml) {
        best_lml = lml;
        gp = &g.gp;
      }
    }
  }
  HB_ASSERT(gp != nullptr, "no grid surrogate available");

  // With a prior the GP's posterior is over standardized *residuals*; add
  // each point's (standardized) prior mean back so acquisition compares
  // total predicted costs, observed incumbent included. Constant offsets
  // cancel inside EI, so only the z-dependent part matters.
  const bool has_prior = cfg_.prior != nullptr;
  double best_y;
  if (has_prior) {
    best_y = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < y.size(); ++i)
      best_y = std::min(best_y, y[i] + prior_mean_obs_[i] / scale);
  } else {
    best_y = *std::min_element(y.begin(), y.end());
  }
  const std::vector<double>& incumbent = best().z;

  // Generate the candidate set (uniform samples, then perturbations of the
  // incumbent alternating fine and coarse scales), packed flat for the
  // batched predict.
  const std::size_t dim = space_.dim();
  const std::size_t total = static_cast<std::size_t>(cfg_.n_random_candidates) +
                            static_cast<std::size_t>(cfg_.n_local_candidates);
  cand_flat_.resize(total * dim);
  {
    HB_TRACE_SCOPE("bo", "bo.candidates");
    std::size_t w = 0;
    for (int i = 0; i < cfg_.n_random_candidates; ++i)
      space_.sample_into({cand_flat_.data() + (w++) * dim, dim}, rng);
    for (int i = 0; i < cfg_.n_local_candidates; ++i) {
      const double scale =
          (i % 2 == 0) ? cfg_.local_scale : cfg_.local_scale_coarse;
      space_.perturb_into(incumbent, scale, rng,
                          {cand_flat_.data() + (w++) * dim, dim},
                          clip_scratch_);
    }
  }

  std::size_t best_idx = 0;
  {
    HB_TRACE_SCOPE("bo", "bo.score");
    preds_.resize(total);
    gp->predict_many(cand_flat_, total, preds_, batch_scratch_);

    if (has_prior) {
      best_idx = prior_argmax(best_y, scale, total);
    } else {
      // First-strictly-greater argmax in generation order.
      double best_score = -std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < total; ++c) {
        const double score = acquisition_score(
            cfg_.acquisition, preds_[c].mean, std::sqrt(preds_[c].variance),
            best_y, cfg_.acq_params);
        if (score > best_score) {
          best_score = score;
          best_idx = c;
        }
      }
    }
  }
  const double* zb = cand_flat_.data() + best_idx * dim;
  return std::vector<double>(zb, zb + dim);
}

std::size_t BayesianOptimizer::prior_argmax(double best_y, double scale,
                                            std::size_t total) {
  const SurrogatePrior& prior = *cfg_.prior;
  const std::size_t dim = space_.dim();
  const double tol = prior.mean_many_tolerance();
  prior_means_.resize(total);
  prior.mean_many(cand_flat_, total, prior_means_, prior_scratch_);

  // Candidate c's score with prior mean m, in the exact expression order
  // of scoring with prior.mean(): mu = pred + m / scale. `slack` bounds how
  // far the floating-point score can stray from monotonicity in mu. EI and
  // PI are non-increasing in mu, and their evaluation errs by a few ulp of
  // the terms |best - mu - xi| Phi(u), sigma phi(u) and Phi(u), all bounded
  // by |score| + |best - mu - xi| + sigma. LCB is exactly monotone in
  // floating point. 1e-9 times that sum is ~10^7 times the evaluation
  // error, which also absorbs the rounding of the screen's comparisons.
  constexpr double kScoreSlack = 1e-9;
  struct Scored {
    double score;
    double slack;
  };
  auto score_with = [&](std::size_t c, double m) {
    const double mu = preds_[c].mean + m / scale;
    const double sigma = std::sqrt(preds_[c].variance);
    const double s = acquisition_score(cfg_.acquisition, mu, sigma, best_y,
                                       cfg_.acq_params);
    return Scored{s, kScoreSlack * (std::abs(s) +
                                    std::abs(best_y - mu - cfg_.acq_params.xi) +
                                    sigma)};
  };

  // Screen. The exact mean lies in [m - tol, m + tol], and rounding
  // m - tol (m + tol) cannot step past it because the exact mean is itself
  // a double; division and addition round monotonically, so mu at m - tol
  // is a floating-point lower bound on the exact mu and its score an upper
  // bracket (up to slack) on the exact score. ceil_[c] holds that upper
  // bracket plus slack; the lead maximizes it.
  ceil_.resize(total);
  std::size_t lead = 0;
  double lead_score = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < total; ++c) {
    const Scored hi = score_with(c, prior_means_[c] - tol);
    if (hi.score > lead_score) {
      lead_score = hi.score;
      lead = c;
    }
    ceil_[c] = hi.score + hi.slack;
  }
  // With tolerance 0 the batched means are the exact ones, so the upper
  // brackets are the exact scores and the lead is the exact argmax.
  if (tol == 0.0) return lead;

  // The lead's lower bracket (its score at m + tol, minus slack) is a
  // lower bound, `cut`, on the exact maximum. A candidate whose ceiling is
  // below it scores strictly below the maximum, so dropping it cannot
  // change a first-strictly-greater argmax. Confirm the rest with the
  // exact mean, in generation order. The skip test is false for NaN, so
  // NaN scores reach the exact rule, which handles them as before. If
  // every score ties (EI underflowing to 0 everywhere), every candidate
  // survives and the argmax is still exact.
  const Scored lo = score_with(lead, prior_means_[lead] + tol);
  const double cut = lo.score - lo.slack;
  std::size_t best_idx = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t confirmed = 0;
  for (std::size_t c = 0; c < total; ++c) {
    if (ceil_[c] < cut) continue;
    ++confirmed;
    const double m = prior.mean({cand_flat_.data() + c * dim, dim});
    const double score = score_with(c, m).score;
    if (score > best_score) {
      best_score = score;
      best_idx = c;
    }
  }
  HB_TELEM_COUNT("bo.prior_confirms", static_cast<double>(confirmed));
  return best_idx;
}

void BayesianOptimizer::tell(std::vector<double> z, double cost) {
  HB_TRACE_SCOPE("bo", "bo.tell");
  HB_TELEM_COUNT("bo.tells", 1.0);
  HB_REQUIRE(space_.contains(z, 1e-6),
             "tell(): configuration violates Constraints 8-10");
  HB_REQUIRE(std::isfinite(cost), "tell(): cost must be finite");
  if (cfg_.prior) prior_mean_obs_.push_back(cfg_.prior->mean(z));

  const std::size_t n = data_.size();
  // Extend the cached distance matrix by the new point's row/column.
  // Every kernel is stationary, so this one matrix serves the Gram of
  // every length-scale candidate for the lifetime of the run.
  dist_.conservative_resize(n + 1, n + 1);
  std::span<double> dn = dist_.row(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = euclidean_distance(z, data_[i].z);
    dn[i] = d;
    dist_(i, n) = d;
  }
  dn[n] = 0.0;

  // Grow each live surrogate's Cholesky factor in place (O(n^2) per
  // grid entry). Targets are stale until the next suggest() calls
  // set_targets() with freshly standardized costs.
  for (auto& g : grid_gps_) g.gp.append_point(z, dn.first(n));

  // Incumbent maintenance (best() is O(1)): strict `<` keeps the earliest
  // minimum, matching what a front-to-back rescan would select.
  if (data_.empty() || cost < data_[best_idx_].cost) best_idx_ = n;
  data_.push_back(Observation{std::move(z), cost});
}

const Observation& BayesianOptimizer::best() const {
  HB_REQUIRE(!data_.empty(), "best() with no observations");
  return data_[best_idx_];
}

}  // namespace hbosim::bo
