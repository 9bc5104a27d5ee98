#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "hbosim/bo/acquisition.hpp"
#include "hbosim/bo/gp.hpp"
#include "hbosim/bo/kernel.hpp"
#include "hbosim/bo/optimizer.hpp"
#include "hbosim/bo/space.hpp"
#include "hbosim/common/error.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/common/rng.hpp"

/// \file full_refit_oracle.hpp
/// Reference Bayesian optimizer for the parity tests and bench_bo: the
/// suggest() loop of bo::BayesianOptimizer written the slow, obvious way.
/// Every suggest() refits one GP per length-scale grid entry from scratch
/// (O(G n^3)) and scores each acquisition candidate with a scalar
/// predict() as it is drawn. It draws random numbers in the optimizer's
/// order, so on the same seed both make the same suggestions up to the
/// ulp-level difference of the batched predict. Prior-free: a BoConfig
/// with a prior is rejected.

namespace hbosim::testsupport {

class FullRefitOracle {
 public:
  explicit FullRefitOracle(bo::SimplexBoxSpace space, bo::BoConfig cfg = {})
      : space_(std::move(space)), cfg_(std::move(cfg)) {
    HB_REQUIRE(cfg_.prior == nullptr, "the full-refit oracle is prior-free");
  }

  const bo::SimplexBoxSpace& space() const { return space_; }

  void tell(std::vector<double> z, double cost) {
    if (x_.empty() || cost < costs_[best_]) best_ = x_.size();
    x_.push_back(std::move(z));
    costs_.push_back(cost);
  }

  std::vector<double> suggest(Rng& rng) {
    if (x_.size() < static_cast<std::size_t>(cfg_.n_initial))
      return space_.sample(rng);

    std::vector<double> y = costs_;
    if (cfg_.standardize) {
      double scale = 1.0;
      const double sd = stdev(y);
      if (sd > 1e-12) scale = sd;
      const double m = mean(y);
      for (double& v : y) v = (v - m) / scale;
    }

    // Length-scale refit: the grid entry with the largest log marginal
    // likelihood, first strictly greater in grid order.
    std::vector<double> grid = cfg_.length_scale_grid;
    if (grid.empty()) grid = {1.0};
    std::unique_ptr<bo::GaussianProcess> gp;
    double best_lml = -std::numeric_limits<double>::infinity();
    for (double factor : grid) {
      auto candidate = std::make_unique<bo::GaussianProcess>(
          make_kernel(cfg_.length_scale * factor), cfg_.gp);
      candidate->fit(x_, y);
      const double lml = candidate->log_marginal_likelihood();
      if (lml > best_lml) {
        best_lml = lml;
        gp = std::move(candidate);
      }
    }
    HB_REQUIRE(gp != nullptr, "no grid surrogate fitted");

    const double best_y = *std::min_element(y.begin(), y.end());
    const std::vector<double>& incumbent = x_[best_];
    std::vector<double> best_candidate;
    double best_score = -std::numeric_limits<double>::infinity();
    auto consider = [&](std::vector<double> z) {
      const bo::GaussianProcess::Prediction pred = gp->predict(z);
      const double score =
          bo::acquisition_score(cfg_.acquisition, pred.mean,
                                std::sqrt(pred.variance), best_y,
                                cfg_.acq_params);
      if (score > best_score) {
        best_score = score;
        best_candidate = std::move(z);
      }
    };
    for (int i = 0; i < cfg_.n_random_candidates; ++i)
      consider(space_.sample(rng));
    for (int i = 0; i < cfg_.n_local_candidates; ++i) {
      const double scale =
          (i % 2 == 0) ? cfg_.local_scale : cfg_.local_scale_coarse;
      consider(space_.perturb(incumbent, scale, rng));
    }
    HB_REQUIRE(!best_candidate.empty(), "no acquisition candidate scored");
    return best_candidate;
  }

 private:
  std::unique_ptr<bo::Kernel> make_kernel(double length_scale) const {
    switch (cfg_.kernel) {
      case bo::KernelKind::Matern32:
        return std::make_unique<bo::Matern32>(length_scale, cfg_.sigma_f);
      case bo::KernelKind::Rbf:
        return std::make_unique<bo::Rbf>(length_scale, cfg_.sigma_f);
      case bo::KernelKind::Matern52:
        break;
    }
    return std::make_unique<bo::Matern52>(length_scale, cfg_.sigma_f);
  }

  bo::SimplexBoxSpace space_;
  bo::BoConfig cfg_;
  std::vector<std::vector<double>> x_;
  std::vector<double> costs_;
  std::size_t best_ = 0;  ///< first lowest-cost observation
};

}  // namespace hbosim::testsupport
