#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "hbosim/bo/acquisition.hpp"
#include "hbosim/bo/gp.hpp"
#include "hbosim/bo/prior.hpp"
#include "hbosim/bo/space.hpp"

/// \file optimizer.hpp
/// The sequential Bayesian optimizer (the paper's BO(D) in Algorithm 1,
/// line 1): maintains the database D of (z, phi) observations, fits the GP
/// surrogate, and proposes the next configuration by maximizing the
/// acquisition function over a candidate set (random simplex samples plus
/// local perturbations of the incumbent — the standard derivative-free
/// approach on a constrained domain, which is also how skopt's categorical/
/// constrained spaces are handled).
///
/// The surrogate update is incremental: the optimizer caches the pairwise
/// distance matrix of its observations (every kernel is stationary, so
/// each length-scale candidate's Gram matrix derives from the same
/// distances), keeps one GP per length-scale grid entry alive across
/// calls, grows each GP's Cholesky factor by a rank-1 bordered update per
/// tell(), and scores acquisition candidates through the batched
/// allocation-free predict_many() path. tell() is O(n^2) and suggest()
/// has no per-call O(G n^3) refit. The tests and bench_bo check the
/// suggestions against a from-scratch refit of every grid GP per suggest
/// (tests/support/full_refit_oracle.hpp).

namespace hbosim::bo {

struct Observation {
  std::vector<double> z;
  double cost = 0.0;
};

/// Kernel families available to the optimizer (the paper uses Matern-5/2;
/// the others exist for the smoothness ablation).
enum class KernelKind { Matern52, Matern32, Rbf };

const char* kernel_kind_name(KernelKind k);

struct BoConfig {
  /// Random configurations before the surrogate takes over (paper: 5).
  int n_initial = 5;
  /// Acquisition candidates: uniform samples over the space...
  int n_random_candidates = 384;
  /// ...plus perturbations around the best observation so far, at two
  /// scales (fine refinement and coarser escapes).
  int n_local_candidates = 192;
  double local_scale = 0.06;
  double local_scale_coarse = 0.18;

  AcquisitionKind acquisition = AcquisitionKind::ExpectedImprovement;
  AcquisitionParams acq_params;

  /// Kernel family and parameters (paper: Matern-5/2, l = 1). Like
  /// skopt's gp_minimize, the length scale is refit at every suggest()
  /// by maximizing the log marginal likelihood over `length_scale`
  /// times the candidates in `length_scale_grid`; a fixed scale (grid =
  /// {1.0}) oversmooths the simplex (diameter ~1.4) and starves
  /// exploration of unvisited corners.
  KernelKind kernel = KernelKind::Matern52;
  double length_scale = 1.0;
  std::vector<double> length_scale_grid = {0.3, 0.6, 1.0};
  double sigma_f = 1.0;

  GpConfig gp;

  /// Standardize costs (zero mean, unit variance) before fitting; keeps
  /// the fixed sigma_f meaningful across scenarios.
  bool standardize = true;

  /// Learned warm-start prior (see bo/prior.hpp). When set, the GP models
  /// the residual cost - prior->mean(z), acquisition scores add the prior
  /// mean back per candidate (batched through prior->mean_many(), with
  /// the possible winners confirmed by the exact mean(); the suggestion is
  /// the exact one), the prior's seed configurations replace the
  /// first initialization draws, and its length-scale hint joins the
  /// refit grid. Null (the default) leaves every code path bitwise
  /// identical to a prior-free optimizer.
  std::shared_ptr<const SurrogatePrior> prior;
};

class BayesianOptimizer {
 public:
  BayesianOptimizer(SimplexBoxSpace space, BoConfig cfg = {});

  const SimplexBoxSpace& space() const { return space_; }
  const BoConfig& config() const { return cfg_; }

  /// Next configuration to evaluate: a random feasible point during the
  /// initialization phase, else the acquisition maximizer.
  std::vector<double> suggest(Rng& rng);

  /// Record the observed cost of a configuration. This also extends the
  /// cached distance matrix (O(n d)) and grows each live surrogate's
  /// Cholesky factor in place (O(n^2) bordered update),
  /// so the next suggest() only has to re-solve for the restandardized
  /// targets instead of refactorizing.
  void tell(std::vector<double> z, double cost);

  std::size_t observation_count() const { return data_.size(); }
  const std::vector<Observation>& observations() const { return data_; }
  bool in_initialization() const {
    return data_.size() < static_cast<std::size_t>(cfg_.n_initial);
  }

  /// Lowest-cost observation so far; requires at least one tell(). O(1):
  /// the incumbent index is maintained by tell().
  const Observation& best() const;

  /// Allow a caller to swap the kernel (ablation bench). Resets nothing
  /// else; takes effect at the next suggest(). Disables the length-scale
  /// grid search.
  void set_kernel(std::unique_ptr<Kernel> kernel);

 private:
  std::unique_ptr<Kernel> make_kernel(double length_scale) const;
  std::vector<double> length_scale_grid() const;
  /// The model phase of suggest(): refit the length scale, generate the
  /// candidates and return the acquisition maximizer. `y` holds the
  /// standardized (residual) targets and `scale` their standardization
  /// divisor: candidate prior means are divided by it so acquisition
  /// compares posterior and incumbent in the same standardized units.
  std::vector<double> acquire(Rng& rng, const std::vector<double>& y,
                              double scale);
  /// Acquisition argmax over the scored candidates (cand_flat_, preds_)
  /// with the prior mean added back: bitwise the candidate that scoring
  /// every one with the exact prior->mean() picks, found by screening with
  /// the batched prior->mean_many() and confirming only the candidates
  /// that could still win.
  std::size_t prior_argmax(double best_y, double scale, std::size_t total);
  /// Bring the per-grid-entry GPs in sync with data_ and the targets y:
  /// (re)build from the distance cache when missing or invalidated,
  /// otherwise just re-solve the targets against the live factors.
  void sync_grid_gps(const std::vector<double>& y);

  SimplexBoxSpace space_;
  BoConfig cfg_;
  std::vector<Observation> data_;
  std::unique_ptr<Kernel> kernel_override_;

  // --- learned-prior state (cfg_.prior; empty/unused without one) ---
  std::vector<double> prior_mean_obs_;  ///< prior->mean(z_i) per observation
  std::vector<std::vector<double>> prior_seeds_;  ///< clipped seed points
  bool prior_seeds_ready_ = false;

  // --- incremental surrogate state ---
  std::size_t best_idx_ = 0;  ///< incumbent index into data_
  Matrix dist_;               ///< pairwise observation distances, grown per tell
  struct GridGp {
    double factor;
    GaussianProcess gp;
  };
  std::vector<GridGp> grid_gps_;  ///< one live surrogate per grid entry
  // Reused per-suggest buffers (steady state: zero allocations in the
  // candidate-generation and scoring loops).
  std::vector<double> cand_flat_;
  std::vector<GaussianProcess::Prediction> preds_;
  GaussianProcess::BatchScratch batch_scratch_;
  std::vector<double> clip_scratch_;
  std::vector<double> prior_means_;    ///< batched prior mean per candidate
  std::vector<double> ceil_;           ///< screen upper bracket per candidate
  std::vector<double> prior_scratch_;  ///< prior->mean_many() working storage
};

}  // namespace hbosim::bo
