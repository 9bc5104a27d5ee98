#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// \file prior.hpp
/// Optional learned prior over the HBO cost surface. A SurrogatePrior
/// gives the Bayesian optimizer three things a cold activation otherwise
/// lacks: (1) a non-flat mean function m0(z) — the GP then models only the
/// *residual* cost - m0(z), so with few observations the posterior already
/// reflects everything past sessions learned about this (device, scenario,
/// environment); (2) ranked seed configurations that replace the first
/// random initialization draws; (3) a data-driven length-scale hint added
/// to the hyperparameter grid. Implementations live above bo (see
/// hbosim::policy::ScenarioPrior, fitted from fleet pool traffic); this
/// header only defines the contract so bo stays dependency-free.
///
/// Determinism contract: every method must be a pure function of the
/// prior's frozen state — no clocks, no shared mutable state, no
/// unseeded randomness — because one prior instance may be consulted
/// concurrently by many fleet sessions whose trajectories must stay
/// bit-identical across thread counts.
///
/// Batched means. The optimizer needs m0 at every acquisition candidate
/// (576 per suggest by default), so the contract also has mean_many():
/// the means of a whole candidate batch in one call, allowed to differ
/// from mean() by at most mean_many_tolerance() in absolute value. The
/// optimizer screens candidates with the batched means and then confirms
/// the few that could still be the acquisition argmax with the exact
/// mean() (see BayesianOptimizer::suggest), so a nonzero tolerance costs
/// no bitwise reproducibility: suggestions are exactly those of scoring
/// every candidate with mean(). The default mean_many() loops over mean()
/// and reports tolerance 0; a prior only overrides the pair when it has a
/// faster kernel and a proven error bound for it.

namespace hbosim::bo {

class SurrogatePrior {
 public:
  virtual ~SurrogatePrior() = default;

  /// Prior mean of the raw (unstandardized) cost phi at configuration z.
  /// Must be finite for every feasible z.
  virtual double mean(std::span<const double> z) const = 0;

  /// Prior means of `count` configurations packed row-major in zs_flat
  /// (count rows of zs_flat.size() / count coordinates): |out[c] -
  /// mean(z_c)| <= mean_many_tolerance() for every c. `scratch` is working
  /// storage owned by the caller (one per thread), resized as needed, so
  /// a shared prior stays immutable.
  virtual void mean_many(std::span<const double> zs_flat, std::size_t count,
                         std::span<double> out,
                         std::vector<double>& scratch) const {
    (void)scratch;
    if (count == 0) return;
    const std::size_t d = zs_flat.size() / count;
    for (std::size_t c = 0; c < count; ++c)
      out[c] = mean(zs_flat.subspan(c * d, d));
  }

  /// Absolute bound on |mean_many() - mean()| over every input. 0 (the
  /// default) promises mean_many() returns exactly mean().
  virtual double mean_many_tolerance() const { return 0.0; }

  /// Multiplier applied to BoConfig::length_scale and appended to the
  /// length-scale grid for the marginal-likelihood refit. Return <= 0 for
  /// "no opinion" (the grid is left untouched).
  virtual double length_scale_factor() const { return 0.0; }

  /// Up to k promising configurations, best first. The optimizer clips
  /// each onto the feasible set and uses them in place of the first k
  /// random initialization draws; returning fewer (or none) leaves the
  /// remaining draws random. Points whose dimension does not match the
  /// space are ignored.
  virtual std::vector<std::vector<double>> seed_points(std::size_t k) const {
    (void)k;
    return {};
  }

  /// Dimension of the z-space this prior was fitted in, or 0 when the
  /// prior is dimension-agnostic. Consumers growing the search space
  /// (e.g. the 4-target offload simplex vs the 3-target on-device one)
  /// must drop priors whose dim() is nonzero and differs from the
  /// active space — a mean function fitted over 4-vectors is
  /// meaningless (or out-of-bounds) when evaluated on 5-vectors.
  virtual std::size_t dim() const { return 0; }
};

}  // namespace hbosim::bo
