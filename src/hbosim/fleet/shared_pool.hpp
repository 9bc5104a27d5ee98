#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hbosim/core/lookup_table.hpp"
#include "hbosim/core/monitored_session.hpp"
#include "hbosim/edge/cache.hpp"

/// \file shared_pool.hpp
/// The fleet-wide, cross-session extension of the Section VI solution
/// lookup table. One session's converged configuration warm-starts every
/// other session that encounters the same (device, scenario, environment)
/// conditions — the paper's "optimization results should be shared across
/// users" direction, made concrete.
///
/// The pool is epoch-frozen, like the policy layer's priors. At each
/// epoch head the fleet's main thread freezes the pool into an immutable
/// PoolSnapshot; the epoch's sessions fetch from that snapshot on any
/// worker without a lock and log every fetch and publish as PoolOps. The
/// window head replays each session's log, in session-id order, into the
/// one live LRU: lower-cost-wins on key collision, fetch hits refresh
/// recency, eviction at capacity. Everything the pool holds or counts is
/// therefore a pure function of the fleet spec, whatever the thread count.

namespace hbosim::fleet {

/// Identifies which solutions are mutually applicable across sessions:
/// same device model, same scenario (object set × taskset), and the same
/// quantized environmental conditions the per-session table already keys
/// on.
struct PoolKey {
  std::string device;    ///< DeviceProfile name, e.g. "Pixel 7".
  std::string scenario;  ///< e.g. "SC1/CF1".
  core::EnvironmentKey env;

  /// Flattened string form, composed with the edge cache key scheme.
  std::string str() const;
};

struct SharedSolutionPoolConfig {
  /// Max remembered (device, scenario, environment) entries; the least
  /// recently touched entry is evicted beyond it.
  std::size_t capacity = 4096;
};

struct SharedSolutionPoolStats {
  std::size_t size = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;

  /// Fraction of fetches served, in [0, 1]; 0 when nothing was fetched.
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// The pool as one epoch's sessions see it, keyed by PoolKey::str().
using PoolSnapshot = std::unordered_map<std::string, core::StoredSolution>;

/// One pool operation a session made, logged in the order it made them.
struct PoolOp {
  enum class Kind : std::uint8_t { Hit, Miss, Publish };
  Kind kind = Kind::Miss;
  std::string key;                ///< PoolKey::str().
  core::StoredSolution solution;  ///< The published solution (Publish only).
};

/// One session's solution-store hooks: `fetch` reads `snapshot`, and every
/// fetch and publish is appended to `*traffic` for the main thread to
/// replay. `base` fixes the device and scenario; the hooks fill in the
/// environment of each call. Safe on any thread as long as `*traffic` is
/// the session's own.
core::SolutionStoreHooks pool_hooks(
    std::shared_ptr<const PoolSnapshot> snapshot, const PoolKey& base,
    std::vector<PoolOp>* traffic);

/// The live pool. Main-thread only: nothing here is synchronized.
class SharedSolutionPool {
 public:
  explicit SharedSolutionPool(SharedSolutionPoolConfig cfg = {});

  /// Freeze the current entries for the next epoch. Returns the previous
  /// snapshot again when no replayed publish has changed an entry since.
  std::shared_ptr<const PoolSnapshot> snapshot();

  /// Apply one session's traffic, in order. Hits and misses count as the
  /// session saw them in its snapshot; a hit refreshes the entry's
  /// recency if the entry is still live. A publish counts as a store and
  /// is kept only if the key is new or the solution costs less than the
  /// entry's; a new key beyond capacity evicts the least recently used
  /// entry.
  void replay(const std::vector<PoolOp>& traffic);

  SharedSolutionPoolStats stats() const;

 private:
  edge::BasicLruCache<core::StoredSolution> cache_;
  // Counted here, not via the LRU's counters: replay probes the cache on
  // publishes too, which would skew a fetch hit rate.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
  std::shared_ptr<const PoolSnapshot> snapshot_;  ///< Null once stale.
};

}  // namespace hbosim::fleet
