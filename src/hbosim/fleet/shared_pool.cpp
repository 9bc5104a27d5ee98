#include "hbosim/fleet/shared_pool.hpp"

#include <utility>

#include "hbosim/telemetry/telemetry.hpp"

namespace hbosim::fleet {

std::string PoolKey::str() const {
  return edge::compose_key({device, scenario,
                            "tri" + std::to_string(env.triangle_bucket),
                            "dist" + std::to_string(env.distance_bucket),
                            "task" + std::to_string(env.taskset_hash)});
}

core::SolutionStoreHooks pool_hooks(
    std::shared_ptr<const PoolSnapshot> snapshot, const PoolKey& base,
    std::vector<PoolOp>* traffic) {
  core::SolutionStoreHooks hooks;
  hooks.fetch = [snapshot = std::move(snapshot), base,
                 traffic](const core::EnvironmentKey& env)
      -> std::optional<core::StoredSolution> {
    HB_TRACE_SCOPE("fleet", "pool.fetch");
    PoolKey key = base;
    key.env = env;
    PoolOp op{PoolOp::Kind::Miss, key.str(), {}};
    std::optional<core::StoredSolution> found;
    if (const auto it = snapshot->find(op.key); it != snapshot->end()) {
      op.kind = PoolOp::Kind::Hit;
      found = it->second;
      HB_TELEM_COUNT("pool.hits", 1.0);
    } else {
      HB_TELEM_COUNT("pool.misses", 1.0);
    }
    traffic->push_back(std::move(op));
    return found;
  };
  hooks.publish = [base, traffic](const core::EnvironmentKey& env,
                                  const core::StoredSolution& solution) {
    HB_TELEM_COUNT("pool.stores", 1.0);
    PoolKey key = base;
    key.env = env;
    traffic->push_back(PoolOp{PoolOp::Kind::Publish, key.str(), solution});
  };
  return hooks;
}

SharedSolutionPool::SharedSolutionPool(SharedSolutionPoolConfig cfg)
    : cache_(cfg.capacity) {}

std::shared_ptr<const PoolSnapshot> SharedSolutionPool::snapshot() {
  if (!snapshot_) {
    auto frozen = std::make_shared<PoolSnapshot>();
    frozen->reserve(cache_.size());
    cache_.for_each_entry(
        [&frozen](const std::string& key, const core::StoredSolution& s) {
          frozen->emplace(key, s);
        });
    snapshot_ = std::move(frozen);
  }
  return snapshot_;
}

void SharedSolutionPool::replay(const std::vector<PoolOp>& traffic) {
  for (const PoolOp& op : traffic) {
    switch (op.kind) {
      case PoolOp::Kind::Hit:
        ++hits_;
        cache_.get(op.key);  // refresh recency
        break;
      case PoolOp::Kind::Miss:
        ++misses_;
        break;
      case PoolOp::Kind::Publish:
        ++stores_;
        if (const core::StoredSolution* existing = cache_.get(op.key)) {
          if (existing->cost <= op.solution.cost) break;  // keep the better
        }
        cache_.put(op.key, op.solution);
        snapshot_.reset();
        break;
    }
  }
}

SharedSolutionPoolStats SharedSolutionPool::stats() const {
  SharedSolutionPoolStats out;
  out.size = cache_.size();
  out.hits = hits_;
  out.misses = misses_;
  out.stores = stores_;
  out.evictions = cache_.evictions();
  return out;
}

}  // namespace hbosim::fleet
