#include "smt/solve_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace fmnet::smt {

SolveCache& SolveCache::global() {
  static SolveCache* cache = new SolveCache();
  return *cache;
}

std::optional<SolveResult> SolveCache::find(const RepairKey& key) {
  auto& reg = obs::Registry::global();
  static obs::Counter& hits = reg.counter("smt.cache.hit");
  static obs::Counter& misses = reg.counter("smt.cache.miss");
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      hits.add(1);
      SolveResult r;
      r.status = it->second.status;
      r.assignment = it->second.assignment;
      r.objective = it->second.objective;
      r.from_cache = true;
      return r;
    }
  }
  misses.add(1);
  return std::nullopt;
}

void SolveCache::put(const RepairKey& key, const SolveResult& result) {
  if (result.status != Status::kOptimal && result.status != Status::kUnsat) {
    return;  // budget-dependent answers must never be replayed
  }
  auto& reg = obs::Registry::global();
  static obs::Counter& evictions = reg.counter("smt.cache.evicted");
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.size() >= max_entries_ && map_.find(key) == map_.end()) {
    evictions.add(static_cast<std::int64_t>(map_.size()));
    map_.clear();
  }
  map_[key] = Entry{result.status, result.assignment, result.objective};
}

void SolveCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

std::size_t SolveCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

SolveResult repair_minimize(const Model& model, const RepairOptions& options,
                            const WarmStart* warm) {
  RepairKey key;
  if (options.use_cache) {
    key = repair_key(model);
    if (auto hit = SolveCache::global().find(key)) return *std::move(hit);
  }
  Solver solver(model, options.budget);
  SolveResult r = warm != nullptr ? solver.minimize(*warm) : solver.minimize();
  if (options.use_cache) SolveCache::global().put(key, r);
  return r;
}

}  // namespace fmnet::smt
