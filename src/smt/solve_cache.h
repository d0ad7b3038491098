// Content-addressed repair cache: recurring constraint systems skip the
// solver entirely.
//
// CEM repair poses the same constraint system over and over — telemetry
// violation patterns recur across windows, ports and scenario reruns — so
// the serving path keys each constraint system by its 128-bit digest
// (format.h repair_key: one allocation-free pass over the model, blind to
// names and to constraint, clause and term order) and memoises the
// *definitive* solver answers. Cache safety rests on two invariants:
//
//   * only kOptimal / kUnsat results are stored — a budget-limited kSat or
//     kUnknown depends on the budget, not just the model, and must never
//     be replayed;
//   * stored assignments come from canonical extraction (solver.h), so a
//     hit is bit-identical to what a cold solve of the same model returns.
//
// Unlike the artifact store this cache is in-memory and process-wide: the
// entries are tiny (one assignment vector), the hit path must cost
// microseconds not a filesystem round-trip, and repair results are already
// reproducible from the scenario artifacts on disk. Hits and misses are
// exported as smt.cache.{hit,miss} counters.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "smt/format.h"
#include "smt/solver.h"

namespace fmnet::smt {

/// Thread-safe in-memory map from repair_key to definitive SolveResult.
class SolveCache {
 public:
  explicit SolveCache(std::size_t max_entries = 1 << 16)
      : max_entries_(max_entries) {}

  /// Process-wide instance used by repair_minimize.
  static SolveCache& global();

  /// Returns the memoised result (from_cache = true, zero search stats) or
  /// nullopt. Bumps smt.cache.hit / smt.cache.miss.
  std::optional<SolveResult> find(const RepairKey& key);

  /// Stores a definitive (kOptimal/kUnsat) result; other statuses are
  /// ignored. When full, the whole map is dropped (epoch eviction) — the
  /// bound exists to cap memory, not to maximise retention.
  void put(const RepairKey& key, const SolveResult& result);

  void clear();
  std::size_t size() const;

 private:
  struct Entry {
    Status status;
    std::vector<std::int64_t> assignment;
    std::int64_t objective;
  };

  struct KeyHash {
    std::size_t operator()(const RepairKey& k) const { return k.a; }
  };

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<RepairKey, Entry, KeyHash> map_;
};

/// Knobs for the cached repair path. Defaults reproduce a plain cold
/// minimize().
struct RepairOptions {
  Budget budget{};
  /// Consult and fill SolveCache::global().
  bool use_cache = false;
};

/// Front door for CEM repair solves: cache lookup, then (on miss) a warm or
/// cold minimize, then cache fill. The returned assignment is bit-identical
/// with and without the cache and the warm start whenever the solve
/// completes (canonical extraction + definitive-only caching).
SolveResult repair_minimize(const Model& model, const RepairOptions& options,
                            const WarmStart* warm = nullptr);

}  // namespace fmnet::smt
