// Common interface for telemetry imputation methods (paper §4 compares
// four: IterativeImputer, Transformer, Transformer+KAL,
// Transformer+KAL+CEM).
//
// An Imputer sees only what the operator has — the coarse-grained features
// and constraint data of an example — and produces the fine-grained
// queue-length series in packets. It must never read ex.target (the ground
// truth); evaluation code compares against the target afterwards.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/dataset.h"
#include "util/thread_pool.h"

namespace fmnet::nn {
class Module;
}  // namespace fmnet::nn

namespace fmnet::impute {

using telemetry::ImputationExample;

/// A fine-grained queue-length imputation method.
class Imputer {
 public:
  virtual ~Imputer() = default;

  /// Human-readable method name as it appears in result tables.
  virtual std::string name() const = 0;

  /// Fits the method to training examples. The default is a no-op: purely
  /// analytical methods (linear interpolation, iterative ridge refits, the
  /// FM-alone solver) have nothing to learn. Learned methods override this
  /// so callers — the scenario engine in particular — can train any
  /// registry-constructed imputer uniformly. `pool` null = global pool.
  virtual void fit(const std::vector<ImputationExample>& examples,
                   util::ThreadPool* pool = nullptr) {
    (void)examples;
    (void)pool;
  }

  /// Imputes the fine-grained queue length (in packets, length
  /// ex.window) from the example's coarse features/constraints.
  ///
  /// Concurrency contract: once the imputer is fitted or its checkpoint
  /// loaded, impute() may be called concurrently from any number of
  /// threads, and each call returns exactly what a serial call would.
  /// Implementations therefore write no shared state here: eval mode is
  /// settled at construction and at the end of fit, and any accounting is
  /// atomic. fit() and CheckpointableImputer::load() must not race
  /// impute().
  virtual std::vector<double> impute(const ImputationExample& ex) = 0;

  /// Imputes many independent windows; out[i] corresponds to batch[i].
  /// Loops impute(): every imputer serves through one per-window forward.
  /// Virtual so wrappers (e.g. timing harnesses) can observe the call.
  virtual std::vector<std::vector<double>> impute_batch(
      const std::vector<ImputationExample>& batch) {
    std::vector<std::vector<double>> out;
    out.reserve(batch.size());
    for (const ImputationExample& ex : batch) out.push_back(impute(ex));
    return out;
  }
};

/// An Imputer whose learned state lives in exactly one nn::Module, so the
/// scenario engine can checkpoint it through nn/serialize under a
/// content-addressed key. The module must be fully constructed (correct
/// architecture, deterministic init) straight from configuration: a warm
/// engine run loads weights into model() without ever calling fit().
class CheckpointableImputer : public Imputer {
 public:
  virtual nn::Module& model() = 0;

  /// Loads weights saved by nn::save_parameters(model(), ...), after
  /// which impute() is concurrency-safe. Throws CheckError on an
  /// architecture mismatch.
  void load(std::istream& in);
};

}  // namespace fmnet::impute
