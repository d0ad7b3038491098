#include "impute/knowledge_imputer.h"

#include "obs/span.h"
#include "util/check.h"

namespace fmnet::impute {

KnowledgeAugmentedImputer::KnowledgeAugmentedImputer(
    std::shared_ptr<Imputer> base, CemConfig cem_config,
    util::ThreadPool* pool)
    : base_(std::move(base)), cem_(cem_config), pool_(pool) {
  FMNET_CHECK(base_ != nullptr, "null base imputer");
}

void KnowledgeAugmentedImputer::account(const CemResult& r) {
  total_cem_seconds_.fetch_add(r.seconds, std::memory_order_relaxed);
  cem_calls_.fetch_add(1, std::memory_order_relaxed);
  if (!r.feasible) infeasible_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<double> KnowledgeAugmentedImputer::impute(
    const ImputationExample& ex) {
  obs::ScopedSpan span("impute");
  const std::vector<double> raw = base_->impute(ex);
  const CemConstraints c =
      to_packet_constraints(ex.constraints, ex.qlen_scale);
  const CemResult r = cem_.correct(raw, c, pool_);
  account(r);
  return r.corrected;
}

}  // namespace fmnet::impute
