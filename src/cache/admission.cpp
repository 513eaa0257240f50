#include "cache/admission.h"

#include <algorithm>

#include "cache/endpoint.h"
#include "migrate/tracker.h"
#include "predict/predictor.h"
#include "runtime/plan.h"

namespace msra::cache {

std::string_view admission_outcome_name(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmit: return "admit";
    case AdmissionOutcome::kAlreadyCached: return "already-cached";
    case AdmissionOutcome::kTooLarge: return "too-large";
    case AdmissionOutcome::kUnpriced: return "unpriced";
    case AdmissionOutcome::kNoBenefit: return "no-benefit";
    case AdmissionOutcome::kEvictionDamage: return "eviction-damage";
  }
  return "?";
}

AdmissionJudge::AdmissionJudge(const predict::Predictor* predictor,
                               const migrate::AccessTracker* tracker,
                               AdmissionConfig config)
    : predictor_(predictor), tracker_(tracker), config_(config) {}

double AdmissionJudge::expected_reuse(const std::string& dataset_key,
                                      double now) const {
  double reuse = 1.0;
  if (tracker_ != nullptr) {
    // An offer arrives right after the read that produced it, so decayed
    // heat is >= 1 for a live dataset; the floor only matters for seeded /
    // cleared trackers. Declared-but-unissued campaign reads count too, so
    // the judge and the migration planner agree about a dataset a campaign
    // stage is about to re-read.
    reuse = tracker_->heat_at(dataset_key, now).anticipated_reads();
  }
  return std::clamp(reuse, 1.0, kMaxExpectedReuse);
}

AdmissionVerdict AdmissionJudge::judge(const CacheStore& store,
                                       const std::string& path,
                                       const std::string& dataset_key,
                                       std::uint64_t bytes,
                                       core::Location origin,
                                       double now) const {
  AdmissionVerdict verdict;
  if (store.contains(path)) {
    verdict.outcome = AdmissionOutcome::kAlreadyCached;
    return verdict;
  }
  const InsertPlan plan = store.plan_insert(bytes);
  if (!plan.fits) {
    verdict.outcome = AdmissionOutcome::kTooLarge;
    return verdict;
  }
  if (predictor_ == nullptr) {
    verdict.outcome = AdmissionOutcome::kUnpriced;
    return verdict;
  }
  StatusOr<double> refetch = predictor_->price(
      runtime::PlanBuilder::object_read(path, bytes), origin);
  if (!refetch.ok()) {
    verdict.outcome = AdmissionOutcome::kUnpriced;
    return verdict;
  }
  verdict.refetch_seconds = *refetch;
  // Analytic Eq. 1 for the same whole-object read served from the cache:
  // Tconn = Tconnclose = 0, kMemoryModel supplies the rest. This is exactly
  // what CacheEndpoint bills on a hit.
  verdict.serve_seconds = kMemoryModel.open_read +
                          kMemoryModel.read_time(bytes) +
                          kMemoryModel.close_read;
  verdict.expected_reuse = expected_reuse(dataset_key, now);
  verdict.saved_per_hit = verdict.refetch_seconds - verdict.serve_seconds;
  verdict.benefit_seconds = verdict.saved_per_hit * verdict.expected_reuse;
  for (const CacheEntryInfo& victim : plan.evicted) {
    verdict.damage_seconds +=
        victim.saved_per_hit * expected_reuse(victim.dataset_key, now);
  }
  if (verdict.saved_per_hit <= 0.0 ||
      verdict.benefit_seconds < config_.min_benefit_seconds) {
    verdict.outcome = AdmissionOutcome::kNoBenefit;
    return verdict;
  }
  if (verdict.benefit_seconds <= verdict.damage_seconds) {
    verdict.outcome = AdmissionOutcome::kEvictionDamage;
    return verdict;
  }
  verdict.outcome = AdmissionOutcome::kAdmit;
  return verdict;
}

}  // namespace msra::cache
