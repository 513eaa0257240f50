// Priced cache admission (the cache's version of the paper's thesis: every
// placement decision is an I/O-time prediction).
//
// A candidate object is cached only when the money adds up:
//
//   benefit = (refetch - serve) * expected_reuse     [seconds saved]
//   damage  = sum over evicted victims of
//             victim.saved_per_hit * victim_reuse    [seconds lost]
//   admit  <=>  benefit > damage  (and benefit >= min_benefit_seconds)
//
// where `refetch` is the shared Predictor's Eq.-1 quote for re-reading the
// object from its origin resource, `serve` the analytic cost of the same
// read off the cache (kMemoryModel), and `expected_reuse` the dataset's
// (decayed) read heat from migrate::AccessTracker, capped at
// kMaxExpectedReuse. No heuristics: a cache slot is taken exactly when the
// predicted seconds saved exceed the predicted seconds lost.
#pragma once

#include <cstdint>
#include <string>

#include "cache/store.h"
#include "core/dataset.h"

namespace msra::predict {
class Predictor;
}  // namespace msra::predict

namespace msra::migrate {
class AccessTracker;
}  // namespace msra::migrate

namespace msra::cache {

/// Cap on the reuse multiplier taken from tracker heat, so one historic hot
/// streak cannot justify unbounded eviction damage.
inline constexpr double kMaxExpectedReuse = 16.0;

struct AdmissionConfig {
  /// Reject when the total predicted saving is below this floor (filters
  /// churn on objects whose refetch is barely slower than the cache).
  double min_benefit_seconds = 0.0;
};

enum class AdmissionOutcome {
  kAdmit,           ///< priced in: benefit exceeds damage
  kAlreadyCached,   ///< resident; nothing to decide
  kTooLarge,        ///< larger than the whole cache
  kUnpriced,        ///< no Predictor refetch quote for the origin
  kNoBenefit,       ///< cache serve is no faster than refetch (or floor)
  kEvictionDamage,  ///< saving is real but the victims were worth more
};

std::string_view admission_outcome_name(AdmissionOutcome outcome);

/// The full priced verdict, surfaced verbatim by `msractl cache explain`.
struct AdmissionVerdict {
  AdmissionOutcome outcome = AdmissionOutcome::kUnpriced;
  double refetch_seconds = 0.0;   ///< Eq. 1 quote: re-read from origin
  double serve_seconds = 0.0;     ///< Eq. 1 analytic: read from cache memory
  double expected_reuse = 0.0;    ///< decayed heat, clamped to [1, cap]
  double benefit_seconds = 0.0;   ///< (refetch - serve) * reuse
  double damage_seconds = 0.0;    ///< victims' saved_per_hit * their reuse
  double saved_per_hit = 0.0;     ///< refetch - serve (recorded on hits)

  bool admit() const { return outcome == AdmissionOutcome::kAdmit; }
};

class AdmissionJudge {
 public:
  /// `predictor` may be null (every candidate is then kUnpriced);
  /// `tracker` may be null (expected reuse is then 1).
  AdmissionJudge(const predict::Predictor* predictor,
                 const migrate::AccessTracker* tracker,
                 AdmissionConfig config);

  /// Prices caching `path` (`bytes` long, refetchable from `origin`) into
  /// `store` at virtual time `now`. Pure: mutates nothing.
  AdmissionVerdict judge(const CacheStore& store, const std::string& path,
                         const std::string& dataset_key, std::uint64_t bytes,
                         core::Location origin, double now) const;

  const AdmissionConfig& config() const { return config_; }

 private:
  double expected_reuse(const std::string& dataset_key, double now) const;

  const predict::Predictor* predictor_;
  const migrate::AccessTracker* tracker_;
  AdmissionConfig config_;
};

}  // namespace msra::cache
