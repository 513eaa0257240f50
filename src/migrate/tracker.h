// AccessTracker: per-dataset access heat, fed from the session read/write
// paths and consumed by flow::StagingScheduler::plan_migration.
//
// The paper's future-work direction ("the system can automatically decide
// which storage resources should be used according to the capacity and
// performance of each storage resource") needs an observed signal: which
// datasets are hot *now*. The tracker keeps cheap counters only — no
// virtual time is charged for recording — so it can stay always-on without
// perturbing the simulated experiments.
//
// Deliberately core-free (std + obs only): core::StorageSystem owns one
// tracker while the mover and the cache that read it depend on core, so
// this header must not close that cycle.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace msra::migrate {

/// Heat of one dataset ("app/dataset" key), all timesteps pooled.
struct DatasetHeat {
  std::uint64_t reads = 0;        ///< logical read operations
  std::uint64_t writes = 0;       ///< logical dump operations
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  double last_touch = 0.0;        ///< virtual time of the latest access

  // Exponentially decayed twins of the read counters (virtual-time
  // half-life, see AccessTracker::set_half_life). With decay off they track
  // the integer counters exactly (every access adds exactly 1.0 / `bytes`,
  // and integers below 2^53 are exact doubles), so consumers can key off the
  // decayed values unconditionally without changing default behaviour.
  double decayed_reads = 0.0;
  double decayed_read_bytes = 0.0;
  double decay_horizon = 0.0;     ///< virtual time the decayed values are at

  /// Reads declared but not yet issued: a campaign stage that names this
  /// dataset as an input counts as expected reuse from the moment the
  /// campaign is submitted (flow::StagingScheduler seeds this, and releases
  /// it when the consuming stage dispatches). Not decayed — a declaration
  /// does not go stale, it is withdrawn. 0 outside campaigns, so every
  /// consumer can add it unconditionally without changing default behaviour.
  double expected_reads = 0.0;

  /// The signal heat consumers should rank by: observed decayed reads plus
  /// declared future reads. With no campaigns in flight this is exactly
  /// `decayed_reads`.
  double anticipated_reads() const { return decayed_reads + expected_reads; }
};

class AccessTracker {
 public:
  /// `metrics` (may be null) receives mirror instruments:
  /// `migrate.tracker.reads` / `.writes` counters and a
  /// `migrate.tracker.datasets` gauge.
  explicit AccessTracker(obs::MetricsRegistry* metrics = nullptr);

  void record_read(const std::string& dataset_key, std::uint64_t bytes,
                   double now);
  void record_write(const std::string& dataset_key, std::uint64_t bytes,
                    double now);

  /// Adjusts the declared-future-read count by `delta` (negative to
  /// withdraw), clamped at zero. Campaign submission adds one per declared
  /// read intent; stage dispatch withdraws them again — so the cache's
  /// AdmissionJudge and the migration planner see an imminently-re-read
  /// dataset as hot *before* the first consumer read lands.
  void expect_reads(const std::string& dataset_key, double delta);

  /// Exponential time-decay of read heat: after `seconds` of virtual time
  /// without touches, `decayed_reads` halves. 0 (the default) disables decay
  /// entirely, keeping the decayed twins byte-identical to the counters.
  /// Stale heat otherwise pins cold datasets in cache admission and in
  /// migration promotion forever.
  void set_half_life(double seconds);
  double half_life() const;

  /// Heat of one dataset (zeroes if never touched). Decayed values are as
  /// of the dataset's last access.
  DatasetHeat heat(const std::string& dataset_key) const;

  /// Heat of one dataset with the decayed values rolled forward to `now`
  /// (no-op when decay is off or `now` is not ahead of the last access).
  DatasetHeat heat_at(const std::string& dataset_key, double now) const;

  /// Every tracked dataset, hottest first (by decayed read count, then
  /// decayed read bytes — identical to the raw-counter order when decay is
  /// off).
  std::vector<std::pair<std::string, DatasetHeat>> hottest() const;

  std::size_t tracked() const;
  void clear();

 private:
  void touch_locked(const std::string& dataset_key);
  void decay_to_locked(DatasetHeat& heat, double now) const;

  mutable std::mutex mutex_;
  std::map<std::string, DatasetHeat> heat_;
  double half_life_ = 0.0;
  obs::Counter* reads_ = nullptr;
  obs::Counter* writes_ = nullptr;
  obs::Gauge* datasets_ = nullptr;
};

}  // namespace msra::migrate
