// MigrationPlanner: predictor-priced move/copy/evict decisions.
//
// Implements the paper's stated future work — "the system can automatically
// decide which storage resources should be used according to the capacity
// and performance of each storage resource" — as a background planning pass
// over the replica catalog and the observed access heat:
//
//   * promotion: a hot dataset instance living only on slow media is copied
//     to faster media when the predicted future read savings exceed the
//     priced cost of the copy itself;
//   * demotion: under capacity pressure, cold instances are copied to tape
//     and their disk replica dropped (copy-then-commit-then-drop);
//   * eviction: a cold instance that already has another live replica just
//     loses the pressured replica — never the last live one.
//
// Every candidate is priced with predict::Predictor over the SAME
// runtime::PlanBuilder whole-object plans the engine later executes, so the
// planner's cost and the engine's bill agree exactly (Eq. 2 discipline:
// "sum of priced plans").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/system.h"
#include "predict/predictor.h"

namespace msra::migrate {

enum class MigrationKind {
  kPromote,    ///< copy to faster media, keep the source replica (archive)
  kDemote,     ///< copy to tape, then drop the pressured source replica
  kEvict,      ///< drop the pressured replica (another live replica exists)
  kRebalance,  ///< move between servers of the same class (cluster skew)
};

std::string_view migration_kind_name(MigrationKind kind);

/// One planned replica movement. Source and destination are
/// server-qualified: a demotion lands on the tape of the SAME server as the
/// pressured disk (server-side copy), and rebalance steps move data between
/// servers of the same storage class.
struct MigrationStep {
  MigrationKind kind = MigrationKind::kPromote;
  std::string app;
  std::string name;
  int timestep = 0;
  core::ReplicaAddress from = core::Location::kRemoteTape;  ///< source replica
  core::ReplicaAddress to = core::Location::kRemoteTape;    ///< copy destination (== from for evictions)
  std::string path;
  std::uint64_t bytes = 0;
  bool drop_source = false;
  double benefit = 0.0;  ///< predicted future read savings, seconds
  double cost = 0.0;     ///< priced migration time, seconds (0 for evictions)

  std::string label() const;  ///< "promote app/ds t0 REMOTETAPE->LOCALDISK"
};

/// A ranked batch of steps (demotions/evictions first — they free the space
/// promotions want — then promotions by descending net saving).
struct MigrationPlan {
  std::vector<MigrationStep> steps;
  std::uint64_t total_bytes = 0;     ///< payload bytes the batch will copy
  double predicted_cost = 0.0;       ///< sum of step costs
  double predicted_benefit = 0.0;    ///< sum of step benefits

  bool empty() const { return steps.empty(); }
};

/// Tuning knobs. The engine is OFF by default: nothing in the system moves
/// data unless a caller explicitly opts in.
struct MigrationConfig {
  bool enabled = false;
  /// Copy pacing: the engine stretches each step's virtual time so payload
  /// never streams faster than this (0 = unthrottled).
  std::uint64_t throttle_bytes_per_sec = 0;
  /// Planner cap on payload bytes per plan() round (0 = unlimited).
  std::uint64_t max_batch_bytes = 0;
  /// Minimum observed reads before a dataset counts as hot.
  std::uint64_t hot_reads = 2;
  /// Fraction of capacity above which a resource is under pressure.
  double pressure_watermark = 0.90;
  /// Demote/evict until usage drops back under this fraction.
  double target_watermark = 0.75;
  /// Cross-server rebalancing pass (clusters only): move the coldest
  /// remote-disk residents from the fullest server to the emptiest one
  /// whenever their usage fractions differ by more than `rebalance_gap`.
  /// Off by default — single-server systems have nowhere to rebalance to.
  bool rebalance = false;
  double rebalance_gap = 0.25;
};

class MigrationPlanner {
 public:
  /// `system` and `predictor` must outlive the planner. The planner opens
  /// its own catalog view over the system's metadata database and reads
  /// heat from the system's AccessTracker.
  MigrationPlanner(core::StorageSystem& system,
                   const predict::Predictor& predictor, MigrationConfig config);

  /// One planning round over the whole catalog: demotions/evictions for
  /// every (resource, server) over its pressure watermark, then a
  /// cross-server rebalancing pass (when enabled and the cluster has more
  /// than one server), then promotions of hot instances stuck on slower
  /// media, ranked by net saving and capped by `max_batch_bytes`.
  StatusOr<MigrationPlan> plan();

  /// Prices one step exactly as the engine will bill it: the sum of the
  /// whole-object read plan at `from` and the whole-object write plan at
  /// `to` (0 for evictions). Shared so planner cost == engine bill ==
  /// Predictor::price of the same plans.
  StatusOr<double> price_step(const MigrationStep& step) const;

  const MigrationConfig& config() const { return config_; }

  core::StorageSystem& system() { return system_; }

 private:
  /// Cheapest predicted whole-object read among the instance's live
  /// replicas (the session's replica choice under a predictor): the chosen
  /// address and its priced read time.
  StatusOr<std::pair<core::ReplicaAddress, double>> cheapest_live_read(
      const core::InstanceRecord& record) const;

  core::StorageSystem& system_;
  const predict::Predictor& predictor_;
  MigrationConfig config_;
  core::MetaCatalog catalog_;
};

}  // namespace msra::migrate
