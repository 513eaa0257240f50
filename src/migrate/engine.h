// MigrationEngine: heat-driven migration policy over the unified mover.
//
// The engine owns the *decisions* — MigrationPlanner turns observed heat
// and capacity pressure into a ranked MigrationPlan — while the byte
// movement itself routes through flow::StagingScheduler, the system's one
// priced mover (copy -> commit -> drop via PlanExecutor, throttled,
// background class, billed io.flow.*). Promotion, demotion, eviction and
// rebalance are therefore just StageTask kinds; the engine maps steps to
// tasks, executes the batch, and records the per-kind migrate.* counters.
#pragma once

#include <vector>

#include "flow/stager.h"
#include "migrate/planner.h"

namespace msra::migrate {

/// What happened to one step.
struct MigrationOutcome {
  MigrationStep step;
  Status status = Status::Ok();
  double priced_cost = 0.0;       ///< planner price of the same step, seconds
  double executed_seconds = 0.0;  ///< virtual time the copy actually took
  double throttle_wait = 0.0;     ///< extra virtual time added by the throttle
};

/// One executed batch.
struct MigrationReport {
  std::vector<MigrationOutcome> outcomes;
  std::uint64_t moved_bytes = 0;        ///< payload copied (promote/demote)
  std::uint64_t dropped_replicas = 0;   ///< catalog replicas removed
  double executed_seconds = 0.0;        ///< sum over steps (incl. throttle)

  bool ok() const;
  std::size_t failures() const;
};

class MigrationEngine {
 public:
  /// `system` and `predictor` must outlive the engine.
  MigrationEngine(core::StorageSystem& system,
                  const predict::Predictor& predictor, MigrationConfig config);

  /// Executes every step of `plan` through the mover, in plan order on the
  /// calling thread; each step is independent — one failing never blocks
  /// the others. Outcomes come back in plan order.
  MigrationReport execute(const MigrationPlan& plan);

  /// One full background round: plan, then execute. Returns the report of
  /// the executed batch (empty when the engine is disabled or there is
  /// nothing to do).
  StatusOr<MigrationReport> run_once();

  MigrationPlanner& planner() { return planner_; }
  const MigrationConfig& config() const { return planner_.config(); }

  /// The mover this engine drives — shared surface for callers that also
  /// run campaigns (one scheduler instance keeps one pin registry).
  flow::StagingScheduler& stager() { return stager_; }

 private:
  MigrationPlanner planner_;
  flow::StagingScheduler stager_;
};

}  // namespace msra::migrate
