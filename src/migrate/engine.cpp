#include "migrate/engine.h"

#include <algorithm>

namespace msra::migrate {

namespace {

flow::StageTaskKind task_kind(MigrationKind kind) {
  switch (kind) {
    case MigrationKind::kPromote: return flow::StageTaskKind::kPromote;
    case MigrationKind::kDemote: return flow::StageTaskKind::kDemote;
    case MigrationKind::kEvict: return flow::StageTaskKind::kEvict;
    case MigrationKind::kRebalance: return flow::StageTaskKind::kRebalance;
  }
  return flow::StageTaskKind::kPromote;
}

flow::StagingConfig staging_config(const MigrationConfig& config) {
  flow::StagingConfig out;
  out.throttle_bytes_per_sec = config.throttle_bytes_per_sec;
  return out;
}

}  // namespace

bool MigrationReport::ok() const { return failures() == 0; }

std::size_t MigrationReport::failures() const {
  std::size_t n = 0;
  for (const auto& outcome : outcomes) {
    if (!outcome.status.ok()) ++n;
  }
  return n;
}

MigrationEngine::MigrationEngine(core::StorageSystem& system,
                                 const predict::Predictor& predictor,
                                 MigrationConfig config)
    : planner_(system, predictor, config),
      stager_(system, &predictor, staging_config(config)) {}

MigrationReport MigrationEngine::execute(const MigrationPlan& plan) {
  std::vector<flow::StageTask> tasks;
  tasks.reserve(plan.steps.size());
  for (const MigrationStep& step : plan.steps) {
    flow::StageTask task;
    task.kind = task_kind(step.kind);
    task.app = step.app;
    task.name = step.name;
    task.timestep = step.timestep;
    task.from = step.from;
    task.to = step.to;
    task.path = step.path;
    task.bytes = step.bytes;
    task.drop_source = step.drop_source;
    task.benefit = step.benefit;
    task.cost = step.cost;
    tasks.push_back(std::move(task));
  }
  const std::vector<flow::StageOutcome> executed = stager_.execute(tasks);

  MigrationReport report;
  report.outcomes.resize(plan.steps.size());
  obs::MetricsRegistry& metrics = planner_.system().metrics();
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const flow::StageOutcome& outcome = executed[i];
    MigrationOutcome& mapped = report.outcomes[i];
    mapped.step = plan.steps[i];
    mapped.status = outcome.status;
    mapped.priced_cost = outcome.priced_cost;
    mapped.executed_seconds = outcome.executed_seconds;
    mapped.throttle_wait = outcome.throttle_wait;

    report.executed_seconds += mapped.executed_seconds;
    if (!mapped.status.ok()) {
      metrics.counter("migrate.failures")->increment();
      continue;
    }
    switch (mapped.step.kind) {
      case MigrationKind::kPromote:
        metrics.counter("migrate.promotions")->increment();
        break;
      case MigrationKind::kDemote:
        metrics.counter("migrate.demotions")->increment();
        break;
      case MigrationKind::kEvict:
        metrics.counter("migrate.evictions")->increment();
        break;
      case MigrationKind::kRebalance:
        metrics.counter("migrate.rebalances")->increment();
        break;
    }
    if (mapped.step.kind != MigrationKind::kEvict) {
      metrics.counter("migrate.moved_bytes")->add(mapped.step.bytes);
      report.moved_bytes += mapped.step.bytes;
    }
    if (mapped.step.drop_source) ++report.dropped_replicas;
  }
  return report;
}

StatusOr<MigrationReport> MigrationEngine::run_once() {
  if (!planner_.config().enabled) return MigrationReport{};
  MSRA_ASSIGN_OR_RETURN(MigrationPlan plan, planner_.plan());
  return execute(plan);
}

}  // namespace msra::migrate
