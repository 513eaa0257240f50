#include "flow/run.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/client.h"
#include "core/fleet.h"
#include "flow/campaign.h"
#include "obs/trace.h"

namespace msra::core {

StatusOr<flow::CampaignReport> Fleet::submit_campaign(
    const flow::Campaign& campaign) {
  return submit_campaign(campaign, flow::CampaignOptions{});
}

StatusOr<flow::CampaignReport> Fleet::submit_campaign(
    const flow::Campaign& campaign, const flow::CampaignOptions& options) {
  MSRA_ASSIGN_OR_RETURN(std::vector<std::vector<std::size_t>> producers,
                        campaign.producers());
  MSRA_ASSIGN_OR_RETURN(std::vector<std::vector<std::size_t>> waves,
                        campaign.waves());

  flow::CampaignReport report;
  report.campaign = campaign.name();
  report.stages.resize(campaign.stages().size());

  flow::StagingScheduler* stager = options.stager;
  if (stager != nullptr) stager->pin_campaign(campaign);

  // One tenant actor per stage, classed per its declaration.
  std::vector<Client*> clients;
  clients.reserve(campaign.stages().size());
  for (const flow::StageDecl& decl : campaign.stages()) {
    SessionOptions session;
    session.application = campaign.application();
    session.user = campaign.name();
    session.predictor = options.predictor;
    session.tenant_class = decl.tenant_class;
    clients.push_back(
        &add_client(campaign.name() + "/" + decl.name, std::move(session)));
  }

  // Virtual time each prestaged input becomes readable: a replica committed
  // at T is not available to a consumer clock before T.
  std::map<flow::DatasetRef, double> ready_at;
  auto run_staging = [&](std::vector<flow::StageTask> tasks) {
    if (tasks.empty()) return;
    for (flow::StageOutcome& outcome : stager->execute(tasks)) {
      if (outcome.status.ok() &&
          outcome.task.kind == flow::StageTaskKind::kPrestage) {
        const flow::DatasetRef ref{outcome.task.name, outcome.task.timestep};
        auto it = ready_at.find(ref);
        ready_at[ref] = it == ready_at.end()
                            ? outcome.finished_at
                            : std::max(it->second, outcome.finished_at);
      }
      report.staging.push_back(std::move(outcome));
    }
  };

  std::vector<bool> dispatched(campaign.stages().size(), false);
  // External inputs that already exist can stage before the first wave —
  // the same all-undispatched plan the CampaignPricer quotes against.
  if (stager != nullptr) run_staging(stager->plan_prestage(campaign, dispatched));

  simkit::Timeline span_clock;
  {
    obs::Span span(&system_.tracer(), span_clock,
                   "campaign " + campaign.name());
    for (const std::vector<std::size_t>& wave : waves) {
      // Marked before staging re-plans: a dispatching stage's reads are in
      // flight, no longer a prestage target.
      for (std::size_t idx : wave) dispatched[idx] = true;
      std::map<std::size_t, Completion*> completions;
      for (std::size_t idx : wave) {
        double start = 0.0;
        for (std::size_t producer : producers[idx]) {
          start = std::max(start, report.stages[producer].finished_at);
        }
        for (const flow::DatasetRef& ref : campaign.reads_of(idx)) {
          auto it = ready_at.find(ref);
          if (it != ready_at.end()) start = std::max(start, it->second);
        }
        clients[idx]->timeline().advance_to(start);
        report.stages[idx].stage = campaign.stages()[idx].name;
        report.stages[idx].started_at = start;
        Workload workload = campaign.stages()[idx].workload;
        workload.classed(campaign.stages()[idx].tenant_class);
        completions[idx] = submit(*clients[idx], std::move(workload));
      }
      run_until_idle();
      for (std::size_t idx : wave) {
        report.stages[idx].status = completions[idx]->status();
        report.stages[idx].finished_at = completions[idx]->finished_at();
        if (stager != nullptr) stager->release_stage(campaign, idx);
      }
      if (stager != nullptr) {
        // Copies toward the remaining waves overlap the next wave's I/O;
        // staged copies past their last consumer are dropped.
        run_staging(stager->plan_prestage(campaign, dispatched));
        run_staging(stager->plan_gc());
      }
    }

    double first_start = 0.0;
    double last_finish = 0.0;
    for (std::size_t i = 0; i < report.stages.size(); ++i) {
      if (i == 0 || report.stages[i].started_at < first_start) {
        first_start = report.stages[i].started_at;
      }
      last_finish = std::max(last_finish, report.stages[i].finished_at);
    }
    report.makespan = std::max(0.0, last_finish - first_start);
    span_clock.advance_to(last_finish);
  }

  obs::MetricsRegistry& metrics = system_.metrics();
  if (metrics.enabled()) {
    metrics.counter("flow.campaigns")->increment();
    metrics.counter("flow.campaign.stages")->add(report.stages.size());
    metrics.histogram("flow.campaign.makespan")->record(report.makespan);
  }
  return report;
}

}  // namespace msra::core
