#include "flow/pricer.h"

#include <algorithm>
#include <map>

#include "core/catalog.h"
#include "core/placement.h"
#include "flow/stager.h"
#include "runtime/plan.h"

namespace msra::flow {

namespace {

bool concrete(core::Location location) {
  return location == core::Location::kLocalDisk ||
         location == core::Location::kRemoteDisk ||
         location == core::Location::kRemoteTape;
}

}  // namespace

CampaignPricer::CampaignPricer(core::StorageSystem& system,
                               const predict::Predictor& predictor)
    : system_(system), predictor_(predictor) {}

StatusOr<CampaignPrice> CampaignPricer::price(const Campaign& campaign,
                                              StagingScheduler* stager) const {
  MSRA_ASSIGN_OR_RETURN(std::vector<std::vector<std::size_t>> producers,
                        campaign.producers());
  const core::MetaCatalog& catalog = system_.catalog();

  // Where staging WILL put each external input: the prestage plan over the
  // current catalog (nothing dispatched), keyed by (dataset, timestep).
  std::map<DatasetRef, core::ReplicaAddress> prestaged;
  if (stager != nullptr) {
    for (const StageTask& task : stager->plan_prestage(campaign, {})) {
      prestaged[DatasetRef{task.name, task.timestep}] = task.to;
    }
  }

  // Where each upstream output WILL live, recorded as the walk passes its
  // producer — the cross-stage staleness later readers price against.
  std::map<DatasetRef, core::ReplicaAddress> produced;

  CampaignPrice out;
  out.stages.resize(campaign.stages().size());
  for (std::size_t i = 0; i < campaign.stages().size(); ++i) {
    const StageDecl& decl = campaign.stages()[i];
    StagePriceRow& row = out.stages[i];
    row.stage = decl.name;
    row.tenant_class = decl.tenant_class;
    row.producers = producers[i];

    std::vector<predict::PlacedPlan> placed;
    for (const core::Workload::IoIntent& intent : decl.workload.intents()) {
      IntentPrice price_row;
      price_row.kind = intent.kind;
      price_row.dataset = intent.dataset;
      price_row.timestep = intent.timestep;
      const DatasetRef ref{intent.dataset, intent.timestep};
      const std::string key = campaign.dataset_key(intent.dataset);

      if (intent.kind == core::Workload::IoIntent::Kind::kWrite) {
        auto record = catalog.dataset(campaign.application(), intent.dataset);
        if (!record.ok()) record = catalog.find_dataset(intent.dataset);
        if (!record.ok() || !concrete(record->resolved)) {
          price_row.note = "unpriced: dataset not registered";
          row.intents.push_back(std::move(price_row));
          continue;
        }
        // Writes target the dataset's resolved placement, sharded over the
        // cluster exactly like the session's own write address.
        const int server =
            record->resolved == core::Location::kLocalDisk
                ? 0
                : core::shard_server(intent.dataset, record->resolved,
                                     system_.cluster_size());
        price_row.address = {record->resolved, server};
        price_row.note = "resolved placement";
        predict::PlacedPlan plan;
        plan.plan = runtime::PlanBuilder::object_write(
            key + "/t" + std::to_string(intent.timestep),
            record->desc.global_bytes(), srb::OpenMode::kOverwrite);
        plan.location = price_row.address.location;
        auto seconds = predictor_.price(plan.plan, plan.location);
        price_row.seconds = seconds.ok() ? *seconds : 0.0;
        placed.push_back(std::move(plan));
        // Later readers quote against this future location, not against the
        // catalog's current (possibly empty) state.
        produced[ref] = price_row.address;
        row.intents.push_back(std::move(price_row));
        continue;
      }

      // Read: producer output > prestage destination > cheapest live replica.
      std::uint64_t bytes = 0;
      std::string path = key + "/t" + std::to_string(intent.timestep);
      bool resolved = false;
      auto produced_it = produced.find(ref);
      if (produced_it != produced.end()) {
        price_row.address = produced_it->second;
        price_row.note = "producer output";
        auto record = catalog.dataset(campaign.application(), intent.dataset);
        if (!record.ok()) record = catalog.find_dataset(intent.dataset);
        if (record.ok()) {
          bytes = record->desc.global_bytes();
          resolved = true;
        }
      } else {
        const auto [app, name] = core::MetaCatalog::split_key(key);
        auto instance = catalog.instance(app, name, intent.timestep);
        if (instance.ok()) {
          bytes = instance->bytes;
          path = instance->path;
          auto prestage_it = prestaged.find(ref);
          if (prestage_it != prestaged.end()) {
            price_row.address = prestage_it->second;
            price_row.note = "prestaged";
            resolved = true;
          } else if (auto cheapest =
                         cheapest_live_read(system_, predictor_, *instance);
                     cheapest.ok()) {
            price_row.address = cheapest->first;
            price_row.note = "catalog replica";
            resolved = true;
          }
        }
      }
      if (!resolved) {
        price_row.note = "unpriced: no producer and no live replica";
        row.intents.push_back(std::move(price_row));
        continue;
      }
      predict::PlacedPlan plan;
      plan.plan = runtime::PlanBuilder::object_read(path, bytes);
      plan.location = price_row.address.location;
      auto seconds = predictor_.price(plan.plan, plan.location);
      price_row.seconds = seconds.ok() ? *seconds : 0.0;
      placed.push_back(std::move(plan));
      row.intents.push_back(std::move(price_row));
    }

    MSRA_ASSIGN_OR_RETURN(row.seconds, predictor_.price_serial(placed));
    for (std::size_t producer : row.producers) {
      row.start = std::max(row.start, out.stages[producer].finish);
    }
    row.finish = row.start + row.seconds;
    out.total += row.seconds;
    out.makespan = std::max(out.makespan, row.finish);
  }
  return out;
}

}  // namespace msra::flow
