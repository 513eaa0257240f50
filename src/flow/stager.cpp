#include "flow/stager.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cache/cache.h"
#include "common/log.h"
#include "core/balancer.h"
#include "core/placement.h"
#include "flow/campaign.h"
#include "obs/trace.h"
#include "qos/admission.h"
#include "runtime/plan.h"
#include "simkit/qos.h"

namespace msra::flow {

std::string_view stage_task_kind_name(StageTaskKind kind) {
  switch (kind) {
    case StageTaskKind::kPromote: return "promote";
    case StageTaskKind::kDemote: return "demote";
    case StageTaskKind::kEvict: return "evict";
    case StageTaskKind::kRebalance: return "rebalance";
    case StageTaskKind::kPrestage: return "prestage";
    case StageTaskKind::kGc: return "gc";
  }
  return "?";
}

namespace {

/// Copyless kinds only touch the catalog and the source object.
bool copyless(StageTaskKind kind) {
  return kind == StageTaskKind::kEvict || kind == StageTaskKind::kGc;
}

}  // namespace

std::string StageTask::label() const {
  std::string out(stage_task_kind_name(kind));
  out += " " + app + "/" + name + " t" + std::to_string(timestep) + " " +
         core::address_name(from);
  if (!copyless(kind)) {
    out += "->" + core::address_name(to);
  }
  return out;
}

StagingScheduler::StagingScheduler(core::StorageSystem& system,
                                   const predict::Predictor* predictor,
                                   StagingConfig config)
    : system_(system),
      predictor_(predictor),
      config_(config),
      catalog_(&system.metadb()) {}

StatusOr<double> StagingScheduler::price_move(const predict::Predictor& predictor,
                                              const std::string& path,
                                              std::uint64_t bytes,
                                              core::ReplicaAddress from,
                                              core::ReplicaAddress to) {
  MSRA_ASSIGN_OR_RETURN(
      double read_seconds,
      predictor.price(runtime::PlanBuilder::object_read(path, bytes),
                      from.location));
  MSRA_ASSIGN_OR_RETURN(
      double write_seconds,
      predictor.price(runtime::PlanBuilder::object_write(
                          path, bytes, srb::OpenMode::kOverwrite),
                      to.location));
  return read_seconds + write_seconds;
}

StatusOr<double> StagingScheduler::price_task(const StageTask& task) const {
  if (copyless(task.kind)) return 0.0;  // metadata-only
  if (predictor_ == nullptr) return 0.0;
  return price_move(*predictor_, task.path, task.bytes, task.from, task.to);
}

double StagingScheduler::idle_window(const StageTask& task) const {
  const core::Balancer& balancer = system_.balancer();
  double window = balancer.backlog_seconds(task.from);
  if (!copyless(task.kind)) {
    window = std::max(window, balancer.backlog_seconds(task.to));
  }
  return window;
}

Status StagingScheduler::copy_object(simkit::Timeline& timeline,
                                     const StageTask& task) {
  runtime::StorageEndpoint& src = system_.endpoint(task.from);
  runtime::StorageEndpoint& dst = system_.endpoint(task.to);
  if (!src.available()) {
    return Status::Unavailable("staging source " +
                               core::address_name(task.from) + " is down");
  }
  if (!dst.available()) {
    return Status::Unavailable("staging destination " +
                               core::address_name(task.to) + " is down");
  }
  if (dst.free_bytes() < task.bytes) {
    return Status::CapacityExceeded("no room for " + task.path + " on " +
                                    core::address_name(task.to));
  }
  std::vector<std::byte> payload(task.bytes);
  obs::TraceRecorder* tracer = &system_.tracer();
  MSRA_RETURN_IF_ERROR(runtime::PlanExecutor::execute(
      runtime::PlanBuilder::object_read(task.path, task.bytes), src, timeline,
      payload, {}, tracer));
  return runtime::PlanExecutor::execute(
      runtime::PlanBuilder::object_write(task.path, task.bytes,
                                         srb::OpenMode::kOverwrite),
      dst, timeline, {}, payload, tracer);
}

Status StagingScheduler::commit(simkit::Timeline& timeline,
                                const StageTask& task) {
  obs::MetricsRegistry& metrics = system_.metrics();
  bool drop = false;
  {
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    if (!copyless(task.kind)) {
      MSRA_RETURN_IF_ERROR(
          catalog_.add_replica(task.app, task.name, task.timestep, task.to));
    }
    if (task.drop_source) {
      // CASTOR-style GC guard: an undispatched campaign stage still names
      // this instance — its read quote was priced against the current
      // placement, so the replica stays until the last consumer dispatches.
      if (pinned(task.dataset_key(), task.timestep)) {
        metrics.counter("flow.gc.refused")->increment();
        return Status::FailedPrecondition(
            "refusing to drop " + task.dataset_key() + " t" +
            std::to_string(task.timestep) +
            ": still named by an undispatched campaign stage");
      }
      // Safety invariant: never drop the last live replica. Re-checked at
      // commit time under the lock — the world may have changed since the
      // task was planned.
      MSRA_ASSIGN_OR_RETURN(
          core::InstanceRecord record,
          catalog_.instance(task.app, task.name, task.timestep));
      bool other_live = false;
      for (core::ReplicaAddress address : record.replicas) {
        if (address != task.from && system_.endpoint(address).available()) {
          other_live = true;
          break;
        }
      }
      if (!other_live) {
        return Status::PermissionDenied(
            "refusing to drop the last live replica of " + record.dataset_key +
            " t" + std::to_string(task.timestep));
      }
      MSRA_RETURN_IF_ERROR(catalog_.remove_replica(task.app, task.name,
                                                   task.timestep, task.from));
      drop = true;
    }
  }
  if (drop) {
    // Physical removal last, outside the catalog lock: new readers already
    // resolve to the surviving replicas, and a reader still holding an open
    // handle on this object is covered by the resource's deferred unlink —
    // counted here as the flow.gc unlink path.
    Status removed = system_.endpoint(task.from).remove(timeline, task.path);
    if (!removed.ok()) {
      MSRA_LOG(kWarn) << "staging: source object cleanup failed: "
                      << removed.to_string();
    } else {
      metrics.counter("flow.gc.unlinks")->increment();
    }
    // A dropped replica also invalidates the mid-tier cache entry: its
    // admission was priced against a refetch quote that no longer holds
    // (pinned in-flight reads keep their snapshot, as everywhere).
    if (cache::ReadCache* cache = system_.cache()) {
      cache->invalidate(task.path);
    }
  }
  return Status::Ok();
}

void StagingScheduler::run_task(const StageTask& task, StageOutcome* outcome) {
  outcome->task = task;
  auto priced = price_task(task);
  outcome->priced_cost = priced.ok() ? *priced : 0.0;
  outcome->started_at = task.start_at;

  // The mover is the system's own traffic: every device booking a task
  // makes carries the configured (background) class, so a wfq/edf
  // policy keeps tenant reads ahead of replica shuffling.
  simkit::QosScope scope(system_.qos_tag(config_.tenant_class));
  simkit::Timeline timeline;
  timeline.advance_to(task.start_at);  // idle window (0 = start now)
  {
    obs::Span span(&system_.tracer(), timeline, "flow " + task.label());
    Status status = Status::Ok();
    if (admission_ != nullptr && !copyless(task.kind)) {
      qos::AdmissionDecision decision = admission_->decide_move(
          task.path, task.bytes, task.from, task.to, config_.tenant_class,
          timeline.now());
      if (decision.outcome == qos::AdmissionDecision::Outcome::kReject) {
        status = Status::ResourceExhausted("staging deferred: " +
                                           decision.reason);
      }
    }
    if (status.ok() && !copyless(task.kind)) {
      status = copy_object(timeline, task);
    }
    // Throttle: stretch the task so payload never streams faster than the
    // configured bytes/sec (reported separately — billed virtual time stays
    // equal to executed virtual time).
    if (status.ok() && !copyless(task.kind) &&
        config_.throttle_bytes_per_sec > 0) {
      const double floor_seconds =
          task.start_at + static_cast<double>(task.bytes) /
                              static_cast<double>(config_.throttle_bytes_per_sec);
      if (timeline.now() < floor_seconds) {
        outcome->throttle_wait = floor_seconds - timeline.now();
        timeline.advance(outcome->throttle_wait);
      }
    }
    if (status.ok()) status = commit(timeline, task);
    outcome->status = std::move(status);
  }
  outcome->finished_at = timeline.now();
  outcome->executed_seconds = timeline.now() - task.start_at;

  obs::MetricsRegistry& metrics = system_.metrics();
  metrics.histogram("io.flow.copy_seconds")->record(outcome->executed_seconds);
  metrics.histogram("io.flow.priced_cost")->record(outcome->priced_cost);
  metrics.histogram("io.flow.benefit")->record(task.benefit);
  if (outcome->throttle_wait > 0.0) {
    metrics.histogram("io.flow.throttle_seconds")->record(outcome->throttle_wait);
  }
  if (!outcome->status.ok()) {
    metrics.counter("flow.failures")->increment();
    return;
  }
  metrics.counter("flow.moves")->increment();
  if (!copyless(task.kind)) {
    metrics.counter("flow.moved_bytes")->add(task.bytes);
  }
  if (task.kind == StageTaskKind::kPrestage) {
    metrics.counter("flow.prestage.copies")->increment();
    std::lock_guard<std::mutex> lock(pin_mutex_);
    staged_.push_back(StagedCopy{task.app, task.name, task.timestep, task.to,
                                 task.bytes});
  }
  if (task.kind == StageTaskKind::kGc) {
    metrics.counter("flow.gc.dropped")->increment();
  }
}

std::vector<StageOutcome> StagingScheduler::execute(
    const std::vector<StageTask>& tasks) {
  std::vector<StageOutcome> outcomes(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    run_task(tasks[i], &outcomes[i]);
  }
  return outcomes;
}

// ---- campaign lifecycle ---------------------------------------------------

void StagingScheduler::pin_campaign(const Campaign& campaign) {
  migrate::AccessTracker& tracker = system_.access_tracker();
  std::lock_guard<std::mutex> lock(pin_mutex_);
  for (std::size_t i = 0; i < campaign.stages().size(); ++i) {
    for (const DatasetRef& read : campaign.reads_of(i)) {
      const std::string key = campaign.dataset_key(read.dataset);
      ++pins_[{key, read.timestep}];
      tracker.expect_reads(key, 1.0);
    }
  }
}

void StagingScheduler::release_stage(const Campaign& campaign, std::size_t i) {
  migrate::AccessTracker& tracker = system_.access_tracker();
  std::lock_guard<std::mutex> lock(pin_mutex_);
  for (const DatasetRef& read : campaign.reads_of(i)) {
    const std::string key = campaign.dataset_key(read.dataset);
    auto it = pins_.find({key, read.timestep});
    if (it != pins_.end() && --it->second <= 0) pins_.erase(it);
    tracker.expect_reads(key, -1.0);
  }
}

bool StagingScheduler::pinned(const std::string& dataset_key,
                              int timestep) const {
  std::lock_guard<std::mutex> lock(pin_mutex_);
  auto it = pins_.find({dataset_key, timestep});
  return it != pins_.end() && it->second > 0;
}

std::vector<StageTask> StagingScheduler::plan_prestage(
    const Campaign& campaign, const std::vector<bool>& dispatched) {
  std::vector<StageTask> out;
  if (predictor_ == nullptr) return out;

  // Deduplicated future inputs, in stage/intent order for determinism.
  std::vector<DatasetRef> inputs;
  for (std::size_t j = 0; j < campaign.stages().size(); ++j) {
    if (j < dispatched.size() && dispatched[j]) continue;
    for (const DatasetRef& read : campaign.reads_of(j)) {
      if (std::find(inputs.begin(), inputs.end(), read) == inputs.end()) {
        inputs.push_back(read);
      }
    }
  }

  // Destination space promised to earlier tasks in this same batch, keyed
  // by (class, server) — the planner's reservation discipline.
  std::map<std::pair<int, int>, std::uint64_t> reserved;
  auto reserved_key = [](core::ReplicaAddress address) {
    return std::make_pair(static_cast<int>(address.location), address.server);
  };

  for (const DatasetRef& input : inputs) {
    const auto [app, name] =
        core::MetaCatalog::split_key(campaign.dataset_key(input.dataset));
    auto record = catalog_.instance(app, name, input.timestep);
    if (!record.ok()) continue;  // not produced yet: nothing to stage

    // Cheapest live replica today (the session's replica choice).
    const runtime::IoPlan read_plan =
        runtime::PlanBuilder::object_read(record->path, record->bytes);
    core::ReplicaAddress current = core::Location::kRemoteTape;
    double current_seconds = std::numeric_limits<double>::infinity();
    for (core::ReplicaAddress address : record->replicas) {
      if (!system_.endpoint(address).available()) continue;
      auto seconds = predictor_->price(read_plan, address.location);
      if (seconds.ok() && *seconds < current_seconds) {
        current_seconds = *seconds;
        current = address;
      }
    }
    if (!std::isfinite(current_seconds)) continue;  // nothing live

    const int readers = campaign.pending_readers(input, dispatched);
    if (readers <= 0) continue;

    // Fastest-first destinations, from the same ordered-candidates helper
    // placement, the advisor and the migration planner use.
    StageTask best;
    double best_net = 0.0;
    bool found = false;
    for (core::ReplicaAddress destination : core::ordered_candidate_addresses(
             {core::Location::kLocalDisk, current.server},
             system_.cluster_size())) {
      if (record->on(destination)) continue;
      runtime::StorageEndpoint& endpoint = system_.endpoint(destination);
      if (!endpoint.available()) continue;
      const std::uint64_t reserve = reserved[reserved_key(destination)];
      if (endpoint.free_bytes() < reserve + record->bytes) continue;
      auto dest_read = predictor_->price(read_plan, destination.location);
      if (!dest_read.ok() || *dest_read >= current_seconds) continue;

      StageTask task;
      task.kind = StageTaskKind::kPrestage;
      task.app = app;
      task.name = name;
      task.timestep = input.timestep;
      task.from = current;
      task.to = destination;
      task.path = record->path;
      task.bytes = record->bytes;
      task.drop_source = false;
      task.benefit =
          static_cast<double>(readers) * (current_seconds - *dest_read);
      auto cost = price_move(*predictor_, task.path, task.bytes, task.from,
                             task.to);
      if (!cost.ok()) continue;
      task.cost = *cost;
      const double net = task.benefit - task.cost;
      if (net <= 0.0) continue;  // the copy costs more than it ever saves
      if (!found || net > best_net) {
        best = std::move(task);
        best_net = net;
        found = true;
      }
    }
    if (!found) continue;
    best.start_at = idle_window(best);
    reserved[reserved_key(best.to)] += best.bytes;
    out.push_back(std::move(best));
  }
  return out;
}

std::vector<StageTask> StagingScheduler::plan_gc(const Campaign& campaign) {
  (void)campaign;
  std::vector<StageTask> out;
  std::vector<StagedCopy> copies;
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    copies = staged_;
  }
  for (const StagedCopy& copy : copies) {
    if (pinned(copy.app + "/" + copy.name, copy.timestep)) continue;
    StageTask task;
    task.kind = StageTaskKind::kGc;
    task.app = copy.app;
    task.name = copy.name;
    task.timestep = copy.timestep;
    task.from = copy.address;
    task.to = copy.address;
    task.path = "";  // resolved below from the catalog record
    task.bytes = copy.bytes;
    task.drop_source = true;
    auto record = catalog_.instance(copy.app, copy.name, copy.timestep);
    if (!record.ok() || !record->on(copy.address)) continue;  // already gone
    task.path = record->path;
    task.start_at = idle_window(task);
    out.push_back(std::move(task));
  }
  // Executed GC drops leave the registry so reruns do not re-plan them.
  if (!out.empty()) {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    staged_.erase(
        std::remove_if(staged_.begin(), staged_.end(),
                       [&](const StagedCopy& copy) {
                         for (const StageTask& task : out) {
                           if (task.app == copy.app && task.name == copy.name &&
                               task.timestep == copy.timestep &&
                               task.from == copy.address) {
                             return true;
                           }
                         }
                         return false;
                       }),
        staged_.end());
  }
  return out;
}

}  // namespace msra::flow
