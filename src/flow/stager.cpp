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

/// Every booking the mover makes is the system's own traffic, so a wfq/edf
/// policy keeps tenant reads ahead of replica shuffling.
constexpr qos::TenantClass kMoverClass = qos::TenantClass::kBackground;

/// Copyless kinds only touch the catalog and the source object.
bool copyless(StageTaskKind kind) {
  return kind == StageTaskKind::kEvict || kind == StageTaskKind::kGc;
}

/// Whether `record` has a live replica other than `except`.
bool other_live(core::StorageSystem& system, const core::InstanceRecord& record,
                core::ReplicaAddress except) {
  for (core::ReplicaAddress address : record.replicas) {
    if (address != except && system.endpoint(address).available()) return true;
  }
  return false;
}

std::pair<int, int> reservation_key(core::ReplicaAddress address) {
  return std::make_pair(static_cast<int>(address.location), address.server);
}

/// A task of `kind` moving `record` from `from` to `to`. Promote and
/// prestage keep their source replica; every other kind drops it.
StageTask task_for(StageTaskKind kind, const core::InstanceRecord& record,
                   core::ReplicaAddress from, core::ReplicaAddress to) {
  const auto [app, name] = core::MetaCatalog::split_key(record.dataset_key);
  StageTask task;
  task.kind = kind;
  task.app = app;
  task.name = name;
  task.timestep = record.timestep;
  task.from = from;
  task.to = to;
  task.path = record.path;
  task.bytes = record.bytes;
  task.drop_source =
      kind != StageTaskKind::kPromote && kind != StageTaskKind::kPrestage;
  return task;
}

}  // namespace

StatusOr<std::pair<core::ReplicaAddress, double>> cheapest_live_read(
    core::StorageSystem& system, const predict::Predictor& predictor,
    const core::InstanceRecord& record) {
  const runtime::IoPlan plan =
      runtime::PlanBuilder::object_read(record.path, record.bytes);
  core::ReplicaAddress where = core::Location::kRemoteTape;
  double best = std::numeric_limits<double>::infinity();
  for (core::ReplicaAddress address : record.replicas) {
    if (!system.endpoint(address).available()) continue;
    auto seconds = predictor.price(plan, address.location);
    if (seconds.ok() && *seconds < best) {
      best = *seconds;
      where = address;
    }
  }
  if (!std::isfinite(best)) {
    return Status::Unavailable("no live replica of " + record.dataset_key);
  }
  return std::make_pair(where, best);
}

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
                                   const predict::Predictor& predictor,
                                   StagingConfig config)
    : system_(system),
      predictor_(predictor),
      config_(config),
      catalog_(system.catalog()) {}

StatusOr<double> StagingScheduler::price_task(const StageTask& task) const {
  if (copyless(task.kind)) return 0.0;  // metadata-only
  MSRA_ASSIGN_OR_RETURN(
      double read_seconds,
      predictor_.price(runtime::PlanBuilder::object_read(task.path, task.bytes),
                       task.from.location));
  MSRA_ASSIGN_OR_RETURN(
      double write_seconds,
      predictor_.price(runtime::PlanBuilder::object_write(
                           task.path, task.bytes, srb::OpenMode::kOverwrite),
                       task.to.location));
  return read_seconds + write_seconds;
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
      if (!other_live(system_, record, task.from)) {
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

  simkit::QosScope scope(system_.qos_tag(kMoverClass));
  simkit::Timeline timeline;
  timeline.advance_to(task.start_at);  // idle window (0 = start now)
  {
    obs::Span span(&system_.tracer(), timeline, "flow " + task.label());
    Status status = Status::Ok();
    if (admission_ != nullptr && !copyless(task.kind)) {
      qos::AdmissionDecision decision = admission_->decide_move(
          task.path, task.bytes, task.from, task.to, kMoverClass,
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
    staged_.push_back(StagedCopy{task.app, task.name, task.timestep, task.to});
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

// ---- heat and capacity pressure --------------------------------------------

std::optional<StageTask> StagingScheduler::best_copy(
    const core::InstanceRecord& record, double readers, StageTaskKind kind,
    const Reservations& reserved) const {
  auto current = cheapest_live_read(system_, predictor_, record);
  if (!current.ok()) return std::nullopt;  // nothing live: failover's problem
  const auto [from, from_seconds] = *current;
  const runtime::IoPlan read_plan =
      runtime::PlanBuilder::object_read(record.path, record.bytes);

  // Fastest-first destinations, from the ordered-candidates helper that
  // placement and the advisor also use; in a cluster each remote class
  // expands to every server (the source's server first).
  std::optional<StageTask> best;
  for (core::ReplicaAddress to : core::ordered_candidate_addresses(
           {core::Location::kLocalDisk, from.server}, system_.cluster_size())) {
    if (record.on(to)) continue;
    runtime::StorageEndpoint& endpoint = system_.endpoint(to);
    if (!endpoint.available()) continue;
    auto promised = reserved.find(reservation_key(to));
    const std::uint64_t reserve =
        promised == reserved.end() ? 0 : promised->second;
    if (endpoint.free_bytes() < reserve + record.bytes) continue;
    auto to_seconds = predictor_.price(read_plan, to.location);
    if (!to_seconds.ok() || *to_seconds >= from_seconds) continue;

    StageTask task = task_for(kind, record, from, to);
    task.benefit = readers * (from_seconds - *to_seconds);
    auto cost = price_task(task);
    if (!cost.ok()) continue;
    task.cost = *cost;
    const double net = task.benefit - task.cost;
    if (net <= 0.0) continue;  // the copy costs more than it ever saves
    if (!best || net > best->benefit - best->cost) best = std::move(task);
  }
  return best;
}

StatusOr<std::vector<StageTask>> StagingScheduler::plan_migration(
    const MigrationConfig& config) {
  std::vector<StageTask> out;
  const std::vector<core::InstanceRecord> all = catalog_.all_instances();
  migrate::AccessTracker& tracker = system_.access_tracker();

  std::uint64_t batch_budget = config.max_batch_bytes > 0
                                   ? config.max_batch_bytes
                                   : std::numeric_limits<std::uint64_t>::max();
  auto append = [&](StageTask task) {
    if (task.kind != StageTaskKind::kEvict) {
      batch_budget -= std::min(batch_budget, task.bytes);
    }
    out.push_back(std::move(task));
  };
  // Promotions only see space free today: bytes a demotion will free
  // become usable in the next round, so a promotion never depends on a
  // task ahead of it in the same batch.
  Reservations reserved;

  // ---- pressure: demote/evict the coldest residents ----------------------
  // Every disk on every server is checked; demotions land on the tape of
  // the SAME server as the pressured disk (server-side copy, no WAN hop;
  // local disk counts as server 0).
  std::vector<core::ReplicaAddress> pressured_addresses;
  pressured_addresses.emplace_back(core::Location::kLocalDisk, 0);
  for (int server = 0; server < system_.cluster_size(); ++server) {
    pressured_addresses.emplace_back(core::Location::kRemoteDisk, server);
  }
  for (core::ReplicaAddress pressured : pressured_addresses) {
    runtime::StorageEndpoint& endpoint = system_.endpoint(pressured);
    if (!endpoint.available()) continue;
    const std::uint64_t capacity = endpoint.capacity();
    if (capacity == 0) continue;
    const std::uint64_t used = endpoint.used();
    if (static_cast<double>(used) <=
        config.pressure_watermark * static_cast<double>(capacity)) {
      continue;
    }
    const auto target = static_cast<std::uint64_t>(
        config.target_watermark * static_cast<double>(capacity));
    std::uint64_t to_free = used > target ? used - target : 0;

    // Coldest first: fewest (decayed) reads, then oldest touch, then biggest
    // payload (fewer moves), then a stable name/timestep key for determinism.
    std::vector<const core::InstanceRecord*> residents;
    for (const auto& record : all) {
      if (record.on(pressured)) residents.push_back(&record);
    }
    std::stable_sort(
        residents.begin(), residents.end(),
        [&](const core::InstanceRecord* a, const core::InstanceRecord* b) {
          const auto ha = tracker.heat(a->dataset_key);
          const auto hb = tracker.heat(b->dataset_key);
          if (ha.anticipated_reads() != hb.anticipated_reads()) {
            return ha.anticipated_reads() < hb.anticipated_reads();
          }
          if (ha.last_touch != hb.last_touch) {
            return ha.last_touch < hb.last_touch;
          }
          if (a->bytes != b->bytes) return a->bytes > b->bytes;
          if (a->dataset_key != b->dataset_key) {
            return a->dataset_key < b->dataset_key;
          }
          return a->timestep < b->timestep;
        });

    for (const core::InstanceRecord* record : residents) {
      if (to_free == 0) break;
      StageTask task;
      if (other_live(system_, *record, pressured)) {
        // The pressured copy is redundant: just drop it.
        task = task_for(StageTaskKind::kEvict, *record, pressured, pressured);
      } else {
        // Copy to the archive first, then drop (copy-then-commit-then-drop:
        // the instance never goes missing).
        const core::ReplicaAddress archive{core::Location::kRemoteTape,
                                           pressured.server};
        runtime::StorageEndpoint& tape = system_.endpoint(archive);
        if (!tape.available() || record->on(archive) ||
            tape.free_bytes() < record->bytes ||
            record->bytes > batch_budget) {
          continue;
        }
        task = task_for(StageTaskKind::kDemote, *record, pressured, archive);
        MSRA_ASSIGN_OR_RETURN(task.cost, price_task(task));
      }
      to_free -= std::min(to_free, record->bytes);
      append(std::move(task));
    }
  }

  // ---- rebalance: even out skewed remote-disk servers --------------------
  // When the fullest remote-disk server and the emptiest differ by more
  // than rebalance_gap of capacity, the coldest residents of the full one
  // move over (a move, not a copy — the point is to free the full server).
  if (config.rebalance && system_.cluster_size() > 1) {
    int fullest = -1, emptiest = -1;
    double fullest_frac = 0.0, emptiest_frac = 1.0;
    for (int server = 0; server < system_.cluster_size(); ++server) {
      runtime::StorageEndpoint& endpoint =
          system_.endpoint({core::Location::kRemoteDisk, server});
      if (!endpoint.available() || endpoint.capacity() == 0) continue;
      const double frac = static_cast<double>(endpoint.used()) /
                          static_cast<double>(endpoint.capacity());
      if (fullest < 0 || frac > fullest_frac) {
        fullest = server;
        fullest_frac = frac;
      }
      if (emptiest < 0 || frac < emptiest_frac) {
        emptiest = server;
        emptiest_frac = frac;
      }
    }
    if (fullest >= 0 && emptiest >= 0 && fullest != emptiest &&
        fullest_frac - emptiest_frac > config.rebalance_gap) {
      const core::ReplicaAddress src{core::Location::kRemoteDisk, fullest};
      const core::ReplicaAddress dst{core::Location::kRemoteDisk, emptiest};
      runtime::StorageEndpoint& src_ep = system_.endpoint(src);
      runtime::StorageEndpoint& dst_ep = system_.endpoint(dst);
      // Move cold residents until the two servers meet in the middle.
      const double mid = (fullest_frac + emptiest_frac) / 2.0;
      std::uint64_t to_move =
          src_ep.used() - static_cast<std::uint64_t>(
                              mid * static_cast<double>(src_ep.capacity()));
      std::vector<const core::InstanceRecord*> residents;
      for (const auto& record : all) {
        if (record.on(src) && !record.on(dst)) residents.push_back(&record);
      }
      std::stable_sort(
          residents.begin(), residents.end(),
          [&](const core::InstanceRecord* a, const core::InstanceRecord* b) {
            const auto ha = tracker.heat(a->dataset_key);
            const auto hb = tracker.heat(b->dataset_key);
            if (ha.anticipated_reads() != hb.anticipated_reads()) {
              return ha.anticipated_reads() < hb.anticipated_reads();
            }
            if (a->bytes != b->bytes) return a->bytes > b->bytes;
            if (a->dataset_key != b->dataset_key) {
              return a->dataset_key < b->dataset_key;
            }
            return a->timestep < b->timestep;
          });
      for (const core::InstanceRecord* record : residents) {
        if (to_move == 0 || record->bytes > batch_budget) break;
        std::uint64_t& reserve = reserved[reservation_key(dst)];
        if (dst_ep.free_bytes() < reserve + record->bytes) break;
        StageTask task =
            task_for(StageTaskKind::kRebalance, *record, src, dst);
        MSRA_ASSIGN_OR_RETURN(task.cost, price_task(task));
        reserve += record->bytes;
        to_move -= std::min(to_move, record->bytes);
        append(std::move(task));
      }
    }
  }

  // ---- promotion: hot data stuck on slow media ---------------------------
  // Heat is pooled per dataset, so one timestep's expected future reads are
  // its per-instance share.
  std::map<std::string, std::uint64_t> instance_count;
  for (const auto& record : all) ++instance_count[record.dataset_key];
  std::vector<StageTask> promotions;
  for (const auto& record : all) {
    const double reads = tracker.heat(record.dataset_key).anticipated_reads();
    if (reads < static_cast<double>(config.hot_reads)) continue;
    std::optional<StageTask> best = best_copy(
        record,
        reads / static_cast<double>(instance_count[record.dataset_key]),
        StageTaskKind::kPromote, reserved);
    if (best) promotions.push_back(std::move(*best));
  }
  // Biggest net saving first; deterministic tie-break.
  std::stable_sort(promotions.begin(), promotions.end(),
                   [](const StageTask& a, const StageTask& b) {
                     const double net_a = a.benefit - a.cost;
                     const double net_b = b.benefit - b.cost;
                     if (net_a != net_b) return net_a > net_b;
                     if (a.bytes != b.bytes) return a.bytes > b.bytes;
                     return a.timestep < b.timestep;
                   });
  for (StageTask& task : promotions) {
    if (task.bytes <= batch_budget) append(std::move(task));
  }
  return out;
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

  Reservations reserved;
  for (const DatasetRef& input : inputs) {
    const auto [app, name] =
        core::MetaCatalog::split_key(campaign.dataset_key(input.dataset));
    auto record = catalog_.instance(app, name, input.timestep);
    if (!record.ok()) continue;  // not produced yet: nothing to stage
    std::optional<StageTask> best =
        best_copy(*record, campaign.pending_readers(input, dispatched),
                  StageTaskKind::kPrestage, reserved);
    if (!best) continue;
    best->start_at = idle_window(*best);
    reserved[reservation_key(best->to)] += best->bytes;
    out.push_back(std::move(*best));
  }
  return out;
}

std::vector<StageTask> StagingScheduler::plan_gc() {
  std::vector<StageTask> out;
  std::vector<StagedCopy> copies;
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    copies = staged_;
  }
  for (const StagedCopy& copy : copies) {
    if (pinned(copy.app + "/" + copy.name, copy.timestep)) continue;
    auto record = catalog_.instance(copy.app, copy.name, copy.timestep);
    if (!record.ok() || !record->on(copy.address)) continue;  // already gone
    StageTask task =
        task_for(StageTaskKind::kGc, *record, copy.address, copy.address);
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
