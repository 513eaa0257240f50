// flow::StagingScheduler: the system's single priced mover of bytes
// between storage tiers.
//
// Every replica movement in the system — promotion, demotion, eviction,
// rebalance, campaign prestage, staged-copy GC — is a StageTask executed
// here. Three planners produce the tasks: plan_migration (observed heat and
// capacity pressure), plan_prestage (declared campaign reads) and plan_gc
// (staged copies past their last consumer). A system runs ONE scheduler for
// all three: the pin registry and the catalog mutex only order the drops of
// the scheduler that holds them, so with two schedulers an eviction of one
// replica and a GC drop of the other could each pass their last-live check.
// One mover means one discipline:
//
//   * priced first: each task's cost is the Predictor price of the same
//     PlanBuilder whole-object plans the executor then runs (Eq. 2:
//     planner cost == mover bill);
//   * copy -> commit the new replica -> drop the source, catalog commits
//     serialized under one mutex, never dropping the last live replica,
//     physical removal last so open readers ride the deferred unlink;
//   * background class by construction (simkit::QosScope), throttled to a
//     bytes/sec floor, billed io.flow.* (outside the Eq.-1 primitive set);
//   * CASTOR-style GC guard: a replica still named by an undispatched
//     campaign stage is pinned — tasks that would drop it are refused
//     (flow.gc.refused) until the last consumer dispatches.
//
// Prestage tasks additionally carry a start window discovered from the
// shared devices' booked backlog (simkit::Resource::next_free() via
// core::Balancer::backlog_seconds): staging begins when the route drains,
// so it rides idle gaps instead of racing foreground tenants.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/system.h"
#include "predict/predictor.h"

namespace msra::qos {
class AdmissionController;
}  // namespace msra::qos

namespace msra::flow {

class Campaign;
struct DatasetRef;

enum class StageTaskKind {
  kPromote,    ///< copy to faster media, keep the source (archive stays)
  kDemote,     ///< copy to slower media, then drop the pressured source
  kEvict,      ///< drop the source replica (another live replica exists)
  kRebalance,  ///< move between servers of the same storage class
  kPrestage,   ///< campaign: copy toward a declared future consumer
  kGc,         ///< campaign: drop a staged copy after its last consumer
};

std::string_view stage_task_kind_name(StageTaskKind kind);

/// One unit of work for the mover. `from == to` for the copyless kinds
/// (kEvict, kGc).
struct StageTask {
  StageTaskKind kind = StageTaskKind::kPrestage;
  std::string app;
  std::string name;
  int timestep = 0;
  core::ReplicaAddress from = core::Location::kRemoteTape;
  core::ReplicaAddress to = core::Location::kRemoteTape;
  std::string path;
  std::uint64_t bytes = 0;
  bool drop_source = false;
  double benefit = 0.0;   ///< predicted future read savings, seconds
  double cost = 0.0;      ///< priced move time, seconds (0 for copyless kinds)
  double start_at = 0.0;  ///< earliest virtual start (idle window; 0 = now)

  std::string dataset_key() const { return app + "/" + name; }
  std::string label() const;  ///< "prestage app/ds t0 REMOTETAPE->LOCALDISK"
};

/// What happened to one task.
struct StageOutcome {
  StageTask task;
  Status status = Status::Ok();
  double priced_cost = 0.0;       ///< Predictor price of the same move
  double executed_seconds = 0.0;  ///< virtual time the move took (after start)
  double throttle_wait = 0.0;     ///< extra virtual time added by the throttle
  double started_at = 0.0;        ///< virtual time the move began
  double finished_at = 0.0;       ///< virtual time the new replica was live
};

struct StagingConfig {
  /// Copy pacing: each task's virtual time is stretched so payload never
  /// streams faster than this (0 = unthrottled).
  std::uint64_t throttle_bytes_per_sec = 0;
};

/// Knobs of plan_migration.
struct MigrationConfig {
  /// Cap on payload bytes per planning round (0 = unlimited).
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

/// The session's replica choice under a predictor: the live replica of
/// `record` whose whole-object read prices cheapest, with that price.
/// Replicas the predictor cannot price are passed over; Unavailable when no
/// live replica is left.
StatusOr<std::pair<core::ReplicaAddress, double>> cheapest_live_read(
    core::StorageSystem& system, const predict::Predictor& predictor,
    const core::InstanceRecord& record);

class StagingScheduler {
 public:
  /// `system` and `predictor` must outlive the scheduler.
  StagingScheduler(core::StorageSystem& system,
                   const predict::Predictor& predictor,
                   StagingConfig config = {});

  const StagingConfig& config() const { return config_; }

  /// Optional admission gate: when set and the mover class carries an SLO,
  /// each copy task is quoted (destination backlog + priced move) before it
  /// runs and deferred when the quote misses the SLO — staging yields to a
  /// loaded system instead of piling on (qos.admission.staging_deferred).
  void set_admission(const qos::AdmissionController* admission) {
    admission_ = admission;
  }

  /// Executes every task in task order on the calling thread, so the
  /// devices a batch books, and its virtual times, repeat run to run. Tasks
  /// are independent — one failing never blocks the others. Outcomes come
  /// back in task order.
  std::vector<StageOutcome> execute(const std::vector<StageTask>& tasks);

  /// Prices one task exactly as the mover will bill it: whole-object read
  /// plan at `from` plus whole-object write plan at `to` (0 for copyless
  /// kinds).
  StatusOr<double> price_task(const StageTask& task) const;

  /// The earliest virtual time `task`'s route has drained its booked work:
  /// max Resource::next_free() over the source and destination device
  /// paths. Prestage planning stamps this into StageTask::start_at.
  double idle_window(const StageTask& task) const;

  // ---- heat and capacity pressure -----------------------------------------

  /// One migration round over the whole catalog — the paper's section 6
  /// "automatically decide which storage resources should be used according
  /// to the capacity and performance of each storage resource":
  ///
  ///   * demotion/eviction, for every (resource, server) over its pressure
  ///     watermark: the coldest residents are copied to the tape of the same
  ///     server and their disk replica dropped, or just dropped when another
  ///     live replica exists, until usage is back under the target;
  ///   * rebalance (when enabled and the cluster has more than one server):
  ///     cold residents move from the fullest remote disk to the emptiest;
  ///   * promotion: a hot instance is copied toward faster media when its
  ///     share of the dataset's read heat times the priced read saving
  ///     exceeds the priced copy, biggest net saving first.
  ///
  /// Tasks come back in that order (promotions last: they only use space
  /// free today, not space the demotions ahead of them will free), within
  /// `max_batch_bytes` of payload.
  StatusOr<std::vector<StageTask>> plan_migration(
      const MigrationConfig& config);

  // ---- campaign lifecycle -------------------------------------------------

  /// Registers every read intent of `campaign`'s undispatched stages: pins
  /// the named instances against drop/GC and seeds the AccessTracker's
  /// expected reuse. Balanced by release_stage() per stage.
  void pin_campaign(const Campaign& campaign);

  /// Withdraws stage `i`'s pins and tracker expectations (the stage has
  /// dispatched: its reads are now observed, not declared).
  void release_stage(const Campaign& campaign, std::size_t i);

  /// Whether (dataset_key, timestep) is still named by an undispatched
  /// campaign stage.
  bool pinned(const std::string& dataset_key, int timestep) const;

  /// Plans prestage copies for every undispatched stage's inputs that
  /// already exist in the catalog: copy toward the destination whose priced
  /// read is cheapest, when declared-reader savings exceed the priced move
  /// (the promotion rule, driven by declarations instead of observed heat).
  /// Tasks start in their routes' idle windows.
  std::vector<StageTask> plan_prestage(const Campaign& campaign,
                                       const std::vector<bool>& dispatched);

  /// Plans GC drops for every staged copy this scheduler created whose
  /// (dataset, timestep) no undispatched stage names any more — CASTOR's
  /// "drop when the last consumer finishes".
  std::vector<StageTask> plan_gc();

 private:
  /// Destination bytes promised to earlier tasks of one planning batch,
  /// keyed by (class, server).
  using Reservations = std::map<std::pair<int, int>, std::uint64_t>;

  /// The search promotion and prestage share: from `record`'s cheapest live
  /// replica, the copy of `kind` with the best net saving above zero over
  /// the fastest-first destinations with room beyond `reserved`, where the
  /// saving is `readers` times the priced read difference. Destinations the
  /// predictor cannot price are passed over.
  std::optional<StageTask> best_copy(const core::InstanceRecord& record,
                                     double readers, StageTaskKind kind,
                                     const Reservations& reserved) const;

  void run_task(const StageTask& task, StageOutcome* outcome);
  Status copy_object(simkit::Timeline& timeline, const StageTask& task);
  /// Catalog commit + source drop, under the catalog mutex.
  Status commit(simkit::Timeline& timeline, const StageTask& task);

  core::StorageSystem& system_;
  const predict::Predictor& predictor_;
  StagingConfig config_;
  core::MetaCatalog& catalog_;  ///< system_.catalog()
  std::mutex catalog_mutex_;  ///< serializes read-modify-write commits
  const qos::AdmissionController* admission_ = nullptr;

  mutable std::mutex pin_mutex_;
  /// (dataset_key, timestep) -> declared-reader refcount.
  std::map<std::pair<std::string, int>, int> pins_;
  /// Replicas created by prestage, awaiting last-consumer GC.
  struct StagedCopy {
    std::string app;
    std::string name;
    int timestep = 0;
    core::ReplicaAddress address = core::Location::kLocalDisk;
  };
  std::vector<StagedCopy> staged_;
};

}  // namespace msra::flow
