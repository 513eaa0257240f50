// core::Fleet: the event-driven tenant runtime.
//
// PR 5's multi-tenant core binds each Client to a host thread, which caps
// contention experiments at a few dozen tenants. A Fleet multiplexes N
// lightweight tenant actors onto one host thread: each actor owns a Client
// (name + session + virtual clock) and a queue of submitted Workloads; the
// scheduler repeatedly runs one *slice* of the actor whose clock reads the
// earliest virtual time (a min-heap of (Timeline::now, actor)), so
// contention on the shared simkit::Resources resolves in deterministic
// virtual-time order, not host-thread order.
//
//   StorageSystem system(profile);
//   Fleet fleet(system);
//   for (int i = 0; i < 100'000; ++i) {
//     Client& c = fleet.add_client("tenant" + std::to_string(i));
//     completions.push_back(c.submit(Workload()
//         .open_existing("frame")
//         .read_whole("frame", /*timestep=*/0)
//         .finalize()));
//   }
//   fleet.run_until_idle();
//   // completions[i]->latency() is tenant i's per-tenant virtual latency.
//
// A slice is one workload step — except staged I/O steps, which lower to an
// IoPlan once and then yield between plan stages through a
// runtime::PlanCursor, so a tenant mid-transfer never blocks the fleet.
// The synchronous Client calls (open/open_existing/finalize) are themselves
// implemented as a one-actor fleet drain, so both APIs share one code path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/session.h"
#include "obs/trace.h"
#include "simkit/timeline.h"

namespace msra::flow {
class Campaign;
struct CampaignOptions;
struct CampaignReport;
}  // namespace msra::flow

namespace msra::core {

class Client;
class Fleet;
class TenantContext;

/// Result slot of one submitted Workload. Owned by the Fleet (stable
/// pointer, valid until the Fleet is destroyed); filled when the workload
/// finishes. All times are virtual seconds on the tenant's clock.
class Completion {
 public:
  bool done() const { return done_; }
  const Status& status() const { return status_; }
  simkit::SimTime submitted_at() const { return submitted_at_; }
  simkit::SimTime finished_at() const { return finished_at_; }
  /// Virtual seconds from submit to finish.
  simkit::SimTime latency() const { return finished_at_ - submitted_at_; }

 private:
  friend class Fleet;
  bool done_ = false;
  Status status_ = Status::Ok();
  simkit::SimTime submitted_at_ = 0.0;
  simkit::SimTime finished_at_ = 0.0;
};

/// What a workload step sees: its tenant's client, session, and clock.
class TenantContext {
 public:
  Client& client() { return *client_; }
  Session& session();
  simkit::Timeline& timeline();
  StorageSystem& system();
  /// The tenant's open handle for `dataset` (nullptr before open / after
  /// finalize) — steps resolve datasets by name, never by cached pointer.
  DatasetHandle* handle(const std::string& dataset);

 private:
  friend class Fleet;
  explicit TenantContext(Client* client) : client_(client) {}
  Client* client_;
};

/// A staged I/O step under construction: the lowered access plus the
/// buffers it transfers, owned here so they stay alive across yields.
struct StagedIo {
  StagedAccess access;
  ByteBuffer out;              ///< receives read payloads (each read in full)
  std::vector<std::byte> in;   ///< feeds write payloads
  std::string span_label;      ///< tracer span around the whole access ("" = none)
};

/// A tenant's scripted work: an ordered list of steps the scheduler runs
/// one slice at a time. Steps either run atomically (control steps: open,
/// finalize, arbitrary callbacks) or lower to an IoPlan and yield between
/// its stages. The first failing step fails the workload; the remaining
/// steps are skipped (the Completion carries the error).
class Workload {
 public:
  /// What a staged step will move, recorded at build time: the admission
  /// controller prices these against the live load before the workload is
  /// allowed onto the fleet (the step lambdas themselves are opaque).
  struct IoIntent {
    enum class Kind { kRead, kWrite };
    Kind kind = Kind::kRead;
    std::string dataset;
    int timestep = 0;
  };

  /// Tag recorded with the completion metrics ("fleet.latency.<tag>");
  /// benches use it to split latency distributions by tenant role.
  Workload& tagged(std::string tag);

  /// Overrides the submitting client's service class for this workload
  /// only (e.g. one background prefetch from an otherwise interactive
  /// tenant).
  Workload& classed(qos::TenantClass cls);

  /// The override, or nullopt (the client's class applies).
  const std::optional<qos::TenantClass>& tenant_class() const {
    return class_;
  }

  /// The staged transfers recorded by dump/read_whole/read_box, in step
  /// order. Control steps record nothing.
  const std::vector<IoIntent>& intents() const { return intents_; }

  /// Atomic step running an arbitrary callback on the tenant.
  Workload& then(std::string label, std::function<Status(TenantContext&)> fn);

  /// Session flow sugar.
  Workload& open(DatasetDesc desc);
  Workload& open_existing(std::string dataset, OpenOptions options = {});
  Workload& finalize();

  /// Staged serial whole-object dump of one timestep (single-rank producer
  /// path; the payload is a fill pattern — virtual time only depends on its
  /// size). No-op for DISABLEd datasets, like write_timestep.
  Workload& dump(std::string dataset, int timestep);

  /// Staged whole-array read.
  Workload& read_whole(std::string dataset, int timestep);

  /// Staged sub-array read. `options.streams` must be 0 (staged reads
  /// cannot reshape the shared endpoint fast path) and `options.timeline`
  /// must be null (a fleet actor always runs on its own clock).
  Workload& read_box(std::string dataset, int timestep, prt::LocalBox box,
                     ReadOptions options = {});

  bool empty() const { return steps_.empty(); }

 private:
  friend class Fleet;
  struct Step {
    std::string label;
    /// Atomic step: runs in one slice.
    std::function<Status(TenantContext&)> fn;
    /// Staged I/O step: lowers once (returns false when there is nothing
    /// to do), then the scheduler steps the plan's stages.
    std::function<StatusOr<bool>(TenantContext&, StagedIo&)> lower;
    /// Runs after the staged plan finished ok (metadata commit).
    std::function<Status(TenantContext&)> finish;
  };
  std::string tag_;
  std::optional<qos::TenantClass> class_;
  std::vector<IoIntent> intents_;
  std::vector<Step> steps_;
};

/// Thread-safety: add_client/submit/run_until_idle belong to one driver
/// thread (the fleet's owner), which runs every slice itself in strict
/// global virtual-time order. Distinct Fleets over one StorageSystem are
/// independent and may run from concurrent host threads — tenants then
/// contend on the shared resources exactly like PR 5's thread-per-client
/// tenants did.
class Fleet {
 public:
  explicit Fleet(StorageSystem& system);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  StorageSystem& system() { return system_; }

  /// Creates (and owns) a tenant client; `options.user` defaults to the
  /// client name. The reference stays valid until the Fleet is destroyed.
  Client& add_client(std::string name, SessionOptions options = {});

  /// Admission gate consulted by submit(): non-OK keeps the workload off
  /// the fleet — its Completion is immediately done with that status.
  /// qos::AdmissionController::attach installs one; null (the default)
  /// admits everything.
  using AdmissionHook = std::function<Status(Client&, const Workload&)>;

  /// Installs/clears the admission gate (control plane: set it before
  /// pumping the fleet).
  void set_admission(AdmissionHook hook) { admission_ = std::move(hook); }

  /// Enqueues `workload` on `client`'s actor (the client must belong to
  /// this fleet). Returns the fleet-owned completion slot. With an
  /// admission hook installed, a rejected workload never reaches the
  /// actor: the completion carries the hook's status (and
  /// `fleet.rejected` counts it).
  Completion* submit(Client& client, Workload workload);

  /// Runs slices in virtual-time order until every actor's queue is empty.
  void run_until_idle();

  /// Runs a whole flow::Campaign DAG in dependency-wave order: one tenant
  /// actor per stage, consumer clocks held to their producers' finishes
  /// (and to prestaged-input availability when the options carry a
  /// flow::StagingScheduler). Defined in flow/run.cpp; see flow/run.h for
  /// the option and report types.
  StatusOr<flow::CampaignReport> submit_campaign(const flow::Campaign& campaign);
  StatusOr<flow::CampaignReport> submit_campaign(
      const flow::Campaign& campaign, const flow::CampaignOptions& options);

  /// Number of workloads that finished (ok or failed) so far.
  std::uint64_t completed() const { return completed_; }

 private:
  friend class Client;

  struct Actor;

  /// Registers an externally-owned client (the synchronous Client API runs
  /// as a one-actor fleet over the client's own storage).
  void attach(Client* client);

  /// Drains only `client`'s actor (synchronous Client calls).
  void run_client(Client& client);

  Actor* actor_of(Client& client);
  bool runnable(const Actor& actor) const;
  void run_slice(Actor& actor);
  void start_next(Actor& actor);
  void finish_workload(Actor& actor, Status status);
  /// Runs slices in virtual-time order until `only`'s queue (every
  /// actor's, when null) is empty.
  void drain(Actor* only);

  StorageSystem& system_;
  AdmissionHook admission_;
  std::vector<std::unique_ptr<Client>> owned_clients_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::deque<Completion> completions_;  ///< stable pointers
  std::uint64_t completed_ = 0;
};

}  // namespace msra::core
