// Session & DatasetHandle: the user-facing API of the multi-storage
// resource architecture (the I/O flow of the paper's Fig. 5).
//
//   Session session(system, {...});          // initialization()
//   auto* temp = session.open(desc);          // open with location hint
//   temp->write_timestep(comm, t, local);     // optimized parallel write
//   ...
//   session.finalize();                       // finalization()
//
// open() resolves the location hint through the placement policy, registers
// the dataset in the metadata database, and returns a handle that routes
// reads/writes through the run-time optimization library for the chosen
// resource. Consumers (data analysis, visualization) locate datasets
// through the same metadata, so they read from wherever the producer's hint
// placed the data.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "core/catalog.h"
#include "core/options.h"
#include "core/placement.h"
#include "prt/comm.h"
#include "qos/tenant.h"
#include "runtime/plan.h"
#include "runtime/sieve.h"
#include "runtime/subfile.h"
#include "simkit/timeline.h"

namespace msra::predict {
class Predictor;
}

namespace msra::core {

class Session;

/// The replica a read resolved to: the catalog row, the server-qualified
/// address chosen among its live replicas, and the full balancer-ordered
/// chain (best first) — the read failover order when a server drops
/// mid-run.
struct ReplicaChoice {
  InstanceRecord record;
  ReplicaAddress address;
  std::vector<ReplicaAddress> chain;

  Location location() const { return address.location; }
};

/// A read that missed the mid-tier cache carries this ticket: after the
/// payload landed, the executor (read_whole or the fleet scheduler) offers
/// it to the cache, which prices admission against a refetch from `origin`.
struct CacheOffer {
  std::string path;         ///< stored object the payload came from
  std::string dataset_key;  ///< "app/dataset" (heat / invalidation key)
  Location origin = Location::kRemoteTape;  ///< replica the read resolved to
};

/// Hands a cache-miss read's landed `payload` to `system`'s cache for
/// priced admission at virtual instant `now` (no-op without a cache). Cache
/// fill is the system's own traffic: it books as background.
void offer_to_cache(StorageSystem& system, const CacheOffer& offer,
                    ByteBuffer payload, simkit::SimTime now);

/// One lowered serial access, ready for stepwise execution: the plan plus
/// the endpoint it runs against. Produced by DatasetHandle::stage_*; the
/// fleet scheduler drives it a stage at a time through a
/// runtime::PlanCursor so tenant actors yield between stages.
struct StagedAccess {
  runtime::IoPlan plan;
  runtime::StorageEndpoint* endpoint = nullptr;
  /// Cache-hit plans pin the served snapshot here so write-through
  /// invalidation between lowering and execution cannot free the bytes
  /// mid-read (POSIX-unlink semantics).
  std::shared_ptr<const void> cache_pin;
  /// Present on cache misses of cacheable whole-object reads.
  std::optional<CacheOffer> cache_offer;
};

/// Per-dataset handle. Producer calls are collective (every rank of the
/// Comm participates); consumer helpers are serial and run on the caller's
/// timeline.
class DatasetHandle {
 public:
  const DatasetDesc& desc() const { return desc_; }
  Location location() const { return address_.location; }
  /// The server-qualified write target (reads route per replica through the
  /// balancer instead).
  ReplicaAddress address() const { return address_; }
  bool enabled() const { return address_.location != Location::kDisable; }

  /// Object path of one timestep ("app/dataset/t42", or "app/dataset/restart"
  /// for over_write datasets).
  std::string path_for(int timestep) const;

  /// Collective write of the distributed array at `timestep`. `local` is
  /// the rank's block (row-major over its box). No-op for DISABLEd
  /// datasets. On resource outage or exhaustion the handle fails over to
  /// the next candidate resource and retries (updating the metadata).
  Status write_timestep(prt::Comm& comm, int timestep,
                        std::span<const std::byte> local);

  /// Collective read of `timestep` into each rank's block.
  Status read_timestep(prt::Comm& comm, int timestep, std::span<std::byte> local);

  /// Serial whole-array read (post-processing tools). Runs on the owning
  /// session's timeline unless `options.timeline` overrides it.
  StatusOr<std::vector<std::byte>> read_whole(int timestep,
                                              const ReadOptions& options = {});

  /// Serial sub-array read (visualization slices etc.). Uses sieving or
  /// direct requests per `options.strategy`; subfile-chunked datasets read
  /// only touched chunks. Runs on the owning session's timeline unless
  /// `options.timeline` overrides it.
  Status read_box(int timestep, const prt::LocalBox& box,
                  std::span<std::byte> out, const ReadOptions& options = {});

  // ----------------------------------------------------- staged (async) --
  // The stage_* entry points lower an access without executing it, so the
  // fleet scheduler can run the returned plan a stage at a time (yielding
  // between stages). Lowering performs the same replica selection and heat
  // accounting as the synchronous calls; the synchronous calls are
  // implemented on top of these, so the two paths cannot drift.

  /// Lowers a whole-array read of `timestep`. The caller executes the plan
  /// into a buffer of desc().global_bytes(). Unimplemented for
  /// subfile-chunked datasets (their read path is a chunk loop, not a
  /// single plan).
  StatusOr<StagedAccess> stage_read_whole(int timestep,
                                          const ReadOptions& options = {});

  /// Lowers a sub-array read of `box` into a buffer of `buffer_bytes`.
  StatusOr<StagedAccess> stage_read_box(int timestep, const prt::LocalBox& box,
                                        std::size_t buffer_bytes,
                                        const ReadOptions& options = {});

  /// Lowers a serial whole-object dump of `timestep` (the single-rank
  /// producer path; collective dumps stay on write_timestep). The caller
  /// feeds a buffer of desc().global_bytes() and, after the plan executed
  /// ok, records the instance with commit_dump(). Fails on DISABLEd
  /// handles and subfile-chunked datasets.
  StatusOr<StagedAccess> stage_dump(int timestep);

  /// Metadata half of a staged dump: records the instance + access heat at
  /// virtual instant `now` and bumps timesteps_written().
  Status commit_dump(int timestep, simkit::SimTime now);

  /// The decomposition this handle uses for `nprocs` ranks.
  StatusOr<runtime::ArrayLayout> layout(int nprocs) const;

  /// Storage spec of the global array.
  runtime::GlobalArraySpec spec() const;

  /// Enables subfile storage: each timestep is stored as chunks[0] x
  /// chunks[1] x chunks[2] chunk objects instead of one object. Must be set
  /// before the first write.
  Status set_subfile_chunks(const std::array<int, 3>& chunks);

  /// Copies one dumped timestep to another storage address and records the
  /// replica in the metadata (a bare Location means server 0). When source
  /// and destination live on the same SRB server (disk <-> tape), the copy
  /// happens server-side — no WAN transfer for the payload (SRB-style
  /// replication). Reads automatically prefer the cheapest available
  /// replica afterwards. Not supported for subfile-chunked datasets. Runs
  /// on the owning session's timeline unless `options.timeline` overrides
  /// it.
  Status replicate_timestep(int timestep, ReplicaAddress destination,
                            const ReplicateOptions& options = {});

  /// Replica addresses of one timestep (metadata view).
  std::vector<ReplicaAddress> replica_addresses(int timestep) const;

  std::uint64_t timesteps_written() const { return writes_.load(); }

 private:
  friend class Session;
  DatasetHandle(Session* session, std::string app, DatasetDesc desc,
                ReplicaAddress address)
      : session_(session),
        app_(std::move(app)),
        desc_(std::move(desc)),
        address_(address) {}

  /// Attempts the write on the current location; on outage/full, re-place
  /// and retry.
  Status write_with_failover(prt::Comm& comm, int timestep,
                             std::span<const std::byte> local);

  Status write_subfiled(prt::Comm& comm, const std::string& base,
                        std::span<const std::byte> local);

  /// Instance lookup for reads: routes the live replica set through the
  /// system's Balancer — cheapest predictor quote (load-aware across
  /// servers) when the session has a predictor attached, static speed
  /// order (local disk > remote disk > remote tape, then server index)
  /// otherwise — falling back to the primary record (consumers may open
  /// after a failover moved the data).
  StatusOr<ReplicaChoice> locate(int timestep) const;

  /// The clock a serial call runs on: the explicit override, else the
  /// owning session's timeline.
  simkit::Timeline& timeline_or_session(simkit::Timeline* timeline) const;

  Session* session_;
  std::string app_;  ///< producer application owning the stored objects
  DatasetDesc desc_;
  ReplicaAddress address_;  ///< current write target (class + server)
  std::array<int, 3> subfile_chunks_ = {1, 1, 1};
  std::atomic<std::uint64_t> writes_{0};
};

/// Session options (who runs what, on how many processors, for how long).
struct SessionOptions {
  std::string application = "app";
  std::string user = "user";
  std::string affiliation = "nwu";
  int nprocs = 1;
  int iterations = 1;
  /// Optional (not owned, must outlive the session): replica selection on
  /// reads quotes each live replica with this predictor and takes the
  /// cheapest, instead of the static speed order.
  const predict::Predictor* predictor = nullptr;
  /// Service class every booking of this session schedules under once the
  /// system has QoS enabled (see StorageSystem::enable_qos). Interactive —
  /// the class untagged traffic already maps to — keeps pre-QoS behavior.
  qos::TenantClass tenant_class = qos::TenantClass::kInteractive;
};

/// Thread-safety: a Session's own state transitions (open, open_existing,
/// finalize, double-finalize) are safe to call from concurrent host threads;
/// a handle returned by open() stays valid until finalize(). finalize()
/// invalidates every handle — callers must not race in-flight I/O on a
/// handle against the finalize() that destroys it (the usual rule for
/// close-like APIs). Distinct Sessions over one StorageSystem are fully
/// independent and may run concurrently (the multi-tenant core).
class Session {
 public:
  /// initialization(): connects the metadata database and registers the
  /// user + application.
  Session(StorageSystem& system, SessionOptions options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Opens (registers) a dataset for this run. The location hint in `desc`
  /// is resolved immediately; the decision lands in the metadata database.
  /// On ok() the handle is never null (see core/options.h). Fails with
  /// kFailedPrecondition after finalize().
  StatusOr<DatasetHandle*> open(const DatasetDesc& desc);

  /// Opens a dataset registered by an earlier producer session (consumer
  /// side); the descriptor and resolved location come from the metadata.
  /// On ok() the handle is never null (see core/options.h). Fails with
  /// kFailedPrecondition after finalize().
  StatusOr<DatasetHandle*> open_existing(const std::string& name,
                                         const OpenOptions& options = {});

  /// finalization(): flushes metadata and destroys all open handles.
  /// Idempotent; concurrent calls are safe (one wins, the rest no-op).
  Status finalize();

  /// True once finalize() ran (a snapshot; another thread may be
  /// finalizing concurrently).
  bool finalized() const;

  /// The handle open() / open_existing() registered under `name`, or
  /// nullptr when it was never opened (or the session is finalized). The
  /// fleet scheduler resolves datasets by name through this, so workload
  /// steps never cache a pointer across finalize().
  DatasetHandle* find_handle(const std::string& name);

  StorageSystem& system() { return system_; }
  MetaCatalog& catalog() { return catalog_; }
  const SessionOptions& options() const { return options_; }

  /// The session's own virtual clock: the default timeline of every serial
  /// DatasetHandle call issued through this session.
  simkit::Timeline& timeline() { return timeline_; }
  const simkit::Timeline& timeline() const { return timeline_; }

 private:
  friend class DatasetHandle;

  StorageSystem& system_;
  SessionOptions options_;
  MetaCatalog& catalog_;  ///< system_.catalog()
  simkit::Timeline timeline_;
  mutable std::mutex mutex_;  ///< guards handles_ and finalized_
  std::map<std::string, std::unique_ptr<DatasetHandle>> handles_;
  bool finalized_ = false;
};

}  // namespace msra::core
