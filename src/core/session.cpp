#include "core/session.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "cache/cache.h"
#include "common/log.h"
#include "core/balancer.h"
#include "obs/trace.h"
#include "predict/predictor.h"
#include "runtime/parallel_io.h"
#include "runtime/plan.h"

namespace msra::core {

// ---------------------------------------------------------------- Session --

Session::Session(StorageSystem& system, SessionOptions options)
    : system_(system), options_(std::move(options)), catalog_(system.catalog()) {
  Status user_status = catalog_.register_user(options_.user, options_.affiliation);
  Status app_status = catalog_.register_application(
      options_.application, options_.user, options_.nprocs, options_.iterations);
  if (!user_status.ok() || !app_status.ok()) {
    MSRA_LOG(kWarn) << "session registration: " << user_status.to_string()
                    << " / " << app_status.to_string();
  }
}

Session::~Session() { (void)finalize(); }

StatusOr<DatasetHandle*> Session::open(const DatasetDesc& desc) {
  if (desc.name.empty()) return Status::InvalidArgument("dataset needs a name");
  std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_) {
    return Status::FailedPrecondition("session already finalized");
  }
  auto it = handles_.find(desc.name);
  if (it != handles_.end()) return it->second.get();

  // Validate the pattern early so errors surface at open() (Fig. 5 flow).
  MSRA_RETURN_IF_ERROR(
      prt::Decomposition::create(desc.dims, options_.nprocs, desc.pattern)
          .status());
  MSRA_ASSIGN_OR_RETURN(
      PlacementDecision decision,
      PlacementPolicy::resolve(system_, desc, options_.iterations));
  if (decision.failed_over) {
    MSRA_LOG(kInfo) << "dataset " << desc.name << ": " << decision.reason;
  }
  MSRA_RETURN_IF_ERROR(
      catalog_.register_dataset(options_.application, desc, decision.location));
  auto handle = std::unique_ptr<DatasetHandle>(
      new DatasetHandle(this, options_.application, desc, decision.address()));
  DatasetHandle* raw = handle.get();
  handles_.emplace(desc.name, std::move(handle));
  return raw;
}

StatusOr<DatasetHandle*> Session::open_existing(const std::string& name,
                                                const OpenOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finalized_) {
    return Status::FailedPrecondition("session already finalized");
  }
  auto it = handles_.find(name);
  if (it != handles_.end()) return it->second.get();
  StatusOr<DatasetRecord> record =
      options.producer_app.empty() ? catalog_.find_dataset(name)
                                   : catalog_.dataset(options.producer_app, name);
  MSRA_RETURN_IF_ERROR(record.status());
  // The catalog's resolved column stores the storage class; the home server
  // is re-derived from the stable shard hash (write targets only — reads
  // route per replica through the balancer).
  const ReplicaAddress resolved{
      record->resolved, shard_server(record->desc.name, record->resolved,
                                     system_.cluster_size())};
  auto handle = std::unique_ptr<DatasetHandle>(new DatasetHandle(
      this, record->app, record->desc, resolved));
  handle->default_streams_ = options.streams;
  DatasetHandle* raw = handle.get();
  handles_.emplace(name, std::move(handle));
  return raw;
}

Status Session::finalize() {
  // Destroy the handles outside the lock: a handle destructor must never
  // run under the session mutex a concurrent open() is waiting on.
  std::map<std::string, std::unique_ptr<DatasetHandle>> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (finalized_) return Status::Ok();
    finalized_ = true;
    doomed.swap(handles_);
  }
  return Status::Ok();
}

bool Session::finalized() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finalized_;
}

DatasetHandle* Session::find_handle(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(name);
  return it == handles_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------- DatasetHandle --

std::string DatasetHandle::path_for(int timestep) const {
  if (desc_.amode == AccessMode::kOverWrite) {
    return app_ + "/" + desc_.name + "/restart";
  }
  return app_ + "/" + desc_.name + "/t" + std::to_string(timestep);
}

StatusOr<runtime::ArrayLayout> DatasetHandle::layout(int nprocs) const {
  MSRA_ASSIGN_OR_RETURN(
      prt::Decomposition decomp,
      prt::Decomposition::create(desc_.dims, nprocs, desc_.pattern));
  runtime::ArrayLayout out{decomp, element_size(desc_.etype)};
  return out;
}

runtime::GlobalArraySpec DatasetHandle::spec() const {
  return {desc_.dims, element_size(desc_.etype)};
}

Status DatasetHandle::set_subfile_chunks(const std::array<int, 3>& chunks) {
  if (writes_ > 0) {
    return Status::InvalidArgument("subfile layout must be set before writes");
  }
  MSRA_RETURN_IF_ERROR(
      runtime::SubfileLayout::create(spec(), chunks).status());
  subfile_chunks_ = chunks;
  return Status::Ok();
}

namespace {
bool subfiled(const std::array<int, 3>& chunks) {
  return chunks[0] != 1 || chunks[1] != 1 || chunks[2] != 1;
}
}  // namespace

Status DatasetHandle::write_timestep(prt::Comm& comm, int timestep,
                                     std::span<const std::byte> local) {
  if (!enabled()) return Status::Ok();  // DISABLE: not dumped at all
  // Spans nest per thread; recording on rank 0 only keeps one coherent
  // parent/child tree per collective operation.
  obs::Span span(comm.rank() == 0 ? &session_->system_.tracer() : nullptr,
                 comm.timeline(), "write_timestep " + desc_.name);
  Status status = write_with_failover(comm, timestep, local);
  if (!status.ok()) return status;
  if (comm.rank() == 0) {
    ++writes_;  // one collective write, counted once
    InstanceRecord record;
    record.dataset_key = MetaCatalog::dataset_key(app_, desc_.name);
    record.timestep = timestep;
    record.replicas = {address_};
    record.path = path_for(timestep);
    record.bytes = desc_.global_bytes();
    Status meta_status = session_->catalog_.record_instance(record);
    if (!meta_status.ok()) {
      MSRA_LOG(kWarn) << "instance bookkeeping failed: " << meta_status.to_string();
    }
    session_->system_.access_tracker().record_write(
        record.dataset_key, record.bytes, comm.timeline().now());
    // Write-through: the stored object changed, so any cached copy of it is
    // now stale and must go before the next lookup.
    if (cache::ReadCache* cache = session_->system_.cache()) {
      cache->invalidate(record.path);
    }
  }
  comm.barrier();  // instance metadata visible to all ranks on return
  return Status::Ok();
}

Status DatasetHandle::write_with_failover(prt::Comm& comm, int timestep,
                                          std::span<const std::byte> local) {
  MSRA_ASSIGN_OR_RETURN(runtime::ArrayLayout lay, layout(comm.size()));
  const std::string path = path_for(timestep);
  // One attempt per candidate address at most (every class on every site).
  const int max_attempts = static_cast<int>(
      ordered_candidate_addresses(address_, session_->system_.cluster_size())
          .size());
  for (int attempt = 0; attempt <= max_attempts; ++attempt) {
    runtime::StorageEndpoint& endpoint = session_->system_.endpoint(address_);
    Status status;
    {
      obs::Span attempt_span(
          comm.rank() == 0 ? &session_->system_.tracer() : nullptr,
          comm.timeline(), "write_array@" + address_name(address_));
      status =
          subfiled(subfile_chunks_)
              ? write_subfiled(comm, path, local)
              : runtime::write_array(endpoint, comm, path, lay, local,
                                     desc_.method, srb::OpenMode::kOverwrite,
                                     {.aggregators = desc_.aggregators});
    }
    const bool recoverable = status.code() == ErrorCode::kUnavailable ||
                             status.code() == ErrorCode::kCapacityExceeded;
    if (status.ok() || !recoverable) return status;

    // Rank 0 picks the next address (class, server); everyone follows its
    // decision.
    ByteBuffer decision(2, std::byte{0xFF});
    if (comm.rank() == 0) {
      for (ReplicaAddress candidate : ordered_candidate_addresses(
               address_, session_->system_.cluster_size())) {
        if (candidate == address_) continue;  // the address that just failed
        runtime::StorageEndpoint& fallback =
            session_->system_.endpoint(candidate);
        const std::uint64_t footprint =
            desc_.footprint_bytes(session_->options_.iterations);
        if (fallback.available() && fallback.free_bytes() >= footprint) {
          decision[0] = static_cast<std::byte>(candidate.location);
          decision[1] = static_cast<std::byte>(candidate.server);
          break;
        }
      }
    }
    decision = comm.bcast(std::move(decision), 0);
    if (decision[0] == std::byte{0xFF}) return status;  // nowhere left to go
    // The handle is shared across rank threads: one writer updates
    // `address_`; the barrier below orders the write before the other
    // ranks re-read it at the top of the next attempt.
    if (comm.rank() == 0) {
      address_ = ReplicaAddress{static_cast<Location>(decision[0]),
                                static_cast<int>(decision[1])};
      session_->system_.metrics().counter("session.failovers")->increment();
      MSRA_LOG(kInfo) << "dataset " << desc_.name << " failing over to "
                      << address_name(address_) << " after: "
                      << status.to_string();
      Status meta_status = session_->catalog_.update_dataset_location(
          app_, desc_.name, address_.location);
      if (!meta_status.ok()) {
        MSRA_LOG(kWarn) << "failover bookkeeping failed: "
                        << meta_status.to_string();
      }
    }
    comm.barrier();
  }
  return Status::Unavailable("write failed on every storage resource");
}

Status DatasetHandle::write_subfiled(prt::Comm& comm, const std::string& base,
                                     std::span<const std::byte> local) {
  MSRA_ASSIGN_OR_RETURN(runtime::ArrayLayout lay, layout(comm.size()));
  std::vector<std::uint64_t> sizes;
  auto gathered = comm.gatherv(local, 0, &sizes);
  Status status = Status::Ok();
  if (comm.rank() == 0) {
    ByteBuffer global(lay.global_bytes());  // every rank's box covers it
    const std::size_t elem = lay.elem_size;
    std::uint64_t slot_base = 0;
    for (int r = 0; r < comm.size(); ++r) {
      const prt::LocalBox box = lay.decomp.local_box(r);
      runtime::for_each_run(
          lay.decomp, box,
          [&](std::uint64_t goff, std::uint64_t count, std::uint64_t loff) {
            std::memcpy(global.data() + goff * elem,
                        gathered.data() + slot_base + loff * elem, count * elem);
          });
      slot_base += sizes[static_cast<std::size_t>(r)];
    }
    auto sublayout = runtime::SubfileLayout::create(spec(), subfile_chunks_);
    if (!sublayout.ok()) {
      status = sublayout.status();
    } else {
      auto plan =
          runtime::PlanBuilder::subfile_write(*sublayout, base, global.size());
      if (!plan.ok()) {
        status = plan.status();
      } else {
        status = runtime::PlanExecutor::execute(
            *plan, session_->system_.endpoint(address_), comm.timeline(), {},
            global, &session_->system_.tracer());
      }
    }
  }
  // Share the root's outcome.
  net::WireWriter w;
  srb::proto::put_status(w, status);
  auto payload = comm.bcast(w.take(), 0);
  net::WireReader r(payload);
  status = srb::proto::get_status(r);
  comm.sync_time();
  return status;
}

StatusOr<ReplicaChoice> DatasetHandle::locate(int timestep) const {
  MSRA_ASSIGN_OR_RETURN(
      InstanceRecord record,
      session_->catalog_.instance(app_, desc_.name, timestep));
  std::vector<ReplicaAddress> live;
  for (ReplicaAddress address : record.replicas) {
    if (session_->system_.endpoint(address).available()) {
      live.push_back(address);
    }
  }
  if (live.empty()) {
    // Everything is down: return the primary so the caller sees the real
    // error.
    const ReplicaAddress primary = record.primary();
    return ReplicaChoice{std::move(record), primary, {}};
  }
  // The balancer orders the live set best-first: cheapest load-aware
  // predictor quote over the whole-object read plan when the session has a
  // predictor attached (free read failover priced by Eq. 1/2), static
  // speed order otherwise. The whole chain is kept — a server dropping
  // mid-read fails over to the next entry.
  const runtime::IoPlan plan =
      runtime::PlanBuilder::object_read(record.path, record.bytes);
  std::vector<ReplicaAddress> chain = session_->system_.balancer().order(
      plan, std::move(live), session_->options_.predictor);
  const ReplicaAddress best = chain.front();
  return ReplicaChoice{std::move(record), best, std::move(chain)};
}

std::vector<ReplicaAddress> DatasetHandle::replica_addresses(
    int timestep) const {
  auto record = session_->catalog_.instance(app_, desc_.name, timestep);
  if (!record.ok()) return {};
  return record->replicas;
}

simkit::Timeline& DatasetHandle::timeline_or_session(
    simkit::Timeline* timeline) const {
  return timeline != nullptr ? *timeline : session_->timeline_;
}

Status DatasetHandle::replicate_timestep(int timestep,
                                         ReplicaAddress destination,
                                         const ReplicateOptions& options) {
  simkit::Timeline& timeline = timeline_or_session(options.timeline);
  if (subfiled(subfile_chunks_)) {
    return Status::Unimplemented("replication of subfile-chunked datasets");
  }
  if (destination.location != Location::kLocalDisk &&
      destination.location != Location::kRemoteDisk &&
      destination.location != Location::kRemoteTape) {
    return Status::InvalidArgument("replica destination must be concrete");
  }
  if (destination.server < 0 ||
      destination.server >= session_->system_.cluster_size()) {
    return Status::InvalidArgument("replica destination server out of range");
  }
  if (destination.location == Location::kLocalDisk) destination.server = 0;
  MSRA_ASSIGN_OR_RETURN(ReplicaChoice source, locate(timestep));
  if (source.record.on(destination)) {
    return Status::AlreadyExists("replica already on " +
                                 address_name(destination));
  }
  runtime::StorageEndpoint& dst = session_->system_.endpoint(destination);
  if (!dst.available()) {
    return Status::Unavailable("replica destination is down");
  }
  if (dst.free_bytes() < source.record.bytes) {
    return Status::CapacityExceeded("no room for replica on " +
                                    address_name(destination));
  }

  const bool same_server =
      source.address.location != Location::kLocalDisk &&
      destination.location != Location::kLocalDisk &&
      source.address.server == destination.server;
  if (same_server) {
    // Same SRB server: server-side copy (disk <-> tape), no WAN payload
    // transfer. unwrap() reaches past the instrumentation decorator.
    auto* endpoint = dynamic_cast<runtime::RemoteEndpoint*>(
        session_->system_.endpoint(source.address).unwrap());
    if (endpoint == nullptr) return Status::Internal("remote endpoint expected");
    ServerSite& site = session_->system_.site(destination.server);
    auto resource_of = [&site](Location location) {
      return location == Location::kRemoteTape
                 ? std::string(site.tape_resource().name())
                 : std::string(site.disk_resource().name());
    };
    srb::SrbClient& client = endpoint->client();
    MSRA_RETURN_IF_ERROR(client.connect(timeline));
    Status status = client.obj_replicate(
        timeline, resource_of(source.address.location), source.record.path,
        resource_of(destination.location));
    Status disc = client.disconnect(timeline);
    MSRA_RETURN_IF_ERROR(status);
    MSRA_RETURN_IF_ERROR(disc);
  } else {
    // Different servers (or one side local): stream through the client,
    // one whole-object plan per side.
    runtime::StorageEndpoint& src = session_->system_.endpoint(source.address);
    ByteBuffer payload(source.record.bytes);  // read in full before the write
    obs::TraceRecorder* tracer = &session_->system_.tracer();
    MSRA_RETURN_IF_ERROR(runtime::PlanExecutor::execute(
        runtime::PlanBuilder::object_read(source.record.path,
                                          source.record.bytes),
        src, timeline, payload, {}, tracer));
    MSRA_RETURN_IF_ERROR(runtime::PlanExecutor::execute(
        runtime::PlanBuilder::object_write(source.record.path,
                                           source.record.bytes,
                                           srb::OpenMode::kOverwrite),
        dst, timeline, {}, payload, tracer));
  }

  return session_->catalog_.add_replica(app_, desc_.name, timestep, destination);
}

Status DatasetHandle::read_timestep(prt::Comm& comm, int timestep,
                                    std::span<std::byte> local) {
  if (!enabled()) {
    return Status::NotFound("dataset " + desc_.name + " was DISABLEd");
  }
  MSRA_ASSIGN_OR_RETURN(ReplicaChoice choice, locate(timestep));
  const InstanceRecord& record = choice.record;
  MSRA_ASSIGN_OR_RETURN(runtime::ArrayLayout lay, layout(comm.size()));
  runtime::StorageEndpoint& endpoint = session_->system_.endpoint(choice.address);
  if (comm.rank() == 0) {
    session_->system_.access_tracker().record_read(
        record.dataset_key, record.bytes, comm.timeline().now());
  }
  if (!subfiled(subfile_chunks_)) {
    return runtime::read_array(endpoint, comm, record.path, lay, local,
                               desc_.method,
                               {.aggregators = desc_.aggregators});
  }
  // Subfile datasets: root reads the touched chunks (all of them for a full
  // read), then scatters blocks.
  Status status = Status::Ok();
  std::vector<ByteBuffer> chunks;
  if (comm.rank() == 0) {
    auto sublayout = runtime::SubfileLayout::create(spec(), subfile_chunks_);
    if (!sublayout.ok()) {
      status = sublayout.status();
    } else {
      prt::LocalBox full;
      for (std::size_t d = 0; d < 3; ++d) full.extent[d] = {0, desc_.dims[d]};
      ByteBuffer global(lay.global_bytes());  // the read fills it
      status = runtime::read_subfiles_box(endpoint, comm.timeline(), record.path,
                                          *sublayout, full, global);
      if (status.ok()) {
        const std::size_t elem = lay.elem_size;
        chunks.resize(static_cast<std::size_t>(comm.size()));
        for (int rr = 0; rr < comm.size(); ++rr) {
          const prt::LocalBox box = lay.decomp.local_box(rr);
          auto& chunk = chunks[static_cast<std::size_t>(rr)];
          chunk.resize(box.volume() * elem);
          runtime::for_each_run(
              lay.decomp, box,
              [&](std::uint64_t goff, std::uint64_t count, std::uint64_t loff) {
                std::memcpy(chunk.data() + loff * elem, global.data() + goff * elem,
                            count * elem);
              });
        }
      }
    }
  }
  net::WireWriter w;
  srb::proto::put_status(w, status);
  auto payload = comm.bcast(w.take(), 0);
  net::WireReader r(payload);
  status = srb::proto::get_status(r);
  if (status.ok()) {
    auto mine = comm.scatterv(std::move(chunks), 0);
    if (mine.size() != local.size()) {
      status = Status::Internal("scatter size mismatch");
    } else {
      std::memcpy(local.data(), mine.data(), mine.size());
    }
  }
  comm.sync_time();
  return status;
}

StatusOr<StagedAccess> DatasetHandle::stage_read_whole(
    int timestep, const ReadOptions& options) {
  if (!enabled()) {
    return Status::NotFound("dataset " + desc_.name + " was DISABLEd");
  }
  if (subfiled(subfile_chunks_)) {
    return Status::Unimplemented(
        "staged read of subfile-chunked datasets (chunk loop, not one plan)");
  }
  simkit::Timeline& timeline = timeline_or_session(options.timeline);
  MSRA_ASSIGN_OR_RETURN(ReplicaChoice choice, locate(timestep));
  const InstanceRecord& record = choice.record;
  runtime::StorageEndpoint& endpoint = session_->system_.endpoint(choice.address);
  session_->system_.access_tracker().record_read(record.dataset_key,
                                                 record.bytes, timeline.now());
  const std::uint64_t bytes = desc_.global_bytes();
  if (cache::ReadCache* cache = session_->system_.cache()) {
    // Hit: the identical whole-object plan, lowered against the cache
    // endpoint (Tconn = 0 there) with the served snapshot pinned.
    if (std::shared_ptr<const void> pin = cache->lookup(record.path)) {
      StagedAccess staged;
      staged.plan = runtime::PlanBuilder::object_read(record.path, bytes);
      staged.endpoint = &cache->endpoint();
      staged.cache_pin = std::move(pin);
      return staged;
    }
    // Miss: read from the chosen replica, and carry the ticket that lets
    // the executor offer the landed payload for priced admission.
    StagedAccess staged;
    staged.plan = runtime::PlanBuilder::object_read(record.path, bytes);
    staged.endpoint = &endpoint;
    staged.cache_offer =
        CacheOffer{record.path, record.dataset_key, choice.address.location};
    return staged;
  }
  StagedAccess staged;
  staged.plan = runtime::PlanBuilder::object_read(record.path, bytes);
  staged.endpoint = &endpoint;
  return staged;
}

StatusOr<StagedAccess> DatasetHandle::lower_read_box(
    int timestep, const prt::LocalBox& box, std::size_t buffer_bytes,
    const ReadOptions& options, simkit::Timeline& timeline) {
  if (!enabled()) {
    return Status::NotFound("dataset " + desc_.name + " was DISABLEd");
  }
  MSRA_ASSIGN_OR_RETURN(ReplicaChoice choice, locate(timestep));
  const InstanceRecord& record = choice.record;
  runtime::StorageEndpoint& endpoint = session_->system_.endpoint(choice.address);
  session_->system_.access_tracker().record_read(record.dataset_key,
                                                 buffer_bytes, timeline.now());
  // A cached whole object can also serve sub-array reads: same plan, just
  // lowered against the cache endpoint. Box misses carry no offer — only a
  // whole-object read yields a payload worth admitting.
  runtime::StorageEndpoint* target = &endpoint;
  std::shared_ptr<const void> pin;
  cache::ReadCache* cache = session_->system_.cache();
  if (cache != nullptr && !subfiled(subfile_chunks_) &&
      cache->contains(record.path)) {
    pin = cache->lookup(record.path, /*credit_saved=*/false);
    if (pin != nullptr) target = &cache->endpoint();
  }
  // Lower the access to a plan (subfile chunk fetch or sub-array
  // direct/sieving, vectorized when the endpoint's fast path is on).
  MSRA_ASSIGN_OR_RETURN(
      runtime::IoPlan plan,
      runtime::PlanBuilder::dataset_read_box(
          spec(), subfile_chunks_, box, record.path, options.strategy,
          target->fast_path().vectored_rpc, buffer_bytes));
  StagedAccess staged;
  staged.plan = std::move(plan);
  staged.endpoint = target;
  staged.cache_pin = std::move(pin);
  return staged;
}

StatusOr<StagedAccess> DatasetHandle::stage_read_box(
    int timestep, const prt::LocalBox& box, std::size_t buffer_bytes,
    const ReadOptions& options) {
  // No streams override here (and the handle default is deliberately not
  // applied either): reshaping the endpoint's fast path is a scoped,
  // exclusive affair the synchronous path brackets around execution.
  return lower_read_box(timestep, box, buffer_bytes, options,
                        timeline_or_session(options.timeline));
}

StatusOr<StagedAccess> DatasetHandle::stage_dump(int timestep) {
  if (!enabled()) {
    return Status::FailedPrecondition("dataset " + desc_.name +
                                      " was DISABLEd");
  }
  if (subfiled(subfile_chunks_)) {
    return Status::Unimplemented("staged dump of subfile-chunked datasets");
  }
  StagedAccess staged;
  staged.plan = runtime::PlanBuilder::object_write(
      path_for(timestep), desc_.global_bytes(), srb::OpenMode::kOverwrite);
  staged.endpoint = &session_->system_.endpoint(address_);
  return staged;
}

Status DatasetHandle::commit_dump(int timestep, simkit::SimTime now) {
  ++writes_;
  InstanceRecord record;
  record.dataset_key = MetaCatalog::dataset_key(app_, desc_.name);
  record.timestep = timestep;
  record.replicas = {address_};
  record.path = path_for(timestep);
  record.bytes = desc_.global_bytes();
  Status meta_status = session_->catalog_.record_instance(record);
  if (!meta_status.ok()) {
    MSRA_LOG(kWarn) << "instance bookkeeping failed: "
                    << meta_status.to_string();
  }
  session_->system_.access_tracker().record_write(record.dataset_key,
                                                  record.bytes, now);
  // Write-through invalidation, same as the collective write path.
  if (cache::ReadCache* cache = session_->system_.cache()) {
    cache->invalidate(record.path);
  }
  return Status::Ok();
}

StatusOr<std::vector<std::byte>> DatasetHandle::read_whole(
    int timestep, const ReadOptions& options) {
  simkit::Timeline& timeline = timeline_or_session(options.timeline);
  if (!enabled()) {
    return Status::NotFound("dataset " + desc_.name + " was DISABLEd");
  }
  std::vector<std::byte> out(desc_.global_bytes());
  if (subfiled(subfile_chunks_)) {
    // Chunk loop, not a single plan: stays synchronous-only.
    MSRA_ASSIGN_OR_RETURN(ReplicaChoice choice, locate(timestep));
    const InstanceRecord& record = choice.record;
    runtime::StorageEndpoint& endpoint =
        session_->system_.endpoint(choice.address);
    session_->system_.access_tracker().record_read(
        record.dataset_key, record.bytes, timeline.now());
    MSRA_ASSIGN_OR_RETURN(auto sublayout,
                          runtime::SubfileLayout::create(spec(), subfile_chunks_));
    prt::LocalBox full;
    for (std::size_t d = 0; d < 3; ++d) full.extent[d] = {0, desc_.dims[d]};
    MSRA_RETURN_IF_ERROR(runtime::read_subfiles_box(
        endpoint, timeline, record.path, sublayout, full, out));
    return out;
  }
  // A server dropping mid-read surfaces as kUnavailable from the executor;
  // re-lowering re-runs the balancer over the remaining live replicas, so
  // the read walks the quote-ordered chain until a copy answers. The retry
  // loop only exists in a real cluster — a single-server system keeps the
  // pre-cluster fail-fast semantics (and its exact virtual times).
  const int max_attempts =
      session_->system_.cluster_size() > 1 ? session_->system_.cluster_size() + 1
                                           : 1;
  Status status = Status::Ok();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    MSRA_ASSIGN_OR_RETURN(StagedAccess staged,
                          stage_read_whole(timestep, options));
    status = runtime::PlanExecutor::execute(staged.plan, *staged.endpoint,
                                            timeline, out, {},
                                            &session_->system_.tracer());
    if (status.ok()) {
      if (staged.cache_offer.has_value()) {
        if (cache::ReadCache* cache = session_->system_.cache()) {
          // Cache fill is system traffic: background by construction.
          simkit::QosScope background(session_->system_.qos_tag(
              qos::TenantClass::kBackground));
          (void)cache->offer(staged.cache_offer->path,
                             staged.cache_offer->dataset_key, out,
                             staged.cache_offer->origin, timeline.now());
        }
      }
      return out;
    }
    if (status.code() != ErrorCode::kUnavailable) return status;
    if (attempt + 1 < max_attempts) {
      session_->system_.metrics().counter("session.read_failovers")
          ->increment();
    }
  }
  return status;
}

Status DatasetHandle::read_box(int timestep, const prt::LocalBox& box,
                               std::span<std::byte> out,
                               const ReadOptions& options) {
  simkit::Timeline& timeline = timeline_or_session(options.timeline);
  if (!enabled()) {
    return Status::NotFound("dataset " + desc_.name + " was DISABLEd");
  }
  obs::Span span(&session_->system_.tracer(), timeline,
                 options.trace_label.empty() ? "read_box " + desc_.name
                                             : options.trace_label);
  MSRA_ASSIGN_OR_RETURN(StagedAccess staged,
                        lower_read_box(timestep, box, out.size(), options,
                                       timeline));
  runtime::StorageEndpoint& endpoint = *staged.endpoint;

  // Per-call pipelining override: ReadOptions::streams wins over the
  // handle default (OpenOptions::streams); 0 everywhere leaves the
  // endpoint's own fast-path configuration untouched.
  const int streams = options.streams != 0 ? options.streams : default_streams_;
  struct FastPathGuard {
    runtime::StorageEndpoint* ep = nullptr;
    runtime::FastPathConfig saved;
    ~FastPathGuard() {
      if (ep != nullptr) ep->set_fast_path(saved);
    }
  } guard;
  if (streams >= 1) {
    guard.saved = endpoint.fast_path();
    guard.ep = &endpoint;
    runtime::FastPathConfig cfg = guard.saved;
    cfg.pipelined_transfers = true;
    cfg.streams = static_cast<std::uint32_t>(streams);
    endpoint.set_fast_path(cfg);
  }

  return runtime::PlanExecutor::execute(staged.plan, endpoint, timeline, out,
                                        {}, &session_->system_.tracer());
}

}  // namespace msra::core
