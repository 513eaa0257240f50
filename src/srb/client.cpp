#include "srb/client.h"

#include <algorithm>

namespace msra::srb {

StatusOr<ByteBuffer> SrbClient::call(simkit::Timeline& timeline,
                                     const ByteBuffer& request) {
  if (!connected()) {
    return Status::PermissionDenied("client not connected to " + server_->name());
  }
  // Request travels to the server.
  const simkit::SimTime arrival =
      link_->transmit_at(timeline.now(), request.size() + kMessageOverheadBytes);
  // Server executes at the arrival time.
  simkit::SimTime completion = arrival;
  ByteBuffer response = server_->dispatch(request, arrival, &completion);
  // Response travels back.
  const simkit::SimTime back =
      link_->transmit_at(completion, response.size() + kMessageOverheadBytes);
  timeline.advance_to(back);
  return response;
}

Status SrbClient::wire_connect(simkit::Timeline& timeline) {
  link_->connect(timeline);
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kConnect));
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  return proto::get_status(r);
}

Status SrbClient::wire_disconnect(simkit::Timeline& timeline) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kDisconnect));
  auto response = call(timeline, w.take());
  link_->disconnect(timeline);
  MSRA_RETURN_IF_ERROR(response.status());
  net::WireReader r(*response);
  return proto::get_status(r);
}

Status SrbClient::connect(simkit::Timeline& timeline) {
  // Hold the pool operation lock across the whole transition (state checks
  // AND wire RPCs): a concurrent connect/disconnect/drain must never see
  // the intermediate refcounts these paths go through.
  std::lock_guard<std::mutex> pool(pool_mutex_);
  bool pool_hit = false;
  bool pool_miss = false;
  bool stale_teardown = false;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (conn_refs_++ > 0) return Status::Ok();  // already up: share it
    if (pooled_) {
      // A kept-alive physical connection is parked here. Reusing it within
      // the idle timeout costs nothing; past the timeout it is stale and
      // must be torn down (billed) before a fresh connect.
      pooled_ = false;
      if (timeline.now() - pooled_since_ <= fast_path_.pool_idle_timeout) {
        pool_hit = true;
      } else {
        pool_miss = true;
        stale_teardown = true;
      }
    } else if (fast_path_.connection_pool) {
      pool_miss = true;
    }
  }
  if (pool_hit || pool_miss) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (pool_hit) ++stats_.pool_hits;
    if (pool_miss) ++stats_.pool_misses;
  }
  if (pool_hit) return Status::Ok();
  if (stale_teardown) {
    Status teardown = wire_disconnect(timeline);
    (void)teardown;  // best effort on a stale wire; the reconnect decides
  }
  Status status = wire_connect(timeline);
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    --conn_refs_;
  }
  return status;
}

Status SrbClient::disconnect(simkit::Timeline& timeline) {
  std::lock_guard<std::mutex> pool(pool_mutex_);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (conn_refs_ == 0) return Status::Ok();  // spurious disconnect
    if (--conn_refs_ > 0) return Status::Ok();  // other users remain
    if (fast_path_.connection_pool) {
      // Keep-alive: park the physical connection instead of tearing it
      // down. No teardown is billed now; the next connect() within the
      // idle timeout is free, and drain() settles the bill at the end.
      pooled_ = true;
      pooled_since_ = timeline.now();
      return Status::Ok();
    }
    // Last user: perform the teardown below while refs == 0. The kDisconnect
    // RPC still needs the connection, so restore it around the call.
    ++conn_refs_;
  }
  Status status = wire_disconnect(timeline);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    --conn_refs_;
  }
  return status;
}

Status SrbClient::drain(simkit::Timeline& timeline) {
  // Same lock as connect(): idle-timeout reaping must not interleave with a
  // concurrent session's connect when two sessions share the pool, or the
  // connect can return Ok against a connection drain() is tearing down.
  std::lock_guard<std::mutex> pool(pool_mutex_);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (!pooled_) return Status::Ok();
    pooled_ = false;
    ++conn_refs_;  // the kDisconnect RPC needs a live connection
  }
  Status status = wire_disconnect(timeline);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    --conn_refs_;
  }
  return status;
}

StatusOr<HandleId> SrbClient::obj_open(simkit::Timeline& timeline,
                                       const std::string& resource,
                                       const std::string& path, OpenMode mode) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kOpen));
  w.put_string(resource);
  w.put_string(path);
  w.put_u8(static_cast<std::uint8_t>(mode));
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  MSRA_RETURN_IF_ERROR(proto::get_status(r));
  return r.get_u64();
}

Status SrbClient::obj_seek(simkit::Timeline& timeline, const std::string& resource,
                           HandleId handle, std::uint64_t offset) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kSeek));
  w.put_string(resource);
  w.put_u64(handle);
  w.put_u64(offset);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  return proto::get_status(r);
}

Status SrbClient::obj_read(simkit::Timeline& timeline, const std::string& resource,
                           HandleId handle, std::span<std::byte> out) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kRead));
  w.put_string(resource);
  w.put_u64(handle);
  w.put_u64(out.size());
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  MSRA_RETURN_IF_ERROR(proto::get_status(r));
  return r.get_bytes_into(out);
}

Status SrbClient::obj_write(simkit::Timeline& timeline, const std::string& resource,
                            HandleId handle, std::span<const std::byte> data) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kWrite));
  w.put_string(resource);
  w.put_u64(handle);
  w.put_bytes(data);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  return proto::get_status(r);
}

Status SrbClient::obj_close(simkit::Timeline& timeline, const std::string& resource,
                            HandleId handle) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kClose));
  w.put_string(resource);
  w.put_u64(handle);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  return proto::get_status(r);
}

StatusOr<std::uint64_t> SrbClient::obj_tell(simkit::Timeline& timeline,
                                            const std::string& resource,
                                            HandleId handle) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kTell));
  w.put_string(resource);
  w.put_u64(handle);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  MSRA_RETURN_IF_ERROR(proto::get_status(r));
  return r.get_u64();
}

Status SrbClient::obj_readv(simkit::Timeline& timeline, const std::string& resource,
                            HandleId handle, std::span<const IoRun> runs,
                            std::span<std::byte> out) {
  std::uint64_t total = 0;
  for (const IoRun& run : runs) total += run.length;
  if (total != out.size()) {
    return Status::InvalidArgument("readv buffer does not match run total");
  }
  if (runs.empty()) return Status::Ok();
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kReadv));
  w.put_string(resource);
  w.put_u64(handle);
  w.put_u32(static_cast<std::uint32_t>(runs.size()));
  for (const IoRun& run : runs) {
    w.put_u64(run.offset);
    w.put_u64(run.length);
  }
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  MSRA_RETURN_IF_ERROR(proto::get_status(r));
  MSRA_RETURN_IF_ERROR(r.get_bytes_into(out));
  record_batched(runs.size());
  return Status::Ok();
}

Status SrbClient::obj_writev(simkit::Timeline& timeline, const std::string& resource,
                             HandleId handle, std::span<const IoRun> runs,
                             std::span<const std::byte> data) {
  std::uint64_t total = 0;
  for (const IoRun& run : runs) total += run.length;
  if (total != data.size()) {
    return Status::InvalidArgument("writev payload does not match run total");
  }
  if (runs.empty()) return Status::Ok();
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kWritev));
  w.put_string(resource);
  w.put_u64(handle);
  w.put_u32(static_cast<std::uint32_t>(runs.size()));
  for (const IoRun& run : runs) {
    w.put_u64(run.offset);
    w.put_u64(run.length);
  }
  w.put_bytes(data);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  MSRA_RETURN_IF_ERROR(proto::get_status(r));
  record_batched(runs.size());
  return Status::Ok();
}

StatusOr<simkit::SimTime> SrbClient::chunk_finish(
    simkit::SimTime arrival, const ByteBuffer& request,
    std::span<std::byte> response_data) {
  simkit::SimTime completion = arrival;
  ByteBuffer response = server_->dispatch(request, arrival, &completion);
  const simkit::SimTime back =
      link_->transmit_at(completion, response.size() + kMessageOverheadBytes);
  net::WireReader r(response);
  MSRA_RETURN_IF_ERROR(proto::get_status(r));
  if (!response_data.empty()) {
    MSRA_RETURN_IF_ERROR(r.get_bytes_into(response_data));
  }
  return back;
}

Status SrbClient::read_pipelined(simkit::Timeline& timeline,
                                 const std::string& resource, HandleId handle,
                                 std::span<std::byte> out) {
  const FastPathConfig cfg = fast_path();
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, cfg.pipeline_chunk_bytes);
  if (out.size() <= chunk) return obj_read(timeline, resource, handle, out);
  if (!connected()) {
    return Status::PermissionDenied("client not connected to " + server_->name());
  }
  // The server tracks the handle position; one cheap kTell fetches it so
  // the chunks can be addressed absolutely (kPRead) and overlap in flight.
  MSRA_ASSIGN_OR_RETURN(const std::uint64_t base,
                        obj_tell(timeline, resource, handle));
  const std::size_t nchunks = (out.size() + chunk - 1) / chunk;
  const std::size_t window = std::max<std::uint32_t>(1u, cfg.streams);
  const simkit::SimTime start = timeline.now();
  // Every chunk request is built up front and its forward leg reserved in
  // client send order, a window ahead of the responses: a later chunk's
  // payload must never queue behind an earlier chunk's (tiny) response on
  // the half-duplex pipe, or the link idles for a server turnaround per
  // chunk and the pipeline degenerates to serial round trips.
  std::vector<ByteBuffer> requests(nchunks);
  for (std::size_t i = 0; i < nchunks; ++i) {
    const std::uint64_t off = i * chunk;
    const std::uint64_t n = std::min<std::uint64_t>(chunk, out.size() - off);
    net::WireWriter w;
    w.put_u8(static_cast<std::uint8_t>(Op::kPRead));
    w.put_string(resource);
    w.put_u64(handle);
    w.put_u64(base + off);
    w.put_u64(n);
    requests[i] = w.take();
  }
  std::vector<simkit::SimTime> done(nchunks, 0.0);
  std::vector<simkit::SimTime> ready(nchunks, start);
  std::vector<simkit::SimTime> arrival(nchunks, start);
  std::size_t sent = 0;
  auto send_until = [&](std::size_t limit) {
    for (; sent < limit; ++sent) {
      if (sent >= window) ready[sent] = std::max(start, done[sent - window]);
      arrival[sent] = link_->transmit_at(
          ready[sent], requests[sent].size() + kMessageOverheadBytes);
    }
  };
  simkit::SimTime last = start;
  double serial = 0.0;
  for (std::size_t i = 0; i < nchunks; ++i) {
    send_until(std::min(nchunks, i + window));
    const std::uint64_t off = i * chunk;
    const std::uint64_t n = std::min<std::uint64_t>(chunk, out.size() - off);
    auto back = chunk_finish(arrival[i], requests[i], out.subspan(off, n));
    if (!back.ok()) {
      timeline.advance_to(last);
      return back.status();
    }
    done[i] = *back;
    last = std::max(last, *back);
    serial += *back - ready[i];
  }
  timeline.advance_to(last);
  record_pipelined(nchunks, last - start, serial);
  return Status::Ok();
}

Status SrbClient::write_pipelined(simkit::Timeline& timeline,
                                  const std::string& resource, HandleId handle,
                                  std::span<const std::byte> data) {
  const FastPathConfig cfg = fast_path();
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, cfg.pipeline_chunk_bytes);
  if (data.size() <= chunk) return obj_write(timeline, resource, handle, data);
  if (!connected()) {
    return Status::PermissionDenied("client not connected to " + server_->name());
  }
  MSRA_ASSIGN_OR_RETURN(const std::uint64_t base,
                        obj_tell(timeline, resource, handle));
  const std::size_t nchunks = (data.size() + chunk - 1) / chunk;
  const std::size_t window = std::max<std::uint32_t>(1u, cfg.streams);
  const simkit::SimTime start = timeline.now();
  // See read_pipelined: forward legs are reserved in client send order, a
  // window ahead of the responses, so the chunk payloads pack back-to-back
  // on the pipe while the server's disk work overlaps with them.
  std::vector<ByteBuffer> requests(nchunks);
  for (std::size_t i = 0; i < nchunks; ++i) {
    const std::uint64_t off = i * chunk;
    const std::uint64_t n = std::min<std::uint64_t>(chunk, data.size() - off);
    net::WireWriter w;
    w.put_u8(static_cast<std::uint8_t>(Op::kPWrite));
    w.put_string(resource);
    w.put_u64(handle);
    w.put_u64(base + off);
    w.put_bytes(data.subspan(off, n));
    requests[i] = w.take();
  }
  std::vector<simkit::SimTime> done(nchunks, 0.0);
  std::vector<simkit::SimTime> ready(nchunks, start);
  std::vector<simkit::SimTime> arrival(nchunks, start);
  std::size_t sent = 0;
  auto send_until = [&](std::size_t limit) {
    for (; sent < limit; ++sent) {
      if (sent >= window) ready[sent] = std::max(start, done[sent - window]);
      arrival[sent] = link_->transmit_at(
          ready[sent], requests[sent].size() + kMessageOverheadBytes);
    }
  };
  simkit::SimTime last = start;
  double serial = 0.0;
  for (std::size_t i = 0; i < nchunks; ++i) {
    send_until(std::min(nchunks, i + window));
    auto back = chunk_finish(arrival[i], requests[i], {});
    if (!back.ok()) {
      timeline.advance_to(last);
      return back.status();
    }
    done[i] = *back;
    last = std::max(last, *back);
    serial += *back - ready[i];
  }
  timeline.advance_to(last);
  record_pipelined(nchunks, last - start, serial);
  return Status::Ok();
}

void SrbClient::record_batched(std::uint64_t runs) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.batched_calls;
  stats_.batched_runs += runs;
}

void SrbClient::record_pipelined(std::uint64_t chunks, double elapsed,
                                 double serial) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.pipelined_transfers;
  stats_.pipelined_chunks += chunks;
  stats_.pipeline_elapsed_seconds += elapsed;
  stats_.pipeline_serial_seconds += serial;
}

Status SrbClient::obj_remove(simkit::Timeline& timeline, const std::string& resource,
                             const std::string& path) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kRemove));
  w.put_string(resource);
  w.put_string(path);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  return proto::get_status(r);
}

StatusOr<std::uint64_t> SrbClient::obj_stat(simkit::Timeline& timeline,
                                            const std::string& resource,
                                            const std::string& path) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kStat));
  w.put_string(resource);
  w.put_string(path);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  MSRA_RETURN_IF_ERROR(proto::get_status(r));
  return r.get_u64();
}

StatusOr<std::vector<store::ObjectInfo>> SrbClient::obj_list(
    simkit::Timeline& timeline, const std::string& resource,
    const std::string& prefix) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kList));
  w.put_string(resource);
  w.put_string(prefix);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  MSRA_RETURN_IF_ERROR(proto::get_status(r));
  MSRA_ASSIGN_OR_RETURN(std::uint32_t count, r.get_u32());
  std::vector<store::ObjectInfo> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    MSRA_ASSIGN_OR_RETURN(std::string name, r.get_string());
    MSRA_ASSIGN_OR_RETURN(std::uint64_t size, r.get_u64());
    out.push_back({std::move(name), size});
  }
  return out;
}

Status SrbClient::obj_replicate(simkit::Timeline& timeline,
                                const std::string& src_resource,
                                const std::string& path,
                                const std::string& dst_resource) {
  net::WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(Op::kReplicate));
  w.put_string(src_resource);
  w.put_string(path);
  w.put_string(dst_resource);
  MSRA_ASSIGN_OR_RETURN(auto response, call(timeline, w.take()));
  net::WireReader r(response);
  return proto::get_status(r);
}

}  // namespace msra::srb
