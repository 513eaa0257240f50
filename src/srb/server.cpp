#include "srb/server.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace msra::srb {

namespace proto {

void put_status(net::WireWriter& w, const Status& status) {
  w.put_u8(static_cast<std::uint8_t>(status.code()));
  w.put_string(status.message());
}

Status get_status(net::WireReader& r) {
  auto code = r.get_u8();
  if (!code.ok()) return code.status();
  auto message = r.get_string();
  if (!message.ok()) return message.status();
  return Status(static_cast<ErrorCode>(*code), std::move(*message));
}

}  // namespace proto

namespace {
/// The payload a read of `length` bytes may need from an object of `object`
/// bytes. A longer read fails wherever it starts, and one byte past the
/// object's size fails it the same way (the resource's own status, before
/// any device time), so a request's length alone never sizes an allocation.
std::uint64_t read_bound(std::uint64_t length, std::uint64_t object) {
  return length > object ? object + 1 : length;
}

/// Run descriptors a request can still hold: reserve no more than that,
/// whatever count it claims.
std::uint64_t runs_left(const net::WireReader& reader, std::uint32_t count) {
  return std::min<std::uint64_t>(count,
                                 reader.remaining() / kRunDescriptorBytes);
}
}  // namespace

SrbServer::SrbServer(std::string name, ServerConfig config)
    : name_(std::move(name)),
      config_(config),
      cpu_(name_ + "/cpu", config.worker_threads) {}

Status SrbServer::register_resource(ServerResource* resource) {
  auto [it, inserted] = resources_.emplace(resource->name(), resource);
  if (!inserted) {
    return Status::AlreadyExists("resource exists: " + resource->name());
  }
  return Status::Ok();
}

ServerResource* SrbServer::resource(const std::string& name) const {
  auto it = resources_.find(name);
  return it == resources_.end() ? nullptr : it->second;
}

std::vector<std::string> SrbServer::resource_names() const {
  std::vector<std::string> out;
  out.reserve(resources_.size());
  for (const auto& [name, r] : resources_) out.push_back(name);
  return out;
}

ByteBuffer SrbServer::dispatch(std::span<const std::byte> request,
                               simkit::SimTime arrival,
                               simkit::SimTime* completion) {
  simkit::Timeline tl(arrival);
  cpu_.acquire(tl, config_.request_overhead);
  net::WireReader reader(request);
  ByteBuffer response;
  if (down_) {
    net::WireWriter w;
    proto::put_status(w, Status::Unavailable("server " + name_ + " is down"));
    response = w.take();
  } else {
    response = handle(reader, tl);
  }
  if (completion) *completion = tl.now();
  return response;
}

ByteBuffer SrbServer::handle(net::WireReader& reader, simkit::Timeline& tl) {
  net::WireWriter w;
  // Responds with `status` alone, dropping anything already serialized.
  auto fail = [&w](const Status& status) {
    w = net::WireWriter();
    proto::put_status(w, status);
    return w.take();
  };
  // Reads land straight in the response: the status and the length prefix
  // go first, then `read` fills the payload in place. `bound` (read_bound)
  // caps the payload; a read it cut short must fail, and a failed read
  // leaves the status-only response.
  auto read_reply = [&](std::uint64_t length, std::uint64_t bound,
                        const auto& read) {
    proto::put_status(w, Status::Ok());
    Status status = read(w.put_bytes_in_place(bound));
    if (status.ok() && bound != length) {
      status = Status::OutOfRange("object grew while being read");
    }
    return status.ok() ? w.take() : fail(status);
  };

  auto op_raw = reader.get_u8();
  if (!op_raw.ok()) return fail(op_raw.status());
  const Op op = static_cast<Op>(*op_raw);

  switch (op) {
    case Op::kConnect:
    case Op::kDisconnect: {
      proto::put_status(w, Status::Ok());
      return w.take();
    }
    case Op::kOpen: {
      auto rname = reader.get_string();
      auto path = reader.get_string();
      auto mode = reader.get_u8();
      if (!rname.ok() || !path.ok() || !mode.ok()) {
        return fail(Status::InvalidArgument("bad open request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      auto handle = r->open(tl, *path, static_cast<OpenMode>(*mode));
      if (!handle.ok()) return fail(handle.status());
      proto::put_status(w, Status::Ok());
      w.put_u64(*handle);
      return w.take();
    }
    case Op::kSeek: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      auto offset = reader.get_u64();
      if (!rname.ok() || !handle.ok() || !offset.ok()) {
        return fail(Status::InvalidArgument("bad seek request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      proto::put_status(w, r->seek(tl, *handle, *offset));
      return w.take();
    }
    case Op::kRead: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      auto length = reader.get_u64();
      if (!rname.ok() || !handle.ok() || !length.ok()) {
        return fail(Status::InvalidArgument("bad read request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      return read_reply(*length,
                        read_bound(*length, r->object_bytes(*handle)),
                        [&](std::span<std::byte> out) {
                          return r->read(tl, *handle, out);
                        });
    }
    case Op::kWrite: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      auto data = reader.get_bytes_view();
      if (!rname.ok() || !handle.ok() || !data.ok()) {
        return fail(Status::InvalidArgument("bad write request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      proto::put_status(w, r->write(tl, *handle, *data));
      return w.take();
    }
    case Op::kClose: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      if (!rname.ok() || !handle.ok()) {
        return fail(Status::InvalidArgument("bad close request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      proto::put_status(w, r->close(tl, *handle));
      return w.take();
    }
    case Op::kRemove: {
      auto rname = reader.get_string();
      auto path = reader.get_string();
      if (!rname.ok() || !path.ok()) {
        return fail(Status::InvalidArgument("bad remove request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      proto::put_status(w, r->remove(*path));
      return w.take();
    }
    case Op::kStat: {
      auto rname = reader.get_string();
      auto path = reader.get_string();
      if (!rname.ok() || !path.ok()) {
        return fail(Status::InvalidArgument("bad stat request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      auto size = r->size(*path);
      if (!size.ok()) return fail(size.status());
      proto::put_status(w, Status::Ok());
      w.put_u64(*size);
      return w.take();
    }
    case Op::kList: {
      auto rname = reader.get_string();
      auto prefix = reader.get_string();
      if (!rname.ok() || !prefix.ok()) {
        return fail(Status::InvalidArgument("bad list request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      auto objects = r->list(*prefix);
      proto::put_status(w, Status::Ok());
      w.put_u32(static_cast<std::uint32_t>(objects.size()));
      for (const auto& info : objects) {
        w.put_string(info.name);
        w.put_u64(info.size);
      }
      return w.take();
    }
    case Op::kReplicate: {
      auto src = reader.get_string();
      auto path = reader.get_string();
      auto dst = reader.get_string();
      if (!src.ok() || !path.ok() || !dst.ok()) {
        return fail(Status::InvalidArgument("bad replicate request"));
      }
      proto::put_status(w, replicate(tl, *src, *path, *dst));
      return w.take();
    }
    case Op::kReadv: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      auto count = reader.get_u32();
      if (!rname.ok() || !handle.ok() || !count.ok()) {
        return fail(Status::InvalidArgument("bad readv request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      // Each run is capped like a kRead; the readv then stops at the same
      // run, with the same status, as it would uncapped.
      const std::uint64_t object = r->object_bytes(*handle);
      std::vector<IoRun> runs;
      runs.reserve(runs_left(reader, *count));
      std::uint64_t total = 0;
      std::uint64_t bound = 0;
      for (std::uint32_t i = 0; i < *count; ++i) {
        auto offset = reader.get_u64();
        auto length = reader.get_u64();
        if (!offset.ok() || !length.ok()) {
          return fail(Status::InvalidArgument("bad readv run descriptor"));
        }
        const std::uint64_t capped = read_bound(*length, object);
        if (capped > std::numeric_limits<std::uint64_t>::max() - bound) {
          return fail(Status::InvalidArgument("readv runs overflow"));
        }
        runs.push_back({*offset, capped});
        total += *length;
        bound += capped;
      }
      return read_reply(total, bound, [&](std::span<std::byte> out) {
        return r->readv(tl, *handle, runs, out);
      });
    }
    case Op::kWritev: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      auto count = reader.get_u32();
      if (!rname.ok() || !handle.ok() || !count.ok()) {
        return fail(Status::InvalidArgument("bad writev request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      std::vector<IoRun> runs;
      runs.reserve(runs_left(reader, *count));
      std::uint64_t total = 0;
      for (std::uint32_t i = 0; i < *count; ++i) {
        auto offset = reader.get_u64();
        auto length = reader.get_u64();
        if (!offset.ok() || !length.ok()) {
          return fail(Status::InvalidArgument("bad writev run descriptor"));
        }
        runs.push_back({*offset, *length});
        total += *length;
      }
      auto data = reader.get_bytes_view();
      if (!data.ok() || data->size() != total) {
        return fail(Status::InvalidArgument("bad writev payload"));
      }
      Status status = r->writev(tl, *handle, runs, *data);
      if (!status.ok()) return fail(status);
      proto::put_status(w, Status::Ok());
      return w.take();
    }
    case Op::kPRead: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      auto offset = reader.get_u64();
      auto length = reader.get_u64();
      if (!rname.ok() || !handle.ok() || !offset.ok() || !length.ok()) {
        return fail(Status::InvalidArgument("bad pread request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      Status status = r->seek(tl, *handle, *offset);
      if (!status.ok()) return fail(status);
      return read_reply(*length,
                        read_bound(*length, r->object_bytes(*handle)),
                        [&](std::span<std::byte> out) {
                          return r->read(tl, *handle, out);
                        });
    }
    case Op::kPWrite: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      auto offset = reader.get_u64();
      auto data = reader.get_bytes_view();
      if (!rname.ok() || !handle.ok() || !offset.ok() || !data.ok()) {
        return fail(Status::InvalidArgument("bad pwrite request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      Status status = r->seek(tl, *handle, *offset);
      if (status.ok()) status = r->write(tl, *handle, *data);
      proto::put_status(w, status);
      return w.take();
    }
    case Op::kTell: {
      auto rname = reader.get_string();
      auto handle = reader.get_u64();
      if (!rname.ok() || !handle.ok()) {
        return fail(Status::InvalidArgument("bad tell request"));
      }
      ServerResource* r = resource(*rname);
      if (!r) return fail(Status::NotFound("no resource: " + *rname));
      auto pos = r->tell(*handle);
      if (!pos.ok()) return fail(pos.status());
      proto::put_status(w, Status::Ok());
      w.put_u64(*pos);
      return w.take();
    }
  }
  return fail(Status::InvalidArgument("unknown opcode"));
}

Status SrbServer::replicate(simkit::Timeline& timeline,
                            const std::string& src_resource,
                            const std::string& path,
                            const std::string& dst_resource) {
  ServerResource* src = resource(src_resource);
  ServerResource* dst = resource(dst_resource);
  if (!src) return Status::NotFound("no resource: " + src_resource);
  if (!dst) return Status::NotFound("no resource: " + dst_resource);

  MSRA_ASSIGN_OR_RETURN(std::uint64_t total, src->size(path));
  MSRA_ASSIGN_OR_RETURN(HandleId in, src->open(timeline, path, OpenMode::kRead));
  auto out = dst->open(timeline, path, OpenMode::kOverwrite);
  if (!out.ok()) {
    (void)src->close(timeline, in);
    return out.status();
  }
  // Stream in bounded chunks (server-side copy does not cross the WAN).
  constexpr std::uint64_t kChunk = 4ull << 20;
  ByteBuffer buffer;  // each chunk is read in full before it is written
  Status status = Status::Ok();
  for (std::uint64_t off = 0; off < total && status.ok(); off += kChunk) {
    const std::uint64_t n = std::min(kChunk, total - off);
    buffer.resize(n);
    status = src->read(timeline, in, buffer);
    if (status.ok()) status = dst->write(timeline, *out, buffer);
  }
  Status close_in = src->close(timeline, in);
  Status close_out = dst->close(timeline, *out);
  if (!status.ok()) return status;
  if (!close_in.ok()) return close_in;
  return close_out;
}

}  // namespace msra::srb
