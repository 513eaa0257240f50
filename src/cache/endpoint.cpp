#include "cache/endpoint.h"

#include <cstring>

namespace msra::cache {

CacheEndpoint::CacheEndpoint(CacheStore* store) : store_(store) {}

StatusOr<runtime::HandleId> CacheEndpoint::open(simkit::Timeline& timeline,
                                                const std::string& path,
                                                runtime::OpenMode mode) {
  if (mode != runtime::OpenMode::kRead) {
    return Status::InvalidArgument("cache is read-only: open " + path);
  }
  std::shared_ptr<const CacheStore::Snapshot> snapshot =
      store_->snapshot_for_read(path);
  if (snapshot == nullptr) {
    return Status::NotFound("not cached: " + path);
  }
  timeline.advance(kMemoryModel.open_read);
  std::lock_guard<std::mutex> lock(mutex_);
  const runtime::HandleId handle = next_handle_++;
  open_[handle] = OpenState{std::move(snapshot), 0};
  return handle;
}

Status CacheEndpoint::seek(simkit::Timeline& timeline,
                           runtime::HandleId handle, std::uint64_t offset) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find(handle);
    if (it == open_.end()) {
      return Status::InvalidArgument("cache: bad handle");
    }
    it->second.pos = offset;
  }
  timeline.advance(kMemoryModel.seek);
  return Status::Ok();
}

Status CacheEndpoint::read(simkit::Timeline& timeline,
                           runtime::HandleId handle,
                           std::span<std::byte> out) {
  std::shared_ptr<const CacheStore::Snapshot> snapshot;
  std::uint64_t pos = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find(handle);
    if (it == open_.end()) {
      return Status::InvalidArgument("cache: bad handle");
    }
    snapshot = it->second.snapshot;
    pos = it->second.pos;
    it->second.pos += out.size();
  }
  const ByteBuffer& bytes = *snapshot->bytes;
  if (pos + out.size() > bytes.size()) {
    return Status::OutOfRange("cache: read past end of object");
  }
  timeline.advance(kMemoryModel.read_time(out.size()));
  if (!out.empty()) std::memcpy(out.data(), bytes.data() + pos, out.size());
  return Status::Ok();
}

Status CacheEndpoint::write(simkit::Timeline&, runtime::HandleId,
                            std::span<const std::byte>) {
  return Status::InvalidArgument("cache is read-only");
}

Status CacheEndpoint::close(simkit::Timeline& timeline,
                            runtime::HandleId handle) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (open_.erase(handle) == 0) {
      return Status::InvalidArgument("cache: bad handle");
    }
  }
  timeline.advance(kMemoryModel.close_read);
  return Status::Ok();
}

Status CacheEndpoint::remove(simkit::Timeline&, const std::string& path) {
  return store_->erase(path) ? Status::Ok()
                             : Status::NotFound("not cached: " + path);
}

StatusOr<std::uint64_t> CacheEndpoint::size(simkit::Timeline&,
                                            const std::string& path) {
  std::optional<CacheEntryInfo> info = store_->info(path);
  if (!info) return Status::NotFound("not cached: " + path);
  return info->bytes;
}

StatusOr<std::vector<store::ObjectInfo>> CacheEndpoint::list(
    simkit::Timeline&, const std::string& prefix) {
  std::vector<store::ObjectInfo> out;
  for (const CacheEntryInfo& entry : store_->entries()) {
    if (entry.path.compare(0, prefix.size(), prefix) != 0) continue;
    out.push_back(store::ObjectInfo{entry.path, entry.bytes});
  }
  return out;
}

std::uint64_t CacheEndpoint::capacity() const {
  return store_->stats().memory_capacity;
}

std::uint64_t CacheEndpoint::used() const {
  return store_->stats().memory_bytes;
}

}  // namespace msra::cache
