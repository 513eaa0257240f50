#include "store/mem_store.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace msra::store {

Status MemObjectStore::create(const std::string& name, bool overwrite) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(name);
  if (it != objects_.end()) {
    if (!overwrite) return Status::AlreadyExists("object exists: " + name);
    used_ -= it->second.size();
    it->second.clear();
    return Status::Ok();
  }
  objects_.emplace(name, ByteBuffer{});
  return Status::Ok();
}

bool MemObjectStore::exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return objects_.count(name) != 0;
}

StatusOr<std::uint64_t> MemObjectStore::size(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(name);
  if (it == objects_.end()) return Status::NotFound("no object: " + name);
  return static_cast<std::uint64_t>(it->second.size());
}

Status MemObjectStore::write(const std::string& name, std::uint64_t offset,
                             std::span<const std::byte> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(name);
  if (it == objects_.end()) return Status::NotFound("no object: " + name);
  auto& blob = it->second;
  if (offset > std::numeric_limits<std::uint64_t>::max() - data.size()) {
    return Status::OutOfRange("write past the largest offset of " + name);
  }
  const std::uint64_t end = offset + data.size();
  if (end > blob.size()) {
    const std::uint64_t old_end = blob.size();
    used_ += end - old_end;
    blob.resize(end);  // not zero-filled: the payload lands there next
    // Only a gap between the old end and the write reads back as zeros.
    if (offset > old_end) {
      std::memset(blob.data() + old_end, 0, offset - old_end);
    }
  }
  // Zero-length write into a still-empty object: blob.data() may be null.
  if (!data.empty()) {
    std::memcpy(blob.data() + offset, data.data(), data.size());
  }
  return Status::Ok();
}

Status MemObjectStore::read(const std::string& name, std::uint64_t offset,
                            std::span<std::byte> out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(name);
  if (it == objects_.end()) return Status::NotFound("no object: " + name);
  const auto& blob = it->second;
  if (offset + out.size() > blob.size()) {
    return Status::OutOfRange("read past end of " + name);
  }
  // Zero-length read of a still-empty object: blob.data() may be null.
  if (!out.empty()) {
    std::memcpy(out.data(), blob.data() + offset, out.size());
  }
  return Status::Ok();
}

Status MemObjectStore::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = objects_.find(name);
  if (it == objects_.end()) return Status::NotFound("no object: " + name);
  used_ -= it->second.size();
  objects_.erase(it);
  return Status::Ok();
}

std::vector<ObjectInfo> MemObjectStore::list(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ObjectInfo> out;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back({it->first, static_cast<std::uint64_t>(it->second.size())});
  }
  return out;
}

std::uint64_t MemObjectStore::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_;
}

}  // namespace msra::store
