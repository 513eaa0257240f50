#include "srb/resources.h"

namespace msra::srb {

std::string_view storage_kind_name(StorageKind kind) {
  switch (kind) {
    case StorageKind::kLocalDisk: return "LOCALDISK";
    case StorageKind::kRemoteDisk: return "REMOTEDISK";
    case StorageKind::kRemoteTape: return "REMOTETAPE";
  }
  return "?";
}

Status ServerResource::readv(simkit::Timeline& timeline, HandleId handle,
                             std::span<const IoRun> runs,
                             std::span<std::byte> out) {
  std::size_t filled = 0;
  for (const IoRun& run : runs) {
    if (filled + run.length > out.size()) {
      return Status::InvalidArgument("readv run list overflows buffer");
    }
    MSRA_RETURN_IF_ERROR(seek(timeline, handle, run.offset));
    MSRA_RETURN_IF_ERROR(
        read(timeline, handle, out.subspan(filled, run.length)));
    filled += run.length;
  }
  return Status::Ok();
}

Status ServerResource::writev(simkit::Timeline& timeline, HandleId handle,
                              std::span<const IoRun> runs,
                              std::span<const std::byte> data) {
  std::size_t consumed = 0;
  for (const IoRun& run : runs) {
    if (consumed + run.length > data.size()) {
      return Status::InvalidArgument("writev run list overflows payload");
    }
    MSRA_RETURN_IF_ERROR(seek(timeline, handle, run.offset));
    MSRA_RETURN_IF_ERROR(
        write(timeline, handle, data.subspan(consumed, run.length)));
    consumed += run.length;
  }
  return Status::Ok();
}

// ---------------------------------------------------------- DiskResource --

DiskResource::DiskResource(std::string name, StorageKind kind,
                           store::ObjectStore* store, store::DiskModel model,
                           std::uint64_t capacity_bytes, int arms)
    : name_(std::move(name)),
      kind_(kind),
      store_(store),
      model_(model),
      capacity_(capacity_bytes),
      arm_(name_ + "/arm", arms) {}

StatusOr<HandleId> DiskResource::open(simkit::Timeline& timeline,
                                      const std::string& path, OpenMode mode) {
  MSRA_RETURN_IF_ERROR(check_available());
  {
    // A pending-remove path is already unlinked: the name is gone even
    // though open handles keep the bytes alive.
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_remove_.count(path) != 0) {
      return Status::NotFound("no object: " + path);
    }
  }
  switch (mode) {
    case OpenMode::kRead:
      if (!store_->exists(path)) return Status::NotFound("no object: " + path);
      arm_.acquire(timeline, model_.open_read);
      break;
    case OpenMode::kCreate:
      MSRA_RETURN_IF_ERROR(store_->create(path, /*overwrite=*/false));
      arm_.acquire(timeline, model_.open_write);
      break;
    case OpenMode::kOverwrite:
      MSRA_RETURN_IF_ERROR(store_->create(path, /*overwrite=*/true));
      arm_.acquire(timeline, model_.open_write);
      break;
    case OpenMode::kUpdate:
      if (!store_->exists(path)) return Status::NotFound("no object: " + path);
      arm_.acquire(timeline, model_.open_write);
      break;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const HandleId handle = next_handle_++;
  handles_[handle] = {path, 0, mode};
  return handle;
}

Status DiskResource::seek(simkit::Timeline& timeline, HandleId handle,
                          std::uint64_t offset) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it == handles_.end()) return Status::InvalidArgument("bad handle");
  if (it->second.pos != offset) {
    arm_.acquire(timeline, model_.seek);
    it->second.pos = offset;
  }
  return Status::Ok();
}

Status DiskResource::read(simkit::Timeline& timeline, HandleId handle,
                          std::span<std::byte> out) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::string path;
  std::uint64_t pos = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(handle);
    if (it == handles_.end()) return Status::InvalidArgument("bad handle");
    path = it->second.path;
    pos = it->second.pos;
  }
  MSRA_RETURN_IF_ERROR(store_->read(path, pos, out));
  arm_.acquire(timeline, model_.read_time(out.size()));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it != handles_.end()) it->second.pos = pos + out.size();
  return Status::Ok();
}

Status DiskResource::write(simkit::Timeline& timeline, HandleId handle,
                           std::span<const std::byte> data) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::string path;
  std::uint64_t pos = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(handle);
    if (it == handles_.end()) return Status::InvalidArgument("bad handle");
    if (it->second.mode == OpenMode::kRead) {
      return Status::PermissionDenied("handle opened read-only");
    }
    path = it->second.path;
    pos = it->second.pos;
  }
  // Capacity check: only growth beyond the current object end counts.
  const std::uint64_t current = store_->size(path).value_or(0);
  const std::uint64_t new_end = pos + data.size();
  if (new_end > current && used() + (new_end - current) > capacity_) {
    return Status::CapacityExceeded(name_ + " is full");
  }
  MSRA_RETURN_IF_ERROR(store_->write(path, pos, data));
  arm_.acquire(timeline, model_.write_time(data.size()));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it != handles_.end()) it->second.pos = new_end;
  return Status::Ok();
}

Status DiskResource::close(simkit::Timeline& timeline, HandleId handle) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it == handles_.end()) return Status::InvalidArgument("bad handle");
  arm_.acquire(timeline, it->second.mode == OpenMode::kRead
                             ? model_.close_read
                             : model_.close_write);
  const std::string path = it->second.path;
  handles_.erase(it);
  // Last close of an unlinked object: reclaim the bytes now.
  if (pending_remove_.count(path) != 0) {
    bool still_open = false;
    for (const auto& [id, file] : handles_) {
      if (file.path == path) {
        still_open = true;
        break;
      }
    }
    if (!still_open) {
      pending_remove_.erase(path);
      return store_->remove(path);
    }
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> DiskResource::tell(HandleId handle) const {
  MSRA_RETURN_IF_ERROR(check_available());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it == handles_.end()) return Status::InvalidArgument("bad handle");
  return it->second.pos;
}

std::uint64_t DiskResource::object_bytes(HandleId handle) const {
  if (!available()) return 0;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(handle);
    if (it == handles_.end()) return 0;
    path = it->second.path;
  }
  return store_->size(path).value_or(0);
}

Status DiskResource::readv(simkit::Timeline& timeline, HandleId handle,
                           std::span<const IoRun> runs,
                           std::span<std::byte> out) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::size_t filled = 0;
  ByteBuffer hole;  // read-through scratch, content discarded
  for (const IoRun& run : runs) {
    if (filled + run.length > out.size()) {
      return Status::InvalidArgument("readv run list overflows buffer");
    }
    std::uint64_t pos = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = handles_.find(handle);
      if (it == handles_.end()) return Status::InvalidArgument("bad handle");
      pos = it->second.pos;
    }
    // The whole access list is known up front, so the scheduler may stream
    // over a forward hole (sequential-transfer time) instead of
    // repositioning the arm (mechanical seek time), whichever is cheaper.
    if (run.offset > pos && model_.read_time(run.offset - pos) < model_.seek) {
      hole.resize(static_cast<std::size_t>(run.offset - pos));
      MSRA_RETURN_IF_ERROR(read(timeline, handle, hole));
    } else if (run.offset != pos) {
      MSRA_RETURN_IF_ERROR(seek(timeline, handle, run.offset));
    }
    MSRA_RETURN_IF_ERROR(
        read(timeline, handle, out.subspan(filled, run.length)));
    filled += run.length;
  }
  return Status::Ok();
}

Status DiskResource::remove(const std::string& path) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::lock_guard<std::mutex> lock(mutex_);
  // POSIX-style deferred unlink: while a handle is open on the path, only
  // mark the name gone; the bytes go when the last handle closes.
  for (const auto& [id, file] : handles_) {
    if (file.path == path) {
      pending_remove_.insert(path);
      return Status::Ok();
    }
  }
  pending_remove_.erase(path);
  return store_->remove(path);
}

StatusOr<std::uint64_t> DiskResource::size(const std::string& path) const {
  MSRA_RETURN_IF_ERROR(check_available());
  return store_->size(path);
}

std::vector<store::ObjectInfo> DiskResource::list(const std::string& prefix) const {
  if (!available()) return {};
  return store_->list(prefix);
}

// ---------------------------------------------------------- TapeResource --

TapeResource::TapeResource(std::string name, tape::BitfileBackend* backend)
    : name_(std::move(name)), library_(backend) {}

StatusOr<HandleId> TapeResource::open(simkit::Timeline& timeline,
                                      const std::string& path, OpenMode mode) {
  MSRA_RETURN_IF_ERROR(check_available());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_remove_.count(path) != 0) {
      return Status::NotFound("no bitfile: " + path);
    }
  }
  switch (mode) {
    case OpenMode::kRead:
      if (!library_->exists(path)) return Status::NotFound("no bitfile: " + path);
      timeline.advance(library_->open_cost(path, /*write=*/false));
      break;
    case OpenMode::kCreate:
      MSRA_RETURN_IF_ERROR(library_->create(path, /*overwrite=*/false));
      timeline.advance(library_->open_cost(path, /*write=*/true));
      break;
    case OpenMode::kOverwrite:
      MSRA_RETURN_IF_ERROR(library_->create(path, /*overwrite=*/true));
      timeline.advance(library_->open_cost(path, /*write=*/true));
      break;
    case OpenMode::kUpdate: {
      if (!library_->exists(path)) return Status::NotFound("no bitfile: " + path);
      timeline.advance(library_->open_cost(path, /*write=*/true));
      // Position at the append point: tape files only grow at the tail.
      auto size = library_->size(path);
      std::lock_guard<std::mutex> lock(mutex_);
      const HandleId handle = next_handle_++;
      handles_[handle] = {path, size.value_or(0), mode};
      return handle;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const HandleId handle = next_handle_++;
  handles_[handle] = {path, 0, mode};
  return handle;
}

Status TapeResource::seek(simkit::Timeline& timeline, HandleId handle,
                          std::uint64_t offset) {
  MSRA_RETURN_IF_ERROR(check_available());
  (void)timeline;  // head movement is charged when data actually moves
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it == handles_.end()) return Status::InvalidArgument("bad handle");
  it->second.pos = offset;
  return Status::Ok();
}

Status TapeResource::read(simkit::Timeline& timeline, HandleId handle,
                          std::span<std::byte> out) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::string path;
  std::uint64_t pos = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(handle);
    if (it == handles_.end()) return Status::InvalidArgument("bad handle");
    path = it->second.path;
    pos = it->second.pos;
  }
  MSRA_RETURN_IF_ERROR(library_->read(timeline, path, pos, out));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it != handles_.end()) it->second.pos = pos + out.size();
  return Status::Ok();
}

Status TapeResource::write(simkit::Timeline& timeline, HandleId handle,
                           std::span<const std::byte> data) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::string path;
  std::uint64_t pos = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(handle);
    if (it == handles_.end()) return Status::InvalidArgument("bad handle");
    if (it->second.mode == OpenMode::kRead) {
      return Status::PermissionDenied("handle opened read-only");
    }
    path = it->second.path;
    pos = it->second.pos;
  }
  MSRA_RETURN_IF_ERROR(library_->append(timeline, path, pos, data));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it != handles_.end()) it->second.pos = pos + data.size();
  return Status::Ok();
}

Status TapeResource::close(simkit::Timeline& timeline, HandleId handle) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it == handles_.end()) return Status::InvalidArgument("bad handle");
  timeline.advance(
      library_->close_cost(it->second.mode != OpenMode::kRead));
  const std::string path = it->second.path;
  handles_.erase(it);
  if (pending_remove_.count(path) != 0) {
    bool still_open = false;
    for (const auto& [id, file] : handles_) {
      if (file.path == path) {
        still_open = true;
        break;
      }
    }
    if (!still_open) {
      pending_remove_.erase(path);
      return library_->remove(path);
    }
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> TapeResource::tell(HandleId handle) const {
  MSRA_RETURN_IF_ERROR(check_available());
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = handles_.find(handle);
  if (it == handles_.end()) return Status::InvalidArgument("bad handle");
  return it->second.pos;
}

std::uint64_t TapeResource::object_bytes(HandleId handle) const {
  if (!available()) return 0;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handles_.find(handle);
    if (it == handles_.end()) return 0;
    path = it->second.path;
  }
  return library_->size(path).value_or(0);
}

Status TapeResource::remove(const std::string& path) {
  MSRA_RETURN_IF_ERROR(check_available());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, file] : handles_) {
    if (file.path == path) {
      pending_remove_.insert(path);
      return Status::Ok();
    }
  }
  pending_remove_.erase(path);
  return library_->remove(path);
}

StatusOr<std::uint64_t> TapeResource::size(const std::string& path) const {
  MSRA_RETURN_IF_ERROR(check_available());
  return library_->size(path);
}

std::vector<store::ObjectInfo> TapeResource::list(const std::string& prefix) const {
  if (!available()) return {};
  return library_->list(prefix);
}

}  // namespace msra::srb
