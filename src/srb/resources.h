// Server-side storage resources hosted by the SRB-like server.
//
// A ServerResource is the paper's "physical storage resource + native
// storage interface" pair: deliberately performance-naive (section 3.1 —
// "this layer is performance-insensitive"); all optimization happens in the
// run-time libraries above. Handles carry an explicit file position so the
// seek cost of Table 1 is a real, separately-billed operation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "simkit/resource.h"
#include "srb/fastpath.h"
#include "simkit/timeline.h"
#include "store/disk_model.h"
#include "store/object_store.h"
#include "tape/tape_library.h"

namespace msra::srb {

/// Storage classes of the paper's architecture.
enum class StorageKind { kLocalDisk, kRemoteDisk, kRemoteTape };

std::string_view storage_kind_name(StorageKind kind);

/// File open modes (the paper's AMODE column: read / create / over_write,
/// plus update = open an existing object writable without truncation).
enum class OpenMode { kRead, kCreate, kOverwrite, kUpdate };

using HandleId = std::uint64_t;

/// Abstract server-side resource. Thread-safe.
class ServerResource {
 public:
  virtual ~ServerResource() = default;

  virtual StorageKind kind() const = 0;
  virtual const std::string& name() const = 0;

  /// Opens an object, charging the open cost. kCreate fails on an existing
  /// object; kOverwrite truncates or creates.
  virtual StatusOr<HandleId> open(simkit::Timeline& timeline,
                                  const std::string& path, OpenMode mode) = 0;

  /// Repositions the handle, charging the seek cost.
  virtual Status seek(simkit::Timeline& timeline, HandleId handle,
                      std::uint64_t offset) = 0;

  /// Reads `out.size()` bytes at the handle position, advancing it.
  virtual Status read(simkit::Timeline& timeline, HandleId handle,
                      std::span<std::byte> out) = 0;

  /// Writes at the handle position, advancing it.
  virtual Status write(simkit::Timeline& timeline, HandleId handle,
                       std::span<const std::byte> data) = 0;

  /// Closes the handle, charging the close cost.
  virtual Status close(simkit::Timeline& timeline, HandleId handle) = 0;

  /// Reads a run list (in order) into `out`, packed back-to-back. The
  /// default bills exactly like the per-run seek+read loop a client would
  /// issue; devices that can exploit knowing the whole access list up front
  /// (disk schedulers) override it.
  virtual Status readv(simkit::Timeline& timeline, HandleId handle,
                       std::span<const IoRun> runs, std::span<std::byte> out);

  /// Writes a run list (in order) from `data`, packed back-to-back. Holes
  /// between runs cannot be streamed over (their content must survive), so
  /// every device pays seek+write per run.
  virtual Status writev(simkit::Timeline& timeline, HandleId handle,
                        std::span<const IoRun> runs,
                        std::span<const std::byte> data);

  /// Size of the object an open handle reads, or 0 when the resource is
  /// down, the handle is bad or the object is gone. Free (bookkeeping, no
  /// device time): the server sizes read payloads by it, not by a
  /// request's claimed length alone.
  virtual std::uint64_t object_bytes(HandleId handle) const = 0;

  /// Current position of an open handle. Free (pure bookkeeping, no device
  /// time): the pipelined transfer path uses it to chunk a transfer without
  /// mirroring handle state on the client.
  virtual StatusOr<std::uint64_t> tell(HandleId handle) const {
    (void)handle;
    return Status::Unimplemented("tell not supported by " + std::string(name()));
  }

  /// Unlinks an object. POSIX semantics: if any handle is still open on the
  /// path, the name disappears immediately (new opens fail NotFound) but the
  /// bytes survive until the last handle closes.
  virtual Status remove(const std::string& path) = 0;
  virtual StatusOr<std::uint64_t> size(const std::string& path) const = 0;
  virtual std::vector<store::ObjectInfo> list(const std::string& prefix) const = 0;

  /// Capacity in bytes (UINT64_MAX means effectively unlimited).
  virtual std::uint64_t capacity() const = 0;
  virtual std::uint64_t used() const = 0;

  /// Fault injection: an unavailable resource fails every operation with
  /// kUnavailable (the paper's "remote tape system is down for maintenance"
  /// scenario).
  void set_available(bool available) { available_.store(available); }
  bool available() const { return available_.load(); }

 protected:
  Status check_available() const {
    if (!available()) {
      return Status::Unavailable("storage resource is down: " + name());
    }
    return Status::Ok();
  }

 private:
  std::atomic<bool> available_{true};
};

/// A disk-backed resource (local disks, or the remote disks at "SDSC").
class DiskResource final : public ServerResource {
 public:
  /// Does not own `store` (sharing lets tests inspect objects directly).
  /// `arms` models striping: that many requests can be serviced in
  /// parallel (a RAID of independent spindles).
  DiskResource(std::string name, StorageKind kind, store::ObjectStore* store,
               store::DiskModel model, std::uint64_t capacity_bytes,
               int arms = 1);

  StorageKind kind() const override { return kind_; }
  const std::string& name() const override { return name_; }

  StatusOr<HandleId> open(simkit::Timeline& timeline, const std::string& path,
                          OpenMode mode) override;
  Status seek(simkit::Timeline& timeline, HandleId handle,
              std::uint64_t offset) override;
  Status read(simkit::Timeline& timeline, HandleId handle,
              std::span<std::byte> out) override;
  Status write(simkit::Timeline& timeline, HandleId handle,
               std::span<const std::byte> data) override;
  Status close(simkit::Timeline& timeline, HandleId handle) override;
  StatusOr<std::uint64_t> tell(HandleId handle) const override;
  std::uint64_t object_bytes(HandleId handle) const override;
  /// Disk scheduling over a known access list: a small forward hole is read
  /// through sequentially when that is cheaper than repositioning the arm.
  Status readv(simkit::Timeline& timeline, HandleId handle,
               std::span<const IoRun> runs, std::span<std::byte> out) override;
  Status remove(const std::string& path) override;
  StatusOr<std::uint64_t> size(const std::string& path) const override;
  std::vector<store::ObjectInfo> list(const std::string& prefix) const override;
  std::uint64_t capacity() const override { return capacity_; }
  std::uint64_t used() const override { return store_->used_bytes(); }

  const store::DiskModel& model() const { return model_; }
  simkit::Resource& arm() { return arm_; }

 private:
  struct OpenFile {
    std::string path;
    std::uint64_t pos = 0;
    OpenMode mode = OpenMode::kRead;
  };

  std::string name_;
  StorageKind kind_;
  store::ObjectStore* store_;
  store::DiskModel model_;
  std::uint64_t capacity_;
  simkit::Resource arm_;
  mutable std::mutex mutex_;
  std::map<HandleId, OpenFile> handles_;
  std::set<std::string> pending_remove_;  ///< unlinked, but handles still open
  HandleId next_handle_ = 1;
};

/// An archive-backed resource (the HPSS stand-in): bare tapes, or the full
/// disk-cache + tape hierarchy when given an HsmStore.
class TapeResource final : public ServerResource {
 public:
  /// Does not own `backend`.
  TapeResource(std::string name, tape::BitfileBackend* backend);

  StorageKind kind() const override { return StorageKind::kRemoteTape; }
  const std::string& name() const override { return name_; }

  StatusOr<HandleId> open(simkit::Timeline& timeline, const std::string& path,
                          OpenMode mode) override;
  Status seek(simkit::Timeline& timeline, HandleId handle,
              std::uint64_t offset) override;
  Status read(simkit::Timeline& timeline, HandleId handle,
              std::span<std::byte> out) override;
  Status write(simkit::Timeline& timeline, HandleId handle,
               std::span<const std::byte> data) override;
  Status close(simkit::Timeline& timeline, HandleId handle) override;
  StatusOr<std::uint64_t> tell(HandleId handle) const override;
  std::uint64_t object_bytes(HandleId handle) const override;
  Status remove(const std::string& path) override;
  StatusOr<std::uint64_t> size(const std::string& path) const override;
  std::vector<store::ObjectInfo> list(const std::string& prefix) const override;
  std::uint64_t capacity() const override { return UINT64_MAX; }
  std::uint64_t used() const override { return library_->used_bytes(); }

  tape::BitfileBackend& backend() { return *library_; }

 private:
  struct OpenFile {
    std::string path;
    std::uint64_t pos = 0;
    OpenMode mode = OpenMode::kRead;
  };

  std::string name_;
  tape::BitfileBackend* library_;
  mutable std::mutex mutex_;
  std::map<HandleId, OpenFile> handles_;
  std::set<std::string> pending_remove_;  ///< unlinked, but handles still open
  HandleId next_handle_ = 1;
};

}  // namespace msra::srb
