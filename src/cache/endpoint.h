// CacheEndpoint: the mid-tier cache presented as a StorageEndpoint, so
// cache hits run through the exact same machinery as any other I/O leg —
// lowered IoPlans, PlanCursor yielding, Eq. (1) billing. Wrapped in
// obs::InstrumentedEndpoint (by ReadCache) it produces the `io.cache.*`
// histogram rows for the breakdown report with zero special cases.
//
// Cost semantics (Eq. 1 on node-local memory):
//   Tconn = Tconnclose = 0            (no network to the cache)
//   Topen/Tseek/Trw/Tclose           from kMemoryModel
// The endpoint is read-only: writes are admission's job (ReadCache::offer),
// never the executor's.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cache/store.h"
#include "common/status.h"
#include "runtime/endpoint.h"
#include "store/disk_model.h"

namespace msra::cache {

/// Cost of node-local memory serving whole cached objects: what
/// CacheEndpoint bills on a hit and what AdmissionJudge prices as the serve
/// time, so a verdict's saving is the saving the breakdown will show.
/// Read-only, so no write costs.
inline constexpr store::DiskModel kMemoryModel{
    .open_read = 1.0e-4,   // buffer registration, no device involved
    .close_read = 1.0e-5,
    .seek = 1.0e-6,        // pointer arithmetic
    .read_bw = 400.0e6,    // sustained memcpy on the paper-era node
    .per_op = 1.0e-5,
};

class CacheEndpoint final : public runtime::StorageEndpoint {
 public:
  /// Does not own the store.
  explicit CacheEndpoint(CacheStore* store);

  runtime::StorageKind kind() const override {
    return runtime::StorageKind::kLocalDisk;
  }
  const std::string& name() const override { return name_; }

  Status connect(simkit::Timeline&) override { return Status::Ok(); }
  Status disconnect(simkit::Timeline&) override { return Status::Ok(); }

  StatusOr<runtime::HandleId> open(simkit::Timeline& timeline,
                                   const std::string& path,
                                   runtime::OpenMode mode) override;
  Status seek(simkit::Timeline& timeline, runtime::HandleId handle,
              std::uint64_t offset) override;
  Status read(simkit::Timeline& timeline, runtime::HandleId handle,
              std::span<std::byte> out) override;
  Status write(simkit::Timeline& timeline, runtime::HandleId handle,
               std::span<const std::byte> data) override;
  Status close(simkit::Timeline& timeline, runtime::HandleId handle) override;

  Status remove(simkit::Timeline& timeline, const std::string& path) override;
  StatusOr<std::uint64_t> size(simkit::Timeline& timeline,
                               const std::string& path) override;
  StatusOr<std::vector<store::ObjectInfo>> list(
      simkit::Timeline& timeline, const std::string& prefix) override;

  std::uint64_t capacity() const override;
  std::uint64_t used() const override;
  bool available() const override { return true; }

 private:
  struct OpenState {
    std::shared_ptr<const CacheStore::Snapshot> snapshot;
    std::uint64_t pos = 0;
  };

  CacheStore* store_;
  std::string name_ = "cache";
  mutable std::mutex mutex_;
  std::map<runtime::HandleId, OpenState> open_;  // guarded by mutex_
  std::uint64_t next_handle_ = 1;                // guarded by mutex_
};

}  // namespace msra::cache
