// In-memory object store (the default hermetic backend).
#pragma once

#include <map>
#include <mutex>

#include "common/bytes.h"
#include "store/object_store.h"

namespace msra::store {

/// Stores objects as ByteBuffers in a sorted map. Thread-safe.
class MemObjectStore final : public ObjectStore {
 public:
  Status create(const std::string& name, bool overwrite) override;
  bool exists(const std::string& name) const override;
  StatusOr<std::uint64_t> size(const std::string& name) const override;
  Status write(const std::string& name, std::uint64_t offset,
               std::span<const std::byte> data) override;
  Status read(const std::string& name, std::uint64_t offset,
              std::span<std::byte> out) const override;
  Status remove(const std::string& name) override;
  std::vector<ObjectInfo> list(const std::string& prefix) const override;
  std::uint64_t used_bytes() const override;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, ByteBuffer> objects_;
  std::uint64_t used_ = 0;
};

}  // namespace msra::store
