// Asynchronous write-behind.
//
// The paper's run-time libraries provide asynchronous I/O so computation and
// (slow remote) I/O overlap. In virtual time this means: submitting a write
// costs the caller only a memory copy; the storage work accrues on the
// engine's own timeline; flush() joins the caller's clock with the engine's.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/threadpool.h"
#include "runtime/endpoint.h"

namespace msra::runtime {

/// Write-behind engine for whole-object writes.
class AsyncWriter {
 public:
  /// `memcpy_bandwidth` prices the caller-side buffer copy (B/s virtual).
  explicit AsyncWriter(StorageEndpoint& endpoint,
                       double memcpy_bandwidth = 400.0e6);
  ~AsyncWriter();

  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  /// Queues a whole-object write (connect/open/write/close run in the
  /// background). The caller is charged only the staging copy.
  Status submit(simkit::Timeline& caller, const std::string& path,
                std::vector<std::byte> data, OpenMode mode = OpenMode::kOverwrite);

  /// Blocks until every queued write completed; joins the caller's clock to
  /// the engine's and returns the first error encountered (if any).
  Status flush(simkit::Timeline& caller);

  /// Number of writes submitted so far.
  std::uint64_t submitted() const;

  /// Writes submitted but not yet retired by the engine.
  std::uint64_t pending() const;

 private:
  StorageEndpoint& endpoint_;
  double memcpy_bandwidth_;
  simkit::Timeline engine_;      ///< background storage timeline
  ThreadPool pool_;              ///< one worker: writes retire in order
  mutable std::mutex mutex_;
  Status first_error_;
  std::uint64_t submitted_ = 0;
  std::uint64_t pending_ = 0;
};

}  // namespace msra::runtime
