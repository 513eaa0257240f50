// Asynchronous write-behind.
//
// The paper's run-time libraries provide asynchronous I/O so computation and
// (slow remote) I/O overlap. In virtual time this means: submitting a write
// costs the caller only a memory copy; the storage work accrues on the
// engine's own timeline; flush() joins the caller's clock with the engine's.
// Each write runs on the engine timeline inside submit(), on the caller's
// host thread, so the bookings follow the caller's order and every run of a
// program lands on the same virtual times.
#pragma once

#include <span>
#include <string>

#include "common/status.h"
#include "runtime/endpoint.h"

namespace msra::runtime {

/// Write-behind engine for whole-object writes. One caller thread owns a
/// writer: it is not safe to share across threads.
class AsyncWriter {
 public:
  /// `memcpy_bandwidth` prices the caller-side buffer copy (B/s virtual).
  explicit AsyncWriter(StorageEndpoint& endpoint,
                       double memcpy_bandwidth = 400.0e6);

  AsyncWriter(const AsyncWriter&) = delete;
  AsyncWriter& operator=(const AsyncWriter&) = delete;

  /// Writes a whole object (connect/open/write/close) on the engine
  /// timeline, starting no earlier than the submission instant. The caller
  /// is charged only the staging copy. A failed write does not fail the
  /// submit: it surfaces from flush(), and every later submit fails fast
  /// with it.
  Status submit(simkit::Timeline& caller, const std::string& path,
                std::span<const std::byte> data,
                OpenMode mode = OpenMode::kOverwrite);

  /// Joins the caller's clock to the engine's and returns the first error
  /// encountered (if any).
  Status flush(simkit::Timeline& caller);

  /// Number of writes submitted so far.
  std::uint64_t submitted() const { return submitted_; }

 private:
  StorageEndpoint& endpoint_;
  double memcpy_bandwidth_;
  simkit::Timeline engine_;  ///< background storage timeline
  Status first_error_;
  std::uint64_t submitted_ = 0;
};

}  // namespace msra::runtime
