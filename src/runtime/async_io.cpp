#include "runtime/async_io.h"

#include "simkit/time.h"

namespace msra::runtime {

AsyncWriter::AsyncWriter(StorageEndpoint& endpoint, double memcpy_bandwidth)
    : endpoint_(endpoint), memcpy_bandwidth_(memcpy_bandwidth) {}

Status AsyncWriter::submit(simkit::Timeline& caller, const std::string& path,
                           std::span<const std::byte> data, OpenMode mode) {
  if (!first_error_.ok()) return first_error_;  // fail fast after an error
  ++submitted_;
  // The caller pays only for staging the buffer.
  caller.advance(simkit::transfer_time(data.size(), memcpy_bandwidth_));
  // The background work cannot start before the submission instant.
  engine_.advance_to(caller.now());
  auto session = FileSession::start(endpoint_, engine_, path, mode);
  Status status = session.ok() ? Status::Ok() : session.status();
  if (status.ok()) {
    status = session->write(data);
    Status fin = session->finish();
    if (status.ok()) status = fin;
  }
  first_error_ = status;
  return Status::Ok();
}

Status AsyncWriter::flush(simkit::Timeline& caller) {
  caller.advance_to(engine_.now());
  return first_error_;
}

}  // namespace msra::runtime
