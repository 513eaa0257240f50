// The SRB-like storage server.
//
// Hosts named ServerResources (remote disks, remote tapes), executes wire
// requests against them, and supports replication between resources. The
// client reaches it through a net::Link; the server charges per-request CPU
// time on its own simkit resource so concurrent clients queue realistically.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/wire.h"
#include "simkit/resource.h"
#include "srb/protocol.h"
#include "srb/resources.h"

namespace msra::srb {

/// Server configuration knobs.
struct ServerConfig {
  simkit::SimTime request_overhead = 0.005;  ///< CPU cost per request (s)
  int worker_threads = 4;                    ///< server-side concurrency
};

class SrbServer {
 public:
  explicit SrbServer(std::string name, ServerConfig config = {});

  const std::string& name() const { return name_; }

  /// Registers a resource under its own name. The server does not own it.
  Status register_resource(ServerResource* resource);

  ServerResource* resource(const std::string& name) const;
  std::vector<std::string> resource_names() const;

  /// Executes one serialized request arriving at virtual time `arrival`.
  /// Returns the serialized response and the virtual completion time.
  ByteBuffer dispatch(std::span<const std::byte> request,
                      simkit::SimTime arrival, simkit::SimTime* completion);

  /// Resets the server CPU's virtual clock (between experiment repetitions).
  void reset_clock() { cpu_.reset(); }

  /// The server CPU resource (for contention accounting / wait observers).
  simkit::Resource& cpu() { return cpu_; }
  const simkit::Resource& cpu() const { return cpu_; }

  /// Whole-server fault injection (e.g. site maintenance). Atomic so an
  /// operator thread can take a site down while client sessions are
  /// mid-run — readers observe it on their next availability check.
  void set_down(bool down) { down_.store(down, std::memory_order_relaxed); }
  bool down() const { return down_.load(std::memory_order_relaxed); }

  /// Copies an object between two hosted resources (server-side replication,
  /// in the spirit of SRB's replica management). Charges read+write costs to
  /// `timeline`.
  Status replicate(simkit::Timeline& timeline, const std::string& src_resource,
                   const std::string& path, const std::string& dst_resource);

 private:
  ByteBuffer handle(net::WireReader& reader, simkit::Timeline& tl);

  std::string name_;
  ServerConfig config_;
  simkit::Resource cpu_;
  std::map<std::string, ServerResource*> resources_;
  std::atomic<bool> down_{false};
};

/// Serialization helpers shared by client and server.
namespace proto {

/// Prepends a status to a response.
void put_status(net::WireWriter& w, const Status& status);

/// Reads a status written by put_status.
Status get_status(net::WireReader& r);

}  // namespace proto

}  // namespace msra::srb
