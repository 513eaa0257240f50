// SRB client: the "native storage interface" to remote resources.
//
// Every call serializes a request, ships it over the shared WAN link
// (charging transmission + propagation in virtual time), lets the server
// execute it at the arrival time, and ships the response back. Connection
// setup/teardown costs follow the paper's Equation (1): they are charged at
// connect()/disconnect(), which the run-time library invokes around each
// file session.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "net/link.h"
#include "srb/fastpath.h"
#include "srb/server.h"

namespace msra::srb {

class SrbClient {
 public:
  /// Neither the server nor the link is owned.
  SrbClient(SrbServer* server, net::Link* link)
      : server_(server), link_(link) {}

  /// Establishes a connection (charges Tconn). Connections are
  /// reference-counted: parallel ranks sharing this client each call
  /// connect()/disconnect() around their file sessions, and only the
  /// outermost pair touches the wire.
  Status connect(simkit::Timeline& timeline);

  /// Drops one connection reference; tears down (charging Tconnclose) when
  /// the last user disconnects.
  Status disconnect(simkit::Timeline& timeline);

  bool connected() const {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    return conn_refs_ > 0;
  }

  /// Tears down a pooled (kept-alive) connection, charging Tconnclose. A
  /// no-op when nothing is pooled. Call before retiring the client so the
  /// Eq. (1) billing closes every connection it opened.
  Status drain(simkit::Timeline& timeline);

  void set_fast_path(const FastPathConfig& config) {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    fast_path_ = config;
  }
  FastPathConfig fast_path() const {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    return fast_path_;
  }
  FastPathStats stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
  }

  StatusOr<HandleId> obj_open(simkit::Timeline& timeline,
                              const std::string& resource,
                              const std::string& path, OpenMode mode);
  Status obj_seek(simkit::Timeline& timeline, const std::string& resource,
                  HandleId handle, std::uint64_t offset);
  Status obj_read(simkit::Timeline& timeline, const std::string& resource,
                  HandleId handle, std::span<std::byte> out);
  Status obj_write(simkit::Timeline& timeline, const std::string& resource,
                   HandleId handle, std::span<const std::byte> data);
  Status obj_close(simkit::Timeline& timeline, const std::string& resource,
                   HandleId handle);
  /// Position of an open handle (free server-side bookkeeping; one round
  /// trip on the wire).
  StatusOr<std::uint64_t> obj_tell(simkit::Timeline& timeline,
                                   const std::string& resource,
                                   HandleId handle);

  /// Vectored read: all `runs` in one kReadv round trip. `out` receives the
  /// runs' payloads back-to-back in run order and must be exactly as large
  /// as the runs' total length.
  Status obj_readv(simkit::Timeline& timeline, const std::string& resource,
                   HandleId handle, std::span<const IoRun> runs,
                   std::span<std::byte> out);

  /// Vectored write: all `runs` in one kWritev round trip. `data` carries
  /// the runs' payloads back-to-back in run order.
  Status obj_writev(simkit::Timeline& timeline, const std::string& resource,
                    HandleId handle, std::span<const IoRun> runs,
                    std::span<const std::byte> data);

  /// Pipelined bulk read starting at the handle's current position: the
  /// transfer is cut into chunks and up to `streams` chunk round-trips are
  /// kept in flight, so server disk time for chunk k+1 overlaps the WAN
  /// transmission of chunk k. Leaves the handle positioned past the data,
  /// exactly like obj_read.
  Status read_pipelined(simkit::Timeline& timeline, const std::string& resource,
                        HandleId handle, std::span<std::byte> out);

  /// Pipelined bulk write; the mirror image of read_pipelined.
  Status write_pipelined(simkit::Timeline& timeline, const std::string& resource,
                         HandleId handle, std::span<const std::byte> data);
  Status obj_remove(simkit::Timeline& timeline, const std::string& resource,
                    const std::string& path);
  StatusOr<std::uint64_t> obj_stat(simkit::Timeline& timeline,
                                   const std::string& resource,
                                   const std::string& path);
  StatusOr<std::vector<store::ObjectInfo>> obj_list(simkit::Timeline& timeline,
                                                    const std::string& resource,
                                                    const std::string& prefix);

  /// Server-side replication of `path` from one resource to another.
  Status obj_replicate(simkit::Timeline& timeline, const std::string& src_resource,
                       const std::string& path, const std::string& dst_resource);

  SrbServer* server() const { return server_; }
  net::Link* link() const { return link_; }

 private:
  /// Round trip: request over the link, dispatch, response over the link.
  StatusOr<ByteBuffer> call(simkit::Timeline& timeline,
                            const ByteBuffer& request);

  /// Completes one positional-chunk round trip whose request arrives at the
  /// server at `arrival` (may be in the client's future: the pipelined path
  /// overlaps chunk round trips without advancing the caller's timeline
  /// until the end). Dispatches the request and transmits the response back;
  /// returns the time the response has fully arrived, or an error status.
  StatusOr<simkit::SimTime> chunk_finish(simkit::SimTime arrival,
                                         const ByteBuffer& request,
                                         std::span<std::byte> response_data);

  /// Physical connection setup/teardown (link + kConnect/kDisconnect RPC),
  /// shared by connect() and drain().
  Status wire_connect(simkit::Timeline& timeline);
  Status wire_disconnect(simkit::Timeline& timeline);

  void record_batched(std::uint64_t runs);
  void record_pipelined(std::uint64_t chunks, double elapsed, double serial);

  SrbServer* server_;
  net::Link* link_;
  /// Serializes whole connect()/disconnect()/drain() transitions, *including*
  /// the wire RPCs. conn_mutex_ alone is not enough when two sessions share
  /// the pool: a second connect() could observe conn_refs_ > 0 and return Ok
  /// while the first connector's physical setup is still in flight (or while
  /// drain()/disconnect() is mid-teardown with conn_refs_ temporarily bumped
  /// for the kDisconnect RPC), leaving a "connected" client with no wire.
  /// Ordering: pool_mutex_ is taken strictly outside conn_mutex_.
  mutable std::mutex pool_mutex_;
  mutable std::mutex conn_mutex_;
  int conn_refs_ = 0;
  FastPathConfig fast_path_;  // guarded by conn_mutex_
  bool pooled_ = false;       // guarded by conn_mutex_
  simkit::SimTime pooled_since_ = 0.0;
  mutable std::mutex stats_mutex_;
  FastPathStats stats_;
};

}  // namespace msra::srb
