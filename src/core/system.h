// StorageSystem: the assembled multi-storage testbed.
//
// Owns the physical layer (object stores, tape libraries), the native layer
// (SRB server cluster + WAN links), and one StorageEndpoint per storage
// class per server — the paper's experimental environment of section 3.2
// (local disks, remote disks at SDSC, remote tapes in HPSS via SRB, plus
// the local metadata database), scaled out to N server sites. The default
// single-server cluster IS the paper's testbed; server 0 keeps the legacy
// device names so telemetry and virtual times are unchanged.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/profiles.h"
#include "meta/database.h"
#include "migrate/tracker.h"
#include "net/link.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "qos/policy.h"
#include "runtime/endpoint.h"
#include "simkit/noise.h"
#include "srb/server.h"
#include "store/file_store.h"
#include "store/mem_store.h"
#include "tape/hsm.h"
#include "tape/tape_library.h"

namespace msra::cache {
class ReadCache;
struct CacheConfig;
}  // namespace msra::cache

namespace msra::predict {
class Predictor;
}  // namespace msra::predict

namespace msra::core {

class Balancer;
class MetaCatalog;

/// Storage location attribute of a dataset (section 3.2 of the paper).
enum class Location {
  kLocalDisk,   ///< LOCALDISK hint
  kRemoteDisk,  ///< REMOTEDISK hint
  kRemoteTape,  ///< REMOTETAPE hint
  kAuto,        ///< AUTO/DEFAULT: system decides (default: remote tapes)
  kDisable,     ///< DISABLE: dataset is not dumped at all
};

std::string_view location_name(Location location);
StatusOr<Location> parse_location(std::string_view name);

/// Concrete (non-hint) locations, in the order used for capacity failover.
inline constexpr Location kConcreteLocations[] = {
    Location::kLocalDisk, Location::kRemoteDisk, Location::kRemoteTape};

/// A server-qualified storage location: the storage class plus the SRB
/// server site holding the copy. Local disks sit on the client side of the
/// WAN, so kLocalDisk addresses always carry server 0. A bare Location
/// converts implicitly to the address on server 0, which keeps every
/// single-server call site (and every pre-cluster catalog) meaning exactly
/// what it meant before.
struct ReplicaAddress {
  Location location = Location::kRemoteTape;
  int server = 0;

  constexpr ReplicaAddress() = default;
  constexpr ReplicaAddress(Location location_in, int server_in = 0)
      : location(location_in), server(server_in) {}

  friend constexpr bool operator==(const ReplicaAddress&,
                                   const ReplicaAddress&) = default;
};

/// "REMOTEDISK@2"; the "@server" suffix is omitted for server 0, so
/// single-server catalogs stay textually identical to the pre-cluster
/// format.
std::string address_name(ReplicaAddress address);
/// Parses address_name() output; a bare location name is server 0.
StatusOr<ReplicaAddress> parse_address(std::string_view name);

/// One SRB storage site of the cluster: the server process with its disk
/// and tape resources, the WAN links reaching it, and the instrumented
/// endpoints over them. Site 0 carries the legacy single-server names
/// ("sdsc", "remotedisk", "wan-disk", "hpss", ...); site i appends the
/// index ("sdsc1", "remotedisk1", ...). Built and owned by StorageSystem.
class ServerSite {
 public:
  int index() const { return index_; }

  srb::SrbServer& server() { return *server_; }
  srb::DiskResource& disk_resource() { return *disk_resource_; }
  srb::TapeResource& tape_resource() { return *tape_resource_; }
  net::Link& disk_link() { return *disk_link_; }
  net::Link& tape_link() { return *tape_link_; }
  tape::TapeLibrary& tape_library() { return *tape_library_; }
  /// Non-null only when the HPSS hierarchy (staging cache) is enabled.
  tape::HsmStore* hsm() { return hsm_.get(); }

  runtime::StorageEndpoint& disk_endpoint() { return *disk_endpoint_; }
  runtime::StorageEndpoint& tape_endpoint() { return *tape_endpoint_; }

 private:
  friend class StorageSystem;
  ServerSite() = default;

  int index_ = 0;
  std::unique_ptr<store::ObjectStore> disk_store_;
  std::unique_ptr<store::ObjectStore> tape_store_;  ///< only when rooted
  std::unique_ptr<tape::TapeLibrary> tape_library_;
  std::unique_ptr<tape::HsmStore> hsm_;  ///< only when tape_cache_bytes > 0
  std::unique_ptr<srb::DiskResource> disk_resource_;
  std::unique_ptr<srb::TapeResource> tape_resource_;
  std::unique_ptr<srb::SrbServer> server_;
  std::unique_ptr<net::Link> disk_link_;
  std::unique_ptr<net::Link> tape_link_;
  std::unique_ptr<runtime::StorageEndpoint> disk_endpoint_;
  std::unique_ptr<runtime::StorageEndpoint> tape_endpoint_;
};

/// Thread-safety: a StorageSystem is a shared substrate for concurrent
/// client sessions (the multi-tenant core). Every layer a session touches —
/// endpoints, SRB servers, resources, links, tape libraries, metadata
/// database, metrics — is individually thread-safe; clients on distinct
/// host threads contend only in virtual time, on the shared simkit
/// resources. Construction, reset_time() and set_location_available() are
/// control-plane operations: run them while no client I/O is in flight.
class StorageSystem {
 public:
  /// Builds the testbed (profile.cluster.servers SRB sites). With a
  /// non-empty `data_root`, the disk-backed resources store real files
  /// under <root>/local and <root>/remote[i], and the metadata database is
  /// loaded from / saved to <root>/meta.db — so catalogs, performance data
  /// and disk-resident datasets survive across processes (tape content
  /// stays in-memory; it models an external archive). Hermetic in-memory
  /// stores are the default.
  explicit StorageSystem(const HardwareProfile& profile,
                         std::filesystem::path data_root = {});
  ~StorageSystem();

  const HardwareProfile& profile() const { return profile_; }

  /// Number of SRB server sites (>= 1).
  int cluster_size() const { return static_cast<int>(sites_.size()); }

  /// Registry lookup: the SRB site at `server` (0 <= server <
  /// cluster_size()). The single-server accessors of earlier builds
  /// (server(), remote_disk_resource(), wan_disk_link(), ...) are gone;
  /// every caller addresses a site explicitly.
  ServerSite& site(int server);

  /// Endpoint for a concrete location on server 0 (kAuto/kDisable are
  /// invalid here). Endpoints are instrumented: every Eq.-1 primitive they
  /// execute lands in `metrics()` under `io.<resource>.<op>`.
  runtime::StorageEndpoint& endpoint(Location location);
  /// Endpoint for a server-qualified address.
  runtime::StorageEndpoint& endpoint(ReplicaAddress address);

  /// The predictor-driven replica/server router (always present; policy
  /// defaults to cheapest-quote).
  Balancer& balancer() { return *balancer_; }
  const Balancer& balancer() const { return *balancer_; }

  /// System-wide instrument registry (always present; disable via
  /// `metrics().set_enabled(false)` to reduce recording to a flag check).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// System-wide span recorder (virtual-time traces).
  obs::TraceRecorder& tracer() { return tracer_; }
  const obs::TraceRecorder& tracer() const { return tracer_; }

  /// Per-dataset access heat, fed by sessions and consumed by the
  /// migration planner. Recording is time-free (counters only).
  migrate::AccessTracker& access_tracker() { return access_tracker_; }
  const migrate::AccessTracker& access_tracker() const { return access_tracker_; }

  /// Installs the priced mid-tier read cache (off until called; control
  /// plane: no client I/O may be in flight). `predictor` prices admission
  /// refetch quotes and may be null (the cache then rejects every offer as
  /// unpriced but still serves explicitly probed entries). Replaces any
  /// previously installed cache. Returns the installed cache.
  cache::ReadCache* enable_cache(const cache::CacheConfig& config,
                                 const predict::Predictor* predictor);

  /// The installed cache, or nullptr (the default: no caching anywhere).
  cache::ReadCache* cache() { return cache_.get(); }
  const cache::ReadCache* cache() const { return cache_.get(); }

  /// Removes the cache (control plane; pinned reads must have drained).
  void disable_cache();

  /// Installs the QoS policy: every shared device's grant order switches
  /// to `config.discipline`, and per-class wait histograms
  /// (`qos.wait.<class>`) start recording. Control plane: no client I/O
  /// may be in flight. kFifo keeps the native booking path — enabling QoS
  /// with the default discipline changes no virtual time anywhere.
  Status enable_qos(const qos::QosConfig& config);

  /// Reverts every device to FIFO and forgets the policy (control plane).
  void disable_qos();

  /// The installed policy, or nullptr (the default: no QoS anywhere).
  const qos::QosConfig* qos_config() const {
    return qos_config_.has_value() ? &*qos_config_ : nullptr;
  }

  /// The QosTag `cls` books under: resolved from the installed policy, or
  /// from QosConfig{} defaults when QoS was never enabled (tags are then
  /// carried but change nothing — every device still grants FIFO).
  simkit::QosTag qos_tag(qos::TenantClass cls) const;

  /// The local metadata database (the paper's Postgres).
  meta::Database& metadb() { return *metadb_; }

  /// The one dataset/instance catalog over metadb(), opened (and its
  /// indexes declared) at construction. Every session, admission quote,
  /// campaign price and mover reads through it.
  MetaCatalog& catalog() { return *catalog_; }
  const MetaCatalog& catalog() const { return *catalog_; }

  /// Persists the metadata database (no-op without a data root).
  Status save_metadata() const;

  /// True when running against a persistent data root.
  bool persistent() const { return !data_root_.empty(); }

  /// The client-side local disk (not behind any server).
  srb::DiskResource& local_resource() { return *local_resource_; }

  /// Injects / clears an outage on one storage class, across every site.
  void set_location_available(Location location, bool available);

  /// Resets every device's virtual clock so a new experiment starts on idle
  /// hardware at t = 0. Stored data and mounted cartridges are preserved.
  void reset_time();

  /// Contention snapshot of every shared device (disk arms, server CPUs,
  /// WAN pipes, tape robots/drives, HSM caches) across the cluster:
  /// operations, busy time, utilization and queueing-delay totals, for
  /// `msractl stats`/`msractl cluster` and the contention bench. Rows for
  /// idle devices are included (operations = 0).
  std::vector<obs::ResourceLoadRow> resource_loads();

  /// Every shared device with its telemetry name, in resource_loads()
  /// order — the one walk enable_qos, resource_loads and the per-class
  /// QoS report all share.
  std::vector<std::pair<std::string, simkit::Resource*>> shared_devices();

  /// Per-tenant-class QoS summary across every shared device: served
  /// grants, wait percentiles (from the `qos.wait.<class>` histograms —
  /// zero until enable_qos installs them), worst backlog, deadline misses
  /// and admission verdicts. One row per tenant class, always all three.
  std::vector<obs::QosClassRow> qos_breakdown();

 private:
  HardwareProfile profile_;
  std::filesystem::path data_root_;
  std::unique_ptr<meta::Database> metadb_;
  std::unique_ptr<MetaCatalog> catalog_;

  // Observability. Declared before the endpoint layer so instrumented
  // endpoints can bind to the registry during construction.
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder tracer_;
  migrate::AccessTracker access_tracker_{&metrics_};

  // Client-side physical layer (MemObjectStore by default, FileObjectStore
  // when rooted).
  std::unique_ptr<store::ObjectStore> local_store_;
  std::unique_ptr<srb::DiskResource> local_resource_;
  std::unique_ptr<runtime::StorageEndpoint> local_endpoint_;

  // The SRB server sites (>= 1; site 0 is the paper's single server).
  std::vector<std::unique_ptr<ServerSite>> sites_;

  // Predictor-driven replica/server routing (see core/balancer.h).
  std::unique_ptr<Balancer> balancer_;

  // Mid-tier read cache (null until enable_cache(); sessions check this on
  // every read path, so default-off costs one pointer test).
  std::unique_ptr<cache::ReadCache> cache_;

  // QoS policy (nullopt until enable_qos(); devices then grant FIFO and
  // tenant tags are inert).
  std::optional<qos::QosConfig> qos_config_;
};

}  // namespace msra::core
