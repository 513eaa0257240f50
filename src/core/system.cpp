#include "core/system.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cstdlib>

#include "cache/cache.h"
#include "core/balancer.h"
#include "core/catalog.h"
#include "runtime/factory.h"

namespace msra::core {

namespace {

/// Feeds a device's queueing delays into `io.<name>.queue_wait`. The
/// observer runs outside the resource's internal lock; the histogram
/// pointer is stable for the registry's lifetime.
void attach_wait_observer(simkit::Resource& resource,
                          obs::MetricsRegistry& metrics,
                          const std::string& name) {
  obs::Histogram* h = metrics.histogram("io." + name + ".queue_wait");
  resource.set_wait_observer(
      [h](simkit::SimTime wait) { h->record(wait); });
}

/// Site-qualified device name: site 0 keeps the legacy single-server name,
/// site i appends the index ("remotedisk" -> "remotedisk1").
std::string site_name(const std::string& base, int index) {
  return index == 0 ? base : base + std::to_string(index);
}

}  // namespace

std::string_view location_name(Location location) {
  switch (location) {
    case Location::kLocalDisk: return "LOCALDISK";
    case Location::kRemoteDisk: return "REMOTEDISK";
    case Location::kRemoteTape: return "REMOTETAPE";
    case Location::kAuto: return "AUTO";
    case Location::kDisable: return "DISABLE";
  }
  return "?";
}

StatusOr<Location> parse_location(std::string_view name) {
  if (name == "LOCALDISK") return Location::kLocalDisk;
  if (name == "REMOTEDISK") return Location::kRemoteDisk;
  if (name == "REMOTETAPE") return Location::kRemoteTape;
  if (name == "AUTO" || name == "DEFAULT") return Location::kAuto;
  if (name == "DISABLE") return Location::kDisable;
  return Status::InvalidArgument("unknown location: " + std::string(name));
}

std::string address_name(ReplicaAddress address) {
  std::string out(location_name(address.location));
  if (address.server != 0) {
    out += '@';
    out += std::to_string(address.server);
  }
  return out;
}

StatusOr<ReplicaAddress> parse_address(std::string_view name) {
  const std::size_t at = name.find('@');
  if (at == std::string_view::npos) {
    MSRA_ASSIGN_OR_RETURN(Location location, parse_location(name));
    return ReplicaAddress{location, 0};
  }
  MSRA_ASSIGN_OR_RETURN(Location location, parse_location(name.substr(0, at)));
  const std::string_view digits = name.substr(at + 1);
  int server = 0;
  auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(),
                                   server);
  if (ec != std::errc() || ptr != digits.data() + digits.size() || server < 0) {
    return Status::InvalidArgument("bad server index in address: " +
                                   std::string(name));
  }
  return ReplicaAddress{location, server};
}

StorageSystem::StorageSystem(const HardwareProfile& profile,
                             std::filesystem::path data_root)
    : profile_(profile), data_root_(std::move(data_root)) {
  // MSRA_STATS=0 turns the telemetry off for the whole system: every
  // instrument drops to a single relaxed atomic load per operation.
  if (const char* env = std::getenv("MSRA_STATS");
      env != nullptr && env[0] == '0') {
    metrics_.set_enabled(false);
    tracer_.set_enabled(false);
  }
  if (persistent()) {
    local_store_ = std::make_unique<store::FileObjectStore>(data_root_ / "local");
    auto loaded = meta::Database::load(data_root_ / "meta.db");
    metadb_ = loaded.ok() ? std::move(*loaded)
                          : std::make_unique<meta::Database>();
  } else {
    local_store_ = std::make_unique<store::MemObjectStore>();
    metadb_ = std::make_unique<meta::Database>();
  }
  catalog_ = std::make_unique<MetaCatalog>(metadb_.get());
  local_resource_ = std::make_unique<srb::DiskResource>(
      "localdisk", srb::StorageKind::kLocalDisk, local_store_.get(),
      profile.local_disk, profile.local_capacity, profile.local_disk_arms);

  const int servers = std::max(1, profile.cluster.servers);
  sites_.reserve(static_cast<std::size_t>(servers));
  for (int i = 0; i < servers; ++i) {
    auto site = std::unique_ptr<ServerSite>(new ServerSite());
    site->index_ = i;
    if (persistent()) {
      site->disk_store_ = std::make_unique<store::FileObjectStore>(
          data_root_ / site_name("remote", i));
      site->tape_store_ = std::make_unique<store::FileObjectStore>(
          data_root_ / site_name("tape", i));
    } else {
      site->disk_store_ = std::make_unique<store::MemObjectStore>();
    }
    site->tape_library_ = std::make_unique<tape::TapeLibrary>(
        site_name("hpss", i), profile.tape, profile.tape_drives,
        site->tape_store_.get());
    tape::BitfileBackend* archive = site->tape_library_.get();
    if (profile.tape_cache_bytes > 0) {
      tape::HsmModel hsm_model = profile.tape_cache;
      hsm_model.cache_capacity = profile.tape_cache_bytes;
      site->hsm_ = std::make_unique<tape::HsmStore>(
          site_name("hpss-cache", i), hsm_model, site->tape_library_.get());
      archive = site->hsm_.get();
    }

    site->disk_resource_ = std::make_unique<srb::DiskResource>(
        site_name("remotedisk", i), srb::StorageKind::kRemoteDisk,
        site->disk_store_.get(), profile.remote_disk,
        profile.remote_disk_capacity, profile.remote_disk_arms);
    site->tape_resource_ = std::make_unique<srb::TapeResource>(
        site_name("remotetape", i), archive);

    site->server_ =
        std::make_unique<srb::SrbServer>(site_name("sdsc", i), profile.server);
    Status s1 = site->server_->register_resource(site->disk_resource_.get());
    Status s2 = site->server_->register_resource(site->tape_resource_.get());
    assert(s1.ok() && s2.ok());
    (void)s1;
    (void)s2;

    simkit::NoiseModel disk_noise, tape_noise;
    if (profile.wan_jitter > 0.0) {
      // Distinct seeds per site so jittered links are independent.
      disk_noise = simkit::NoiseModel(profile.wan_jitter,
                                      profile.jitter_seed + 2 * i);
      tape_noise = simkit::NoiseModel(profile.wan_jitter,
                                      profile.jitter_seed + 2 * i + 1);
    }
    site->disk_link_ = std::make_unique<net::Link>(
        site_name("wan-disk", i), profile.wan_disk, disk_noise);
    site->tape_link_ = std::make_unique<net::Link>(
        site_name("wan-tape", i), profile.wan_tape, tape_noise);

    site->tape_library_->set_metrics(&metrics_);
    if (site->hsm_) site->hsm_->set_metrics(&metrics_);
    sites_.push_back(std::move(site));
  }

  // Endpoints come after the site registry exists: make_endpoint looks
  // servers up through site().
  local_endpoint_ = runtime::make_endpoint(*this, Location::kLocalDisk);
  for (int i = 0; i < servers; ++i) {
    sites_[static_cast<std::size_t>(i)]->disk_endpoint_ =
        runtime::make_endpoint(*this, Location::kRemoteDisk, i);
    sites_[static_cast<std::size_t>(i)]->tape_endpoint_ =
        runtime::make_endpoint(*this, Location::kRemoteTape, i);
  }

  // Contention telemetry: every shared device reports the queueing delay of
  // each granted reservation. Installed before the system is shared across
  // client threads (set_wait_observer is not itself synchronized).
  attach_wait_observer(local_resource_->arm(), metrics_, "localdisk");
  for (auto& site : sites_) {
    const int i = site->index_;
    attach_wait_observer(site->disk_resource_->arm(), metrics_,
                         site_name("remotedisk", i));
    attach_wait_observer(site->server_->cpu(), metrics_,
                         site->server_->name() + "-cpu");
    attach_wait_observer(site->disk_link_->pipe(), metrics_,
                         site_name("wan-disk", i));
    attach_wait_observer(site->tape_link_->pipe(), metrics_,
                         site_name("wan-tape", i));
    if (site->hsm_) {
      attach_wait_observer(site->hsm_->cache_arm(), metrics_,
                           site_name("hpss-cache", i));
    }
    for (auto& [name, resource] : site->tape_library_->contended_resources()) {
      attach_wait_observer(*resource, metrics_, name);
    }
  }

  balancer_ = std::make_unique<Balancer>(this);
}

// Out of line: cache::ReadCache is only forward-declared in the header.
StorageSystem::~StorageSystem() = default;

cache::ReadCache* StorageSystem::enable_cache(
    const cache::CacheConfig& config, const predict::Predictor* predictor) {
  cache_ = std::make_unique<cache::ReadCache>(&metrics_, predictor,
                                              &access_tracker_, config);
  return cache_.get();
}

void StorageSystem::disable_cache() { cache_.reset(); }

Status StorageSystem::enable_qos(const qos::QosConfig& config) {
  // Per-class wait telemetry: one histogram per tenant class, shared by
  // every device (the per-device split stays in class_stats()).
  std::array<obs::Histogram*, qos::kTenantClasses> histograms{};
  for (qos::TenantClass cls : qos::kAllTenantClasses) {
    histograms[static_cast<std::size_t>(cls)] = metrics_.histogram(
        "qos.wait." + std::string(qos::tenant_class_name(cls)));
  }
  for (auto& [name, resource] : shared_devices()) {
    resource->set_discipline(config.discipline);
    resource->set_class_wait_observer(
        [histograms](int class_id, simkit::SimTime wait) {
          if (class_id >= 0 && class_id < qos::kTenantClasses) {
            histograms[static_cast<std::size_t>(class_id)]->record(wait);
          }
        });
  }
  qos_config_ = config;
  return Status::Ok();
}

void StorageSystem::disable_qos() {
  for (auto& [name, resource] : shared_devices()) {
    resource->set_discipline(simkit::DisciplineKind::kFifo);
    resource->set_class_wait_observer(nullptr);
  }
  qos_config_.reset();
}

simkit::QosTag StorageSystem::qos_tag(qos::TenantClass cls) const {
  return qos::tag_for(qos_config_.has_value() ? *qos_config_ : qos::QosConfig{},
                      cls);
}

ServerSite& StorageSystem::site(int server) {
  assert(server >= 0 && server < cluster_size() && "server index out of range");
  return *sites_[static_cast<std::size_t>(
      std::clamp(server, 0, cluster_size() - 1))];
}

runtime::StorageEndpoint& StorageSystem::endpoint(Location location) {
  return endpoint(ReplicaAddress{location, 0});
}

runtime::StorageEndpoint& StorageSystem::endpoint(ReplicaAddress address) {
  switch (address.location) {
    case Location::kLocalDisk: return *local_endpoint_;
    case Location::kRemoteDisk: return site(address.server).disk_endpoint();
    case Location::kRemoteTape: return site(address.server).tape_endpoint();
    case Location::kAuto:
    case Location::kDisable: break;
  }
  assert(false && "endpoint() requires a concrete location");
  return *local_endpoint_;
}

Status StorageSystem::save_metadata() const {
  if (!persistent()) return Status::Ok();
  return metadb_->save(data_root_ / "meta.db");
}

void StorageSystem::reset_time() {
  local_resource_->arm().reset();
  for (auto& site : sites_) {
    site->disk_resource_->arm().reset();
    if (site->hsm_) {
      site->hsm_->reset_clocks();  // also resets the tape library's clocks
    } else {
      site->tape_library_->reset_clocks();
    }
    site->server_->reset_clock();
    site->disk_link_->pipe().reset();
    site->tape_link_->pipe().reset();
  }
}

std::vector<std::pair<std::string, simkit::Resource*>>
StorageSystem::shared_devices() {
  std::vector<std::pair<std::string, simkit::Resource*>> devices = {
      {"localdisk", &local_resource_->arm()},
  };
  for (auto& site : sites_) {
    const int i = site->index_;
    devices.emplace_back(site_name("remotedisk", i),
                         &site->disk_resource_->arm());
    devices.emplace_back(site->server_->name() + "-cpu", &site->server_->cpu());
    devices.emplace_back(site_name("wan-disk", i), &site->disk_link_->pipe());
    devices.emplace_back(site_name("wan-tape", i), &site->tape_link_->pipe());
    if (site->hsm_) {
      devices.emplace_back(site_name("hpss-cache", i), &site->hsm_->cache_arm());
    }
    for (auto& [name, resource] : site->tape_library_->contended_resources()) {
      devices.emplace_back(site_name(name, i), resource);
    }
  }
  return devices;
}

std::vector<obs::ResourceLoadRow> StorageSystem::resource_loads() {
  std::vector<std::pair<std::string, simkit::Resource*>> devices =
      shared_devices();
  std::vector<obs::ResourceLoadRow> rows;
  rows.reserve(devices.size());
  for (auto& [name, resource] : devices) {
    obs::ResourceLoadRow row;
    row.name = name;
    row.capacity = resource->capacity();
    row.operations = resource->operations();
    row.busy_seconds = resource->busy_time();
    row.utilization = resource->utilization();
    const simkit::Resource::QueueStats q = resource->queue_stats();
    row.reservations = q.reservations;
    row.total_wait = q.total_wait;
    row.max_wait = q.max_wait;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<obs::QosClassRow> StorageSystem::qos_breakdown() {
  std::vector<obs::QosClassRow> rows;
  rows.reserve(qos::kTenantClasses);
  for (qos::TenantClass cls : qos::kAllTenantClasses) {
    obs::QosClassRow row;
    row.tenant = std::string(qos::tenant_class_name(cls));
    rows.push_back(std::move(row));
  }
  for (auto& [name, resource] : shared_devices()) {
    for (const auto& [class_id, stats] : resource->class_stats()) {
      if (class_id < 0 || class_id >= qos::kTenantClasses) continue;
      obs::QosClassRow& row = rows[static_cast<std::size_t>(class_id)];
      row.served += stats.served;
      row.wait_max = std::max(row.wait_max, stats.max_wait);
      row.max_backlog = std::max(row.max_backlog, stats.max_backlog);
      row.deadline_misses += stats.deadline_misses;
    }
  }
  for (obs::QosClassRow& row : rows) {
    if (const obs::Histogram* h =
            metrics_.find_histogram("qos.wait." + row.tenant)) {
      row.wait_p50 = h->percentile(50.0);
      row.wait_p99 = h->percentile(99.0);
    }
    const std::string prefix = "qos.admission." + row.tenant + ".";
    if (const obs::Counter* c = metrics_.find_counter(prefix + "accepted")) {
      row.accepted = c->value();
    }
    if (const obs::Counter* c = metrics_.find_counter(prefix + "redirected")) {
      row.redirected = c->value();
    }
    if (const obs::Counter* c = metrics_.find_counter(prefix + "rejected")) {
      row.rejected = c->value();
    }
  }
  return rows;
}

void StorageSystem::set_location_available(Location location, bool available) {
  switch (location) {
    case Location::kLocalDisk:
      local_resource_->set_available(available);
      break;
    case Location::kRemoteDisk:
      for (auto& site : sites_) site->disk_resource_->set_available(available);
      break;
    case Location::kRemoteTape:
      for (auto& site : sites_) site->tape_resource_->set_available(available);
      break;
    case Location::kAuto:
    case Location::kDisable:
      break;
  }
}

}  // namespace msra::core
