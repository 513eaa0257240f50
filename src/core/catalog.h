// MetaCatalog: the paper's metadata schema on top of the embedded database.
//
// "The meta-data describes information about applications and users running
// in the system, and information about each dataset and its characteristics
// ... the storage resource type on which each dataset is stored or to be
// stored, file path and name of each dataset, how each dataset is
// partitioned among processors, how it is stored on storage systems."
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "meta/database.h"

namespace msra::core {

/// A dumped timestep instance of a dataset, together with every storage
/// resource currently holding a live copy. The replica set is ordered:
/// the first entry is the primary (the address of the original dump);
/// later entries were added by replication or migration. Replicas are
/// server-qualified (stored as "REMOTEDISK@1"; bare names are server 0),
/// so datasets shard across the SRB cluster.
struct InstanceRecord {
  std::string dataset_key;  ///< "app/dataset"
  int timestep = 0;
  std::vector<ReplicaAddress> replicas;
  std::string path;
  std::uint64_t bytes = 0;

  ReplicaAddress primary() const {
    return replicas.empty() ? ReplicaAddress{Location::kRemoteTape, 0}
                            : replicas.front();
  }
  /// Exact address match (a bare Location argument means server 0).
  bool on(ReplicaAddress address) const;
  /// Any-server match: a replica of this storage class on some site.
  bool on_location(Location location) const;
};

/// A registered dataset.
struct DatasetRecord {
  std::string app;
  DatasetDesc desc;
  Location resolved;  ///< where placement actually put it
};

class MetaCatalog {
 public:
  /// Instance-table persistence format written by this build. Format 1
  /// (one row per replica, a single `location` column) is upgraded in
  /// place when an old catalog is opened; see the constructor.
  static constexpr int kInstanceFormat = 2;

  /// Creates/opens the schema inside `db` (not owned) and declares its
  /// lookup indexes. Old-format catalogs are migrated to the current
  /// format on open, so a database written by any earlier build keeps
  /// loading; opening a current catalog writes nothing. A StorageSystem
  /// owns the one catalog over its metadb (StorageSystem::catalog()).
  explicit MetaCatalog(meta::Database* db);

  // -- applications & users ------------------------------------------------
  Status register_user(const std::string& user, const std::string& affiliation);
  Status register_application(const std::string& app, const std::string& user,
                              int nprocs, int iterations);
  StatusOr<int> application_iterations(const std::string& app) const;

  // -- datasets --------------------------------------------------------
  Status register_dataset(const std::string& app, const DatasetDesc& desc,
                          Location resolved);
  StatusOr<DatasetRecord> dataset(const std::string& app,
                                  const std::string& name) const;
  /// Finds a dataset by bare name across all applications (first match).
  StatusOr<DatasetRecord> find_dataset(const std::string& name) const;
  /// Every registered dataset, across applications.
  std::vector<DatasetRecord> all_datasets() const;
  std::vector<DatasetRecord> datasets(const std::string& app) const;
  Status update_dataset_location(const std::string& app, const std::string& name,
                                 Location resolved);

  // -- dumped instances ----------------------------------------------------
  // One row per (dataset, timestep) carrying the whole replica set.
  /// Upserts on (key, timestep): re-dumps replace path/bytes; the record's
  /// replicas are unioned into the stored set (order preserved).
  Status record_instance(const InstanceRecord& record);
  /// One timestep with its full replica set.
  StatusOr<InstanceRecord> instance(const std::string& app,
                                    const std::string& name, int timestep) const;
  /// Appends one replica address (idempotent). Fails with kNotFound if the
  /// instance was never dumped.
  Status add_replica(const std::string& app, const std::string& name,
                     int timestep, ReplicaAddress address);
  /// Drops one replica address; removing the last replica erases the whole
  /// instance row (the dataset no longer exists at that timestep).
  Status remove_replica(const std::string& app, const std::string& name,
                        int timestep, ReplicaAddress address);
  /// All instances of a dataset across timesteps.
  std::vector<InstanceRecord> instances(const std::string& app,
                                        const std::string& name) const;
  /// Every instance row in the catalog (migration planner, `msractl
  /// resources`).
  std::vector<InstanceRecord> all_instances() const;

  static std::string dataset_key(const std::string& app, const std::string& name) {
    return app + "/" + name;
  }
  /// Splits "app/dataset" back into its components (first '/' wins).
  static std::pair<std::string, std::string> split_key(const std::string& key);

 private:
  std::vector<std::int64_t> instance_rowids(const std::string& key,
                                            int timestep) const;

  meta::Database* db_;  ///< for txn_mutex(): compound upserts must be atomic
  meta::Table* users_;
  meta::Table* applications_;
  meta::Table* datasets_;
  meta::Table* instances_;
};

}  // namespace msra::core
