#include "core/catalog.h"

#include <algorithm>
#include <cassert>

namespace msra::core {

using meta::ColumnType;
using meta::Row;
using meta::Value;

namespace {

/// Joins a replica set into the stored text cell
/// ("LOCALDISK,REMOTETAPE@1"). Server 0 has no "@" suffix, so a
/// single-server catalog is byte-identical to the pre-cluster format.
std::string join_replicas(const std::vector<ReplicaAddress>& replicas) {
  std::string out;
  for (ReplicaAddress address : replicas) {
    if (!out.empty()) out += ',';
    out += address_name(address);
  }
  return out;
}

/// Parses the stored replica cell. Unknown names are skipped so a future
/// format that adds locations still loads the ones we know about. Bare
/// location names (every pre-cluster catalog) parse as server 0.
std::vector<ReplicaAddress> parse_replicas(const std::string& text) {
  std::vector<ReplicaAddress> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) {
      auto address = parse_address(text.substr(begin, end - begin));
      if (address.ok()) out.push_back(*address);
    }
    if (end == text.size()) break;
    begin = end + 1;
  }
  return out;
}

InstanceRecord instance_from_row(const Row& row) {
  InstanceRecord record;
  record.dataset_key = std::get<std::string>(row[0]);
  record.timestep = static_cast<int>(std::get<std::int64_t>(row[1]));
  record.replicas = parse_replicas(std::get<std::string>(row[2]));
  record.path = std::get<std::string>(row[3]);
  record.bytes = static_cast<std::uint64_t>(std::get<std::int64_t>(row[4]));
  return record;
}

Row instance_to_row(const InstanceRecord& record) {
  return Row{record.dataset_key, std::int64_t{record.timestep},
             join_replicas(record.replicas), record.path,
             static_cast<std::int64_t>(record.bytes)};
}

meta::Schema instances_schema_v2() {
  return meta::Schema{{"dataset_key", ColumnType::kText},
                      {"timestep", ColumnType::kInt},
                      {"replicas", ColumnType::kText},
                      {"path", ColumnType::kText},
                      {"bytes", ColumnType::kInt}};
}

/// Rewrites a format-1 instances table (one row per replica, single
/// `location` column) into the format-2 shape (one row per timestep with a
/// replica-set column). Replica order follows first-recorded order, so the
/// original dump location stays primary.
void upgrade_instances_v1(meta::Database* db, meta::Table* old_table) {
  std::vector<InstanceRecord> merged;
  old_table->for_each([&](std::int64_t, const Row& row) {
    const std::string& key = std::get<std::string>(row[0]);
    const int timestep = static_cast<int>(std::get<std::int64_t>(row[1]));
    auto loc = parse_location(std::get<std::string>(row[2]));
    if (!loc.ok()) return;
    auto it = std::find_if(merged.begin(), merged.end(), [&](const InstanceRecord& r) {
      return r.dataset_key == key && r.timestep == timestep;
    });
    if (it == merged.end()) {
      InstanceRecord record;
      record.dataset_key = key;
      record.timestep = timestep;
      record.replicas = {*loc};
      record.path = std::get<std::string>(row[3]);
      record.bytes = static_cast<std::uint64_t>(std::get<std::int64_t>(row[4]));
      merged.push_back(std::move(record));
    } else if (!it->on(*loc)) {
      it->replicas.push_back(*loc);
    }
  });
  (void)db->drop_table("instances");
  auto fresh = db->open_table("instances", instances_schema_v2());
  assert(fresh.ok());
  for (const InstanceRecord& record : merged) {
    (void)(*fresh)->insert(instance_to_row(record));
  }
}

}  // namespace

bool InstanceRecord::on(ReplicaAddress address) const {
  return std::find(replicas.begin(), replicas.end(), address) != replicas.end();
}

bool InstanceRecord::on_location(Location location) const {
  return std::any_of(
      replicas.begin(), replicas.end(),
      [location](ReplicaAddress a) { return a.location == location; });
}

std::pair<std::string, std::string> MetaCatalog::split_key(const std::string& key) {
  std::size_t slash = key.find('/');
  if (slash == std::string::npos) return {key, ""};
  return {key.substr(0, slash), key.substr(slash + 1)};
}

MetaCatalog::MetaCatalog(meta::Database* db) : db_(db) {
  auto users = db->open_table(
      "users", meta::Schema{{"name", ColumnType::kText},
                            {"affiliation", ColumnType::kText}});
  auto applications = db->open_table(
      "applications", meta::Schema{{"name", ColumnType::kText},
                                   {"user", ColumnType::kText},
                                   {"nprocs", ColumnType::kInt},
                                   {"iterations", ColumnType::kInt}});
  auto datasets = db->open_table(
      "datasets",
      meta::Schema{{"key", ColumnType::kText},        // app/name
                   {"app", ColumnType::kText},
                   {"name", ColumnType::kText},
                   {"amode", ColumnType::kText},
                   {"etype", ColumnType::kText},
                   {"pattern", ColumnType::kText},
                   {"dim0", ColumnType::kInt},
                   {"dim1", ColumnType::kInt},
                   {"dim2", ColumnType::kInt},
                   {"frequency", ColumnType::kInt},
                   {"hint", ColumnType::kText},       // user's EXPECTEDLOC
                   {"resolved", ColumnType::kText},   // placement decision
                   {"method", ColumnType::kText}});
  // Format upgrade: a catalog written before replica sets stores one row
  // per replica with a `location` column.
  if (meta::Table* existing = db->table("instances");
      existing != nullptr && existing->schema().index_of("location") >= 0) {
    upgrade_instances_v1(db, existing);
  }
  auto instances = db->open_table("instances", instances_schema_v2());
  auto catalog_meta = db->open_table(
      "catalog_meta", meta::Schema{{"key", ColumnType::kText},
                                   {"value", ColumnType::kText}});
  assert(users.ok() && applications.ok() && datasets.ok() && instances.ok() &&
         catalog_meta.ok());
  users_ = *users;
  applications_ = *applications;
  datasets_ = *datasets;
  instances_ = *instances;
  // Declared on every open (create_index is idempotent): unique indexes
  // persist with the table, the by-name and by-dataset ones are rebuilt
  // here after a load.
  (void)users_->create_unique_index("name");
  (void)applications_->create_unique_index("name");
  (void)datasets_->create_unique_index("key");
  (void)datasets_->create_index("name");
  (void)instances_->create_index("dataset_key");
  meta::Table* meta_table = *catalog_meta;
  (void)meta_table->create_unique_index("key");
  // Written only when it differs, so opening a current catalog writes
  // nothing.
  const Value fmt_value{std::to_string(kInstanceFormat)};
  auto fmt = meta_table->lookup("key", Value{std::string("instances_format")});
  if (!fmt.ok()) {
    (void)meta_table->insert(Row{std::string("instances_format"), fmt_value});
  } else if (auto row = meta_table->get(*fmt);
             !row.ok() || !meta::value_equals((*row)[1], fmt_value)) {
    (void)meta_table->update_cell(*fmt, "value", fmt_value);
  }
}

Status MetaCatalog::register_user(const std::string& user,
                                  const std::string& affiliation) {
  // Each Table call is atomic, but lookup-then-insert is not: concurrent
  // sessions registering the same user/app/dataset would both insert.
  std::lock_guard<std::mutex> txn(db_->txn_mutex());
  auto existing = users_->lookup("name", Value{user});
  if (existing.ok()) return Status::Ok();  // idempotent
  return users_->insert(Row{user, affiliation}).status();
}

Status MetaCatalog::register_application(const std::string& app,
                                         const std::string& user, int nprocs,
                                         int iterations) {
  std::lock_guard<std::mutex> txn(db_->txn_mutex());
  auto existing = applications_->lookup("name", Value{app});
  if (existing.ok()) {
    return applications_->update(
        *existing, Row{app, user, std::int64_t{nprocs}, std::int64_t{iterations}});
  }
  return applications_
      ->insert(Row{app, user, std::int64_t{nprocs}, std::int64_t{iterations}})
      .status();
}

StatusOr<int> MetaCatalog::application_iterations(const std::string& app) const {
  MSRA_ASSIGN_OR_RETURN(std::int64_t rowid, applications_->lookup("name", Value{app}));
  MSRA_ASSIGN_OR_RETURN(Row row, applications_->get(rowid));
  return static_cast<int>(std::get<std::int64_t>(row[3]));
}

namespace {

Row dataset_row(const std::string& app, const DatasetDesc& desc, Location resolved) {
  return Row{MetaCatalog::dataset_key(app, desc.name),
             app,
             desc.name,
             std::string(access_mode_name(desc.amode)),
             std::string(element_type_name(desc.etype)),
             desc.pattern,
             static_cast<std::int64_t>(desc.dims[0]),
             static_cast<std::int64_t>(desc.dims[1]),
             static_cast<std::int64_t>(desc.dims[2]),
             std::int64_t{desc.frequency},
             std::string(location_name(desc.location)),
             std::string(location_name(resolved)),
             std::string(runtime::io_method_name(desc.method))};
}

StatusOr<DatasetRecord> record_from_row(const Row& row) {
  DatasetRecord record;
  record.app = std::get<std::string>(row[1]);
  record.desc.name = std::get<std::string>(row[2]);
  const std::string& amode = std::get<std::string>(row[3]);
  record.desc.amode = amode == "over_write" ? AccessMode::kOverWrite
                      : amode == "read"     ? AccessMode::kRead
                                            : AccessMode::kCreate;
  MSRA_ASSIGN_OR_RETURN(record.desc.etype,
                        parse_element_type(std::get<std::string>(row[4])));
  record.desc.pattern = std::get<std::string>(row[5]);
  record.desc.dims = {static_cast<std::uint64_t>(std::get<std::int64_t>(row[6])),
                      static_cast<std::uint64_t>(std::get<std::int64_t>(row[7])),
                      static_cast<std::uint64_t>(std::get<std::int64_t>(row[8]))};
  record.desc.frequency = static_cast<int>(std::get<std::int64_t>(row[9]));
  MSRA_ASSIGN_OR_RETURN(record.desc.location,
                        parse_location(std::get<std::string>(row[10])));
  MSRA_ASSIGN_OR_RETURN(record.resolved,
                        parse_location(std::get<std::string>(row[11])));
  record.desc.method = std::get<std::string>(row[12]) == "naive"
                           ? runtime::IoMethod::kNaive
                           : runtime::IoMethod::kCollective;
  return record;
}

}  // namespace

Status MetaCatalog::register_dataset(const std::string& app,
                                     const DatasetDesc& desc, Location resolved) {
  std::lock_guard<std::mutex> txn(db_->txn_mutex());
  const std::string key = dataset_key(app, desc.name);
  auto existing = datasets_->lookup("key", Value{key});
  if (existing.ok()) {
    return datasets_->update(*existing, dataset_row(app, desc, resolved));
  }
  return datasets_->insert(dataset_row(app, desc, resolved)).status();
}

StatusOr<DatasetRecord> MetaCatalog::dataset(const std::string& app,
                                             const std::string& name) const {
  MSRA_ASSIGN_OR_RETURN(std::int64_t rowid,
                        datasets_->lookup("key", Value{dataset_key(app, name)}));
  MSRA_ASSIGN_OR_RETURN(Row row, datasets_->get(rowid));
  return record_from_row(row);
}

StatusOr<DatasetRecord> MetaCatalog::find_dataset(const std::string& name) const {
  auto rowid = datasets_->lookup("name", Value{name});
  if (!rowid.ok()) return Status::NotFound("no dataset named " + name);
  MSRA_ASSIGN_OR_RETURN(Row row, datasets_->get(*rowid));
  return record_from_row(row);
}

std::vector<DatasetRecord> MetaCatalog::all_datasets() const {
  std::vector<DatasetRecord> out;
  for (const Row& row : datasets_->select([](const Row&) { return true; })) {
    auto record = record_from_row(row);
    if (record.ok()) out.push_back(std::move(*record));
  }
  return out;
}

std::vector<DatasetRecord> MetaCatalog::datasets(const std::string& app) const {
  std::vector<DatasetRecord> out;
  for (const Row& row : datasets_->select([&app](const Row& r) {
         return std::get<std::string>(r[1]) == app;
       })) {
    auto record = record_from_row(row);
    if (record.ok()) out.push_back(std::move(*record));
  }
  return out;
}

Status MetaCatalog::update_dataset_location(const std::string& app,
                                            const std::string& name,
                                            Location resolved) {
  MSRA_ASSIGN_OR_RETURN(std::int64_t rowid,
                        datasets_->lookup("key", Value{dataset_key(app, name)}));
  return datasets_->update_cell(rowid, "resolved",
                                Value{std::string(location_name(resolved))});
}

std::vector<std::int64_t> MetaCatalog::instance_rowids(const std::string& key,
                                                       int timestep) const {
  return instances_->find_eq("dataset_key", Value{key}, [timestep](const Row& r) {
    return std::get<std::int64_t>(r[1]) == timestep;
  });
}

Status MetaCatalog::record_instance(const InstanceRecord& record) {
  std::lock_guard<std::mutex> txn(db_->txn_mutex());
  auto ids = instance_rowids(record.dataset_key, record.timestep);
  if (ids.empty()) return instances_->insert(instance_to_row(record)).status();
  // Re-dump: path/bytes refresh, replicas union (first-recorded order kept).
  MSRA_ASSIGN_OR_RETURN(Row row, instances_->get(ids.front()));
  InstanceRecord merged = instance_from_row(row);
  merged.path = record.path;
  merged.bytes = record.bytes;
  for (ReplicaAddress address : record.replicas) {
    if (!merged.on(address)) merged.replicas.push_back(address);
  }
  return instances_->update(ids.front(), instance_to_row(merged));
}

StatusOr<InstanceRecord> MetaCatalog::instance(const std::string& app,
                                               const std::string& name,
                                               int timestep) const {
  const std::string key = dataset_key(app, name);
  auto ids = instance_rowids(key, timestep);
  if (ids.empty()) {
    return Status::NotFound("no instance of " + key + " at timestep " +
                            std::to_string(timestep));
  }
  MSRA_ASSIGN_OR_RETURN(Row row, instances_->get(ids.front()));
  return instance_from_row(row);
}

Status MetaCatalog::add_replica(const std::string& app, const std::string& name,
                                int timestep, ReplicaAddress address) {
  std::lock_guard<std::mutex> txn(db_->txn_mutex());
  const std::string key = dataset_key(app, name);
  auto ids = instance_rowids(key, timestep);
  if (ids.empty()) {
    return Status::NotFound("no instance of " + key + " at timestep " +
                            std::to_string(timestep));
  }
  MSRA_ASSIGN_OR_RETURN(Row row, instances_->get(ids.front()));
  InstanceRecord record = instance_from_row(row);
  if (record.on(address)) return Status::Ok();  // idempotent
  record.replicas.push_back(address);
  return instances_->update(ids.front(), instance_to_row(record));
}

Status MetaCatalog::remove_replica(const std::string& app, const std::string& name,
                                   int timestep, ReplicaAddress address) {
  std::lock_guard<std::mutex> txn(db_->txn_mutex());
  const std::string key = dataset_key(app, name);
  auto ids = instance_rowids(key, timestep);
  if (ids.empty()) {
    return Status::NotFound("no instance of " + key + " at timestep " +
                            std::to_string(timestep));
  }
  MSRA_ASSIGN_OR_RETURN(Row row, instances_->get(ids.front()));
  InstanceRecord record = instance_from_row(row);
  auto it = std::find(record.replicas.begin(), record.replicas.end(), address);
  if (it == record.replicas.end()) {
    return Status::NotFound("no replica of " + key + " at " +
                            address_name(address));
  }
  record.replicas.erase(it);
  if (record.replicas.empty()) return instances_->erase(ids.front());
  return instances_->update(ids.front(), instance_to_row(record));
}

std::vector<InstanceRecord> MetaCatalog::instances(const std::string& app,
                                                   const std::string& name) const {
  std::vector<InstanceRecord> out;
  for (std::int64_t rowid :
       instances_->find_eq("dataset_key", Value{dataset_key(app, name)})) {
    auto row = instances_->get(rowid);
    if (row.ok()) out.push_back(instance_from_row(*row));
  }
  return out;
}

std::vector<InstanceRecord> MetaCatalog::all_instances() const {
  std::vector<InstanceRecord> out;
  for (const Row& row : instances_->select([](const Row&) { return true; })) {
    out.push_back(instance_from_row(row));
  }
  return out;
}

}  // namespace msra::core
