#include "meta/table.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace msra::meta {

std::size_t Table::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

std::size_t Table::hash_of(const Value& value) {
  struct Visitor {
    std::size_t operator()(std::monostate) const { return 0; }
    std::size_t operator()(std::int64_t v) const { return std::hash<std::int64_t>{}(v); }
    // The exact bit pattern, with -0.0 folded into 0.0 (they compare equal).
    std::size_t operator()(double v) const {
      return std::hash<std::uint64_t>{}(std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
    }
    std::size_t operator()(const std::string& v) const {
      return std::hash<std::string>{}(v);
    }
    std::size_t operator()(const std::vector<std::byte>& v) const {
      return std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(v.data()), v.size()));
    }
  };
  return std::visit(Visitor{}, value);
}

bool Table::indexable(const Value& value) {
  if (std::holds_alternative<std::monostate>(value)) return false;
  const double* real = std::get_if<double>(&value);
  return real == nullptr || !std::isnan(*real);
}

template <typename Visit>
void Table::for_each_eq_locked(int col, const Value& value, Visit&& visit) const {
  const auto c = static_cast<std::size_t>(col);
  auto index = indexes_.find(col);
  if (index != indexes_.end() && indexable(value)) {
    auto hit = index->second.rowids.find(hash_of(value));
    if (hit == index->second.rowids.end()) return;
    for (std::int64_t rowid : hit->second) {
      const Row& row = rows_.at(rowid);
      if (value_equals(row[c], value) && !visit(rowid, row)) return;
    }
    return;
  }
  for (const auto& [rowid, row] : rows_) {
    if (value_equals(row[c], value) && !visit(rowid, row)) return;
  }
}

Status Table::check_indexes_locked(const Row& row, std::int64_t ignore_rowid) const {
  for (const auto& [col, index] : indexes_) {
    const Value& v = row[static_cast<std::size_t>(col)];
    if (!index.unique || !indexable(v)) continue;
    bool taken = false;
    for_each_eq_locked(col, v, [&](std::int64_t rowid, const Row&) {
      taken = rowid != ignore_rowid;
      return !taken;
    });
    if (taken) {
      return Status::AlreadyExists("unique index violation on " +
                                   schema_.column(static_cast<std::size_t>(col)).name +
                                   " = " + value_to_string(v));
    }
  }
  return Status::Ok();
}

void Table::reindex_locked(std::int64_t rowid, const Row* before, const Row* after) {
  for (auto& [col, index] : indexes_) {
    const auto c = static_cast<std::size_t>(col);
    if (before != nullptr && after != nullptr && value_equals((*before)[c], (*after)[c])) {
      continue;
    }
    if (before != nullptr && indexable((*before)[c])) {
      auto it = index.rowids.find(hash_of((*before)[c]));
      if (it != index.rowids.end()) {
        std::vector<std::int64_t>& ids = it->second;
        auto pos = std::lower_bound(ids.begin(), ids.end(), rowid);
        if (pos != ids.end() && *pos == rowid) ids.erase(pos);
        if (ids.empty()) index.rowids.erase(it);
      }
    }
    if (after != nullptr && indexable((*after)[c])) {
      std::vector<std::int64_t>& ids = index.rowids[hash_of((*after)[c])];
      ids.insert(std::upper_bound(ids.begin(), ids.end(), rowid), rowid);
    }
  }
}

StatusOr<std::int64_t> Table::insert(Row row) {
  MSRA_RETURN_IF_ERROR(schema_.validate(row));
  std::lock_guard<std::mutex> lock(mutex_);
  MSRA_RETURN_IF_ERROR(check_indexes_locked(row, /*ignore_rowid=*/-1));
  const std::int64_t rowid = next_rowid_++;
  reindex_locked(rowid, nullptr, &row);
  rows_.emplace(rowid, std::move(row));
  return rowid;
}

StatusOr<Row> Table::get(std::int64_t rowid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rows_.find(rowid);
  if (it == rows_.end()) {
    return Status::NotFound(name_ + ": no rowid " + std::to_string(rowid));
  }
  return it->second;
}

Status Table::update(std::int64_t rowid, Row row) {
  MSRA_RETURN_IF_ERROR(schema_.validate(row));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rows_.find(rowid);
  if (it == rows_.end()) {
    return Status::NotFound(name_ + ": no rowid " + std::to_string(rowid));
  }
  MSRA_RETURN_IF_ERROR(check_indexes_locked(row, rowid));
  reindex_locked(rowid, &it->second, &row);
  it->second = std::move(row);
  return Status::Ok();
}

Status Table::update_cell(std::int64_t rowid, std::string_view column, Value value) {
  const int col = schema_.index_of(column);
  if (col < 0) return Status::InvalidArgument("no column: " + std::string(column));
  if (!value_matches(value, schema_.column(static_cast<std::size_t>(col)).type)) {
    return Status::InvalidArgument("type mismatch for " + std::string(column));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rows_.find(rowid);
  if (it == rows_.end()) {
    return Status::NotFound(name_ + ": no rowid " + std::to_string(rowid));
  }
  Row updated = it->second;
  updated[static_cast<std::size_t>(col)] = std::move(value);
  MSRA_RETURN_IF_ERROR(check_indexes_locked(updated, rowid));
  reindex_locked(rowid, &it->second, &updated);
  it->second = std::move(updated);
  return Status::Ok();
}

Status Table::erase(std::int64_t rowid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rows_.find(rowid);
  if (it == rows_.end()) {
    return Status::NotFound(name_ + ": no rowid " + std::to_string(rowid));
  }
  reindex_locked(rowid, &it->second, nullptr);
  rows_.erase(it);
  return Status::Ok();
}

std::vector<std::int64_t> Table::find(const Predicate& predicate) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> out;
  for (const auto& [rowid, row] : rows_) {
    if (predicate(row)) out.push_back(rowid);
  }
  return out;
}

std::vector<std::int64_t> Table::find_eq(std::string_view column, const Value& value,
                                         const Predicate& filter) const {
  const int col = schema_.index_of(column);
  if (col < 0) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> out;
  for_each_eq_locked(col, value, [&](std::int64_t rowid, const Row& row) {
    if (!filter || filter(row)) out.push_back(rowid);
    return true;
  });
  return out;
}

StatusOr<std::int64_t> Table::find_first_eq(std::string_view column,
                                            const Value& value) const {
  return first_eq(column, value, /*need_index=*/false);
}

StatusOr<std::int64_t> Table::lookup(std::string_view column, const Value& value) const {
  return first_eq(column, value, /*need_index=*/true);
}

StatusOr<std::int64_t> Table::first_eq(std::string_view column, const Value& value,
                                       bool need_index) const {
  const int col = schema_.index_of(column);
  std::int64_t first = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (need_index && indexes_.count(col) == 0) {
      return Status::InvalidArgument("no index on " + std::string(column));
    }
    if (col >= 0) {
      for_each_eq_locked(col, value, [&first](std::int64_t rowid, const Row&) {
        first = rowid;
        return false;
      });
    }
  }
  if (first < 0) {
    return Status::NotFound(name_ + ": no row with " + std::string(column) +
                            " = " + value_to_string(value));
  }
  return first;
}

std::vector<Row> Table::select(const Predicate& predicate) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Row> out;
  for (const auto& [rowid, row] : rows_) {
    if (predicate(row)) out.push_back(row);
  }
  return out;
}

void Table::for_each(const std::function<void(std::int64_t, const Row&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [rowid, row] : rows_) fn(rowid, row);
}

Status Table::create_index(std::string_view column) {
  return declare_index(column, /*unique=*/false);
}

Status Table::create_unique_index(std::string_view column) {
  return declare_index(column, /*unique=*/true);
}

Status Table::declare_index(std::string_view column, bool unique) {
  const int col = schema_.index_of(column);
  if (col < 0) return Status::InvalidArgument("no column: " + std::string(column));
  const auto c = static_cast<std::size_t>(col);
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto existing = indexes_.find(col);
      existing != indexes_.end() && (existing->second.unique || !unique)) {
    return Status::Ok();  // already declared: nothing to rebuild
  }
  Index index;
  index.unique = unique;
  for (const auto& [rowid, row] : rows_) {
    const Value& v = row[c];
    if (!indexable(v)) continue;
    std::vector<std::int64_t>& ids = index.rowids[hash_of(v)];
    if (unique && std::any_of(ids.begin(), ids.end(), [&](std::int64_t other) {
          return value_equals(rows_.at(other)[c], v);
        })) {
      return Status::AlreadyExists("duplicate values prevent unique index on " +
                                   std::string(column));
    }
    ids.push_back(rowid);
  }
  indexes_[col] = std::move(index);
  return Status::Ok();
}

void Table::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rows_.clear();
  for (auto& [col, index] : indexes_) index.rowids.clear();
}

namespace {

void serialize_value(net::WireWriter& w, const Value& value) {
  w.put_u8(static_cast<std::uint8_t>(value.index()));
  struct Visitor {
    net::WireWriter& w;
    void operator()(std::monostate) const {}
    void operator()(std::int64_t v) const { w.put_i64(v); }
    void operator()(double v) const { w.put_f64(v); }
    void operator()(const std::string& v) const { w.put_string(v); }
    void operator()(const std::vector<std::byte>& v) const { w.put_bytes(v); }
  };
  std::visit(Visitor{w}, value);
}

StatusOr<Value> deserialize_value(net::WireReader& r) {
  MSRA_ASSIGN_OR_RETURN(std::uint8_t tag, r.get_u8());
  switch (tag) {
    case 0: return Value{std::monostate{}};
    case 1: {
      MSRA_ASSIGN_OR_RETURN(std::int64_t v, r.get_i64());
      return Value{v};
    }
    case 2: {
      MSRA_ASSIGN_OR_RETURN(double v, r.get_f64());
      return Value{v};
    }
    case 3: {
      MSRA_ASSIGN_OR_RETURN(std::string v, r.get_string());
      return Value{std::move(v)};
    }
    case 4: {
      MSRA_ASSIGN_OR_RETURN(std::vector<std::byte> v, r.get_bytes());
      return Value{std::move(v)};
    }
    default:
      return Status::InvalidArgument("bad value tag " + std::to_string(tag));
  }
}

}  // namespace

void Table::serialize(net::WireWriter& writer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  writer.put_string(name_);
  writer.put_u32(static_cast<std::uint32_t>(schema_.size()));
  for (const auto& col : schema_.columns()) {
    writer.put_string(col.name);
    writer.put_u8(static_cast<std::uint8_t>(col.type));
  }
  // Only unique indexes are persisted; the format predates the others.
  std::vector<std::uint32_t> unique_cols;
  for (const auto& [col, index] : indexes_) {
    if (index.unique) unique_cols.push_back(static_cast<std::uint32_t>(col));
  }
  writer.put_u32(static_cast<std::uint32_t>(unique_cols.size()));
  for (std::uint32_t col : unique_cols) writer.put_u32(col);
  writer.put_i64(next_rowid_);
  writer.put_u64(rows_.size());
  for (const auto& [rowid, row] : rows_) {
    writer.put_i64(rowid);
    for (const auto& value : row) serialize_value(writer, value);
  }
}

StatusOr<std::unique_ptr<Table>> Table::deserialize(net::WireReader& reader) {
  MSRA_ASSIGN_OR_RETURN(std::string name, reader.get_string());
  MSRA_ASSIGN_OR_RETURN(std::uint32_t ncols, reader.get_u32());
  std::vector<Column> columns;
  for (std::uint32_t i = 0; i < ncols; ++i) {
    MSRA_ASSIGN_OR_RETURN(std::string cname, reader.get_string());
    MSRA_ASSIGN_OR_RETURN(std::uint8_t ctype, reader.get_u8());
    if (ctype > static_cast<std::uint8_t>(ColumnType::kBlob)) {
      return Status::InvalidArgument("bad column type");
    }
    columns.push_back({std::move(cname), static_cast<ColumnType>(ctype)});
  }
  auto table = std::make_unique<Table>(std::move(name), Schema(std::move(columns)));
  MSRA_ASSIGN_OR_RETURN(std::uint32_t nindexes, reader.get_u32());
  std::vector<std::uint32_t> index_cols;
  for (std::uint32_t i = 0; i < nindexes; ++i) {
    MSRA_ASSIGN_OR_RETURN(std::uint32_t col, reader.get_u32());
    index_cols.push_back(col);
  }
  MSRA_ASSIGN_OR_RETURN(std::int64_t next_rowid, reader.get_i64());
  MSRA_ASSIGN_OR_RETURN(std::uint64_t nrows, reader.get_u64());
  for (std::uint64_t i = 0; i < nrows; ++i) {
    MSRA_ASSIGN_OR_RETURN(std::int64_t rowid, reader.get_i64());
    Row row;
    for (std::size_t c = 0; c < table->schema_.size(); ++c) {
      MSRA_ASSIGN_OR_RETURN(Value value, deserialize_value(reader));
      row.push_back(std::move(value));
    }
    MSRA_RETURN_IF_ERROR(table->schema_.validate(row));
    table->rows_.emplace(rowid, std::move(row));
  }
  table->next_rowid_ = next_rowid;
  for (std::uint32_t col : index_cols) {
    MSRA_RETURN_IF_ERROR(table->create_unique_index(
        table->schema_.column(col).name));
  }
  return table;
}

}  // namespace msra::meta
