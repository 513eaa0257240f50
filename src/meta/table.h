// A single metadata table with rowids, predicates and equality indexes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "meta/value.h"
#include "net/wire.h"

namespace msra::meta {

/// Row filter used by scans. Receives the full row.
using Predicate = std::function<bool(const Row&)>;

/// One table: rows keyed by a monotonically increasing rowid.
/// Thread-safe (coarse lock; metadata traffic is light, as in the paper).
///
/// A column may carry one declared equality index: the hash of every
/// non-NULL, non-NaN cell maps to the ascending rowids holding it. The
/// hash agrees with value_equals (exact bits, -0.0 folded into 0.0) and
/// reads recheck each hit's cell, so a collision costs a comparison, never
/// a wrong row. Writes keep the index current; find_eq, find_first_eq and
/// lookup read it and scan only for undeclared columns and NULL/NaN
/// probes. A unique index also rejects duplicates and is the only kind
/// written by serialize(); a non-unique index lives in memory and is
/// declared again by whoever owns the schema after a load.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::size_t size() const;

  /// Inserts a validated row; returns its rowid. Enforces unique indexes.
  StatusOr<std::int64_t> insert(Row row);

  /// Fetches a row copy by rowid.
  StatusOr<Row> get(std::int64_t rowid) const;

  /// Replaces an entire row.
  Status update(std::int64_t rowid, Row row);

  /// Updates one cell.
  Status update_cell(std::int64_t rowid, std::string_view column, Value value);

  /// Deletes a row.
  Status erase(std::int64_t rowid);

  /// Rowids of rows matching the predicate (insertion order).
  std::vector<std::int64_t> find(const Predicate& predicate) const;

  /// Rowids with column == value (value_equals) for which `filter`, when
  /// given, also holds; ascending.
  std::vector<std::int64_t> find_eq(std::string_view column, const Value& value,
                                    const Predicate& filter = {}) const;

  /// First rowid matching column == value, or kNotFound.
  StatusOr<std::int64_t> find_first_eq(std::string_view column, const Value& value) const;

  /// Copies of all rows matching the predicate.
  std::vector<Row> select(const Predicate& predicate) const;

  /// Visits every (rowid, row).
  void for_each(const std::function<void(std::int64_t, const Row&)>& fn) const;

  /// Declares an equality index on a column. Idempotent: a column that
  /// already has one (unique or not) keeps it untouched.
  Status create_index(std::string_view column);

  /// Declares a unique index on a column. Fails if existing rows collide
  /// (leaving any non-unique index in place); idempotent otherwise.
  Status create_unique_index(std::string_view column);

  /// find_first_eq through the column's index, in O(1); kInvalidArgument
  /// when the column has none.
  StatusOr<std::int64_t> lookup(std::string_view column, const Value& value) const;

  /// Removes every row (indexes retained).
  void clear();

  /// Binary (de)serialization for persistence. (Returned by pointer because
  /// Table is pinned by its internal mutex.)
  void serialize(net::WireWriter& writer) const;
  static StatusOr<std::unique_ptr<Table>> deserialize(net::WireReader& reader);

 private:
  struct Index {
    bool unique = false;
    /// hash_of(cell) -> ascending rowids; readers recheck the cell.
    std::unordered_map<std::size_t, std::vector<std::int64_t>> rowids;
  };

  /// Agrees with value_equals: equal values hash alike (-0.0 as 0.0).
  static std::size_t hash_of(const Value& value);

  /// NULL and NaN cells are never indexed: NULL matches by scan, NaN never.
  static bool indexable(const Value& value);

  /// Calls `visit(rowid, row)` for each row with column `col` == value in
  /// ascending rowid order until it returns false. Reads the column's
  /// index when there is one and the probe is indexable.
  template <typename Visit>
  void for_each_eq_locked(int col, const Value& value, Visit&& visit) const;

  /// find_first_eq; with `need_index`, kInvalidArgument for a column
  /// without an index (lookup never falls back to a scan).
  StatusOr<std::int64_t> first_eq(std::string_view column, const Value& value,
                                  bool need_index) const;
  Status declare_index(std::string_view column, bool unique);
  Status check_indexes_locked(const Row& row, std::int64_t ignore_rowid) const;
  /// Moves `rowid` from its keys in `before` to its keys in `after`
  /// (either may be null: insert, erase), touching only changed columns.
  void reindex_locked(std::int64_t rowid, const Row* before, const Row* after);

  std::string name_;
  Schema schema_;
  mutable std::mutex mutex_;
  std::map<std::int64_t, Row> rows_;
  std::int64_t next_rowid_ = 1;
  std::map<int, Index> indexes_;  ///< column index -> its declared index
};

}  // namespace msra::meta
