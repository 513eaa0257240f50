#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "meta/database.h"

namespace msra::meta {
namespace {

Schema dataset_schema() {
  return Schema{{"name", ColumnType::kText},
                {"location", ColumnType::kText},
                {"size", ColumnType::kInt},
                {"freq", ColumnType::kInt},
                {"score", ColumnType::kReal}};
}

Row make_dataset(const std::string& name, const std::string& loc,
                 std::int64_t size, std::int64_t freq, double score) {
  return Row{name, loc, size, freq, score};
}

// push_back + append instead of `"x" + s`: the operator+ form trips a
// GCC 12 -Wrestrict false positive when inlined at -O3.
std::string tagged(char tag, const std::string& body) {
  std::string out;
  out.reserve(body.size() + 1);
  out.push_back(tag);
  out.append(body);
  return out;
}

TEST(SchemaTest, ValidateChecksArityAndTypes) {
  Schema s = dataset_schema();
  EXPECT_TRUE(s.validate(make_dataset("temp", "TAPE", 8, 6, 1.0)).ok());
  EXPECT_FALSE(s.validate(Row{std::string("x")}).ok());  // arity
  Row bad = make_dataset("temp", "TAPE", 8, 6, 1.0);
  bad[2] = 3.14;  // real into int column
  EXPECT_FALSE(s.validate(bad).ok());
}

TEST(SchemaTest, NullMatchesAnyType) {
  Schema s = dataset_schema();
  Row row = make_dataset("temp", "TAPE", 8, 6, 1.0);
  row[1] = std::monostate{};
  EXPECT_TRUE(s.validate(row).ok());
}

TEST(SchemaTest, IndexOf) {
  Schema s = dataset_schema();
  EXPECT_EQ(s.index_of("name"), 0);
  EXPECT_EQ(s.index_of("score"), 4);
  EXPECT_EQ(s.index_of("missing"), -1);
}

TEST(TableTest, InsertGetRoundTrip) {
  Table t("datasets", dataset_schema());
  auto id = t.insert(make_dataset("temp", "REMOTEDISK", 8 << 20, 6, 0.5));
  ASSERT_TRUE(id.ok());
  auto row = t.get(*id);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(std::get<std::string>((*row)[0]), "temp");
  EXPECT_EQ(std::get<std::int64_t>((*row)[2]), 8 << 20);
}

TEST(TableTest, RowidsAreMonotonic) {
  Table t("datasets", dataset_schema());
  auto a = t.insert(make_dataset("a", "L", 1, 1, 0));
  auto b = t.insert(make_dataset("b", "L", 1, 1, 0));
  EXPECT_LT(*a, *b);
}

TEST(TableTest, UpdateReplacesRow) {
  Table t("datasets", dataset_schema());
  auto id = t.insert(make_dataset("temp", "TAPE", 1, 6, 0));
  ASSERT_TRUE(t.update(*id, make_dataset("temp", "LOCALDISK", 2, 6, 0)).ok());
  EXPECT_EQ(std::get<std::string>(t.get(*id)->at(1)), "LOCALDISK");
}

TEST(TableTest, UpdateCell) {
  Table t("datasets", dataset_schema());
  auto id = t.insert(make_dataset("temp", "TAPE", 1, 6, 0));
  ASSERT_TRUE(t.update_cell(*id, "location", Value{std::string("REMOTEDISK")}).ok());
  EXPECT_EQ(std::get<std::string>(t.get(*id)->at(1)), "REMOTEDISK");
  EXPECT_FALSE(t.update_cell(*id, "location", Value{std::int64_t{3}}).ok());
  EXPECT_FALSE(t.update_cell(*id, "nope", Value{std::int64_t{3}}).ok());
}

TEST(TableTest, EraseRemoves) {
  Table t("datasets", dataset_schema());
  auto id = t.insert(make_dataset("temp", "TAPE", 1, 6, 0));
  ASSERT_TRUE(t.erase(*id).ok());
  EXPECT_FALSE(t.get(*id).ok());
  EXPECT_FALSE(t.erase(*id).ok());
}

TEST(TableTest, FindWithPredicate) {
  Table t("datasets", dataset_schema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.insert(make_dataset(tagged('d', std::to_string(i)),
                                      i % 2 ? "TAPE" : "LOCALDISK", i, 6, 0))
                    .ok());
  }
  auto on_tape = t.find_eq("location", Value{std::string("TAPE")});
  EXPECT_EQ(on_tape.size(), 5u);
  auto big = t.find([](const Row& r) { return std::get<std::int64_t>(r[2]) >= 7; });
  EXPECT_EQ(big.size(), 3u);
}

TEST(TableTest, FindFirstEqReportsNotFound) {
  Table t("datasets", dataset_schema());
  EXPECT_EQ(t.find_first_eq("name", Value{std::string("ghost")}).status().code(),
            ErrorCode::kNotFound);
}

TEST(TableTest, UniqueIndexEnforcedOnInsert) {
  Table t("datasets", dataset_schema());
  ASSERT_TRUE(t.create_unique_index("name").ok());
  ASSERT_TRUE(t.insert(make_dataset("temp", "TAPE", 1, 6, 0)).ok());
  EXPECT_EQ(t.insert(make_dataset("temp", "LOCALDISK", 2, 6, 0)).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST(TableTest, UniqueIndexLookup) {
  Table t("datasets", dataset_schema());
  ASSERT_TRUE(t.create_unique_index("name").ok());
  auto id = t.insert(make_dataset("vr_temp", "LOCALDISK", 2, 6, 0));
  auto found = t.lookup("name", Value{std::string("vr_temp")});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *id);
  EXPECT_EQ(t.lookup("name", Value{std::string("nope")}).status().code(),
            ErrorCode::kNotFound);
}

TEST(TableTest, UniqueIndexFollowsUpdates) {
  Table t("datasets", dataset_schema());
  ASSERT_TRUE(t.create_unique_index("name").ok());
  auto id = t.insert(make_dataset("old", "TAPE", 1, 6, 0));
  ASSERT_TRUE(t.update_cell(*id, "name", Value{std::string("new")}).ok());
  EXPECT_TRUE(t.lookup("name", Value{std::string("new")}).ok());
  EXPECT_FALSE(t.lookup("name", Value{std::string("old")}).ok());
  // The freed name can be reused.
  EXPECT_TRUE(t.insert(make_dataset("old", "TAPE", 1, 6, 0)).ok());
}

TEST(TableTest, IndexOnExistingDuplicatesFails) {
  Table t("datasets", dataset_schema());
  ASSERT_TRUE(t.insert(make_dataset("same", "TAPE", 1, 6, 0)).ok());
  ASSERT_TRUE(t.insert(make_dataset("same", "DISK", 2, 6, 0)).ok());
  EXPECT_EQ(t.create_unique_index("name").code(), ErrorCode::kAlreadyExists);
}

TEST(TableTest, InsertRejectsBadTypes) {
  Table t("datasets", dataset_schema());
  Row bad = make_dataset("x", "TAPE", 1, 6, 0);
  bad[0] = 3.0;
  EXPECT_EQ(t.insert(bad).status().code(), ErrorCode::kInvalidArgument);
}

TEST(DatabaseTest, CreateAndFetchTables) {
  Database db;
  ASSERT_TRUE(db.create_table("datasets", dataset_schema()).ok());
  EXPECT_NE(db.table("datasets"), nullptr);
  EXPECT_EQ(db.table("ghost"), nullptr);
  EXPECT_EQ(db.create_table("datasets", dataset_schema()).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST(DatabaseTest, OpenTableIsIdempotent) {
  Database db;
  auto a = db.open_table("t", dataset_schema());
  auto b = db.open_table("t", dataset_schema());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(DatabaseTest, DropTable) {
  Database db;
  ASSERT_TRUE(db.create_table("t", dataset_schema()).ok());
  ASSERT_TRUE(db.drop_table("t").ok());
  EXPECT_EQ(db.table("t"), nullptr);
  EXPECT_FALSE(db.drop_table("t").ok());
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "msra_meta_test.db";
  {
    Database db;
    auto table = db.create_table("datasets", dataset_schema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->create_unique_index("name").ok());
    ASSERT_TRUE((*table)->insert(make_dataset("temp", "TAPE", 8, 6, 1.5)).ok());
    ASSERT_TRUE((*table)->insert(make_dataset("press", "DISK", 4, 3, 2.5)).ok());
    Row with_null = make_dataset("rho", "DISK", 1, 1, 0.0);
    with_null[4] = std::monostate{};
    ASSERT_TRUE((*table)->insert(with_null).ok());
    ASSERT_TRUE(db.save(path).ok());
  }
  auto loaded = Database::load(path);
  ASSERT_TRUE(loaded.ok());
  Table* table = (*loaded)->table("datasets");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 3u);
  auto id = table->lookup("name", Value{std::string("press")});
  ASSERT_TRUE(id.ok()) << "unique index must survive persistence";
  EXPECT_DOUBLE_EQ(std::get<double>(table->get(*id)->at(4)), 2.5);
  // New inserts continue from the persisted rowid counter.
  auto fresh = table->insert(make_dataset("new", "TAPE", 1, 1, 0.0));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, *id);
  std::filesystem::remove(path);
}

TEST(DatabaseTest, LoadRejectsGarbage) {
  const auto path = std::filesystem::temp_directory_path() / "msra_garbage.db";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a database";
  }
  EXPECT_FALSE(Database::load(path).ok());
  std::filesystem::remove(path);
  EXPECT_EQ(Database::load(path).status().code(), ErrorCode::kNotFound);
}

// Property: a randomized CRUD sequence matches a reference std::map model.
TEST(TableTest, RandomizedCrudMatchesModel) {
  Rng rng(99);
  Table t("fuzz", Schema{{"key", ColumnType::kInt}, {"val", ColumnType::kText}});
  std::map<std::int64_t, std::pair<std::int64_t, std::string>> model;
  for (int step = 0; step < 500; ++step) {
    const auto op = rng.next_below(3);
    if (op == 0 || model.empty()) {
      const auto key = static_cast<std::int64_t>(rng.next_below(1000));
      const std::string val = tagged('v', std::to_string(rng.next_below(100)));
      auto id = t.insert(Row{key, val});
      ASSERT_TRUE(id.ok());
      model[*id] = {key, val};
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.next_below(model.size())));
      if (op == 1) {
        ASSERT_TRUE(t.erase(it->first).ok());
        model.erase(it);
      } else {
        const std::string val = tagged('u', std::to_string(rng.next_below(100)));
        ASSERT_TRUE(t.update_cell(it->first, "val", Value{val}).ok());
        it->second.second = val;
      }
    }
  }
  EXPECT_EQ(t.size(), model.size());
  for (const auto& [rowid, kv] : model) {
    auto row = t.get(rowid);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(std::get<std::int64_t>((*row)[0]), kv.first);
    EXPECT_EQ(std::get<std::string>((*row)[1]), kv.second);
  }
}

// Regression: reals key by their exact value under value_equals, not by a
// rounded rendering: 1e-7, 2e-7 and 3e-7 stay distinct, and -0.0 finds the
// 0.0 row as a scan does.
TEST(TableTest, RealIndexKeysAreExact) {
  Table t("reals", Schema{{"x", ColumnType::kReal}});
  ASSERT_TRUE(t.create_unique_index("x").ok());
  auto small = t.insert(Row{1e-7});
  ASSERT_TRUE(small.ok());
  auto twice = t.insert(Row{2e-7});
  ASSERT_TRUE(twice.ok()) << twice.status().to_string();
  EXPECT_EQ(t.lookup("x", Value{3e-7}).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(*t.lookup("x", Value{1e-7}), *small);
  EXPECT_EQ(*t.lookup("x", Value{2e-7}), *twice);

  auto zero = t.insert(Row{0.0});
  ASSERT_TRUE(zero.ok());
  auto negative = t.lookup("x", Value{-0.0});
  ASSERT_TRUE(negative.ok()) << "-0.0 == 0.0, as the scan says";
  EXPECT_EQ(*negative, *zero);
  EXPECT_EQ(t.find_eq("x", Value{-0.0}), std::vector<std::int64_t>{*zero});
  EXPECT_EQ(t.insert(Row{-0.0}).status().code(), ErrorCode::kAlreadyExists);
  // INT 0 hashes like 0.0 but is a different value: the recheck drops it.
  EXPECT_TRUE(t.find_eq("x", Value{std::int64_t{0}}).empty());

  // NaN equals nothing, itself included: never indexed, never a duplicate.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(t.insert(Row{nan}).ok());
  EXPECT_TRUE(t.insert(Row{nan}).ok());
  EXPECT_TRUE(t.find_eq("x", Value{nan}).empty());
  EXPECT_EQ(t.lookup("x", Value{nan}).status().code(), ErrorCode::kNotFound);
}

TEST(TableTest, IndexDeclarationIsIdempotent) {
  Table t("datasets", dataset_schema());
  ASSERT_TRUE(t.insert(make_dataset("same", "TAPE", 1, 6, 0)).ok());
  ASSERT_TRUE(t.insert(make_dataset("same", "DISK", 2, 6, 0)).ok());
  EXPECT_EQ(t.lookup("name", Value{std::string("same")}).status().code(),
            ErrorCode::kInvalidArgument)
      << "lookup needs a declared index";
  ASSERT_TRUE(t.create_index("name").ok());
  ASSERT_TRUE(t.create_index("name").ok());
  EXPECT_EQ(t.find_eq("name", Value{std::string("same")}),
            (std::vector<std::int64_t>{1, 2}));
  // Duplicates block promotion and leave the plain index serving.
  EXPECT_EQ(t.create_unique_index("name").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(*t.lookup("name", Value{std::string("same")}), 1);
  ASSERT_TRUE(t.erase(1).ok());
  ASSERT_TRUE(t.create_unique_index("name").ok());
  ASSERT_TRUE(t.create_unique_index("name").ok());
  ASSERT_TRUE(t.create_index("name").ok()) << "a unique index stays unique";
  EXPECT_EQ(t.insert(make_dataset("same", "TAPE", 3, 6, 0)).status().code(),
            ErrorCode::kAlreadyExists);
}

ByteBuffer serialized(const Table& table) {
  net::WireWriter writer;
  table.serialize(writer);
  return writer.take();
}

// Differential check of the equality indexes: a seeded mix of inserts,
// updates, cell updates, erases, clears and save/load round trips, after
// each of which every indexed probe (find_eq, find_first_eq, lookup) must
// equal a linear value_equals scan of a reference model, rowid order
// included. Probes cover NULL, NaN, +/-0.0, int-versus-real and absent
// values. A twin table without the non-unique indexes must serialize to
// the same bytes.
TEST(TableTest, IndexedLookupsMatchLinearScan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema{{"name", ColumnType::kText},  // non-unique index
                {"n", ColumnType::kInt},      // non-unique index
                {"x", ColumnType::kReal},     // non-unique index
                {"y", ColumnType::kReal},     // unique index
                {"note", ColumnType::kText}};  // never indexed
  const std::vector<std::string> indexed = {"name", "n", "x", "y"};
  const std::vector<std::vector<Value>> cells = {
      {Value{}, Value{std::string("a")}, Value{std::string("b")},
       Value{std::string("c")}},
      {Value{}, Value{std::int64_t{0}}, Value{std::int64_t{1}},
       Value{std::int64_t{2}}},
      {Value{}, Value{nan}, Value{0.0}, Value{-0.0}, Value{1.0}, Value{1e-7},
       Value{2e-7}},
      {Value{}, Value{nan}, Value{0.0}, Value{-0.0}, Value{1.0}, Value{1e-7},
       Value{2e-7}, Value{3e-7}, Value{0.5}},
      {Value{}, Value{std::string("a")}, Value{std::string("z")}},
  };
  std::vector<Value> probes;
  for (const auto& column : cells) probes.insert(probes.end(), column.begin(), column.end());
  probes.push_back(Value{std::int64_t{1}});  // int probe of the REAL columns
  probes.push_back(Value{1.0});              // real probe of the INT column
  probes.push_back(Value{std::string("absent")});
  probes.push_back(Value{std::int64_t{99}});
  probes.push_back(Value{5.5});

  const auto path = std::filesystem::temp_directory_path() / "msra_meta_diff.db";
  auto db = std::make_unique<Database>();
  Table* t = *db->create_table("t", schema);
  Table plain("t", schema);
  auto declare = [&indexed](Table* table) {
    for (const std::string& column : indexed) {
      ASSERT_TRUE((column == "y" ? table->create_unique_index(column)
                                 : table->create_index(column))
                      .ok());
    }
  };
  declare(t);
  ASSERT_TRUE(plain.create_unique_index("y").ok());

  Rng rng(16);
  std::map<std::int64_t, Row> model;
  auto draw_cell = [&](std::size_t c) {
    return cells[c][rng.next_below(cells[c].size())];
  };
  auto draw_row = [&] {
    Row row;
    for (std::size_t c = 0; c < cells.size(); ++c) row.push_back(draw_cell(c));
    return row;
  };
  // True when `row` may replace `rowid` (or be inserted, rowid = -1)
  // without breaking the unique index on y.
  auto unique_ok = [&](const Row& row, std::int64_t rowid) {
    if (std::holds_alternative<std::monostate>(row[3])) return true;
    for (const auto& [id, other] : model) {
      if (id != rowid && value_equals(other[3], row[3])) return false;
    }
    return true;
  };
  auto check = [&](int step) {
    ASSERT_EQ(t->size(), model.size());
    for (std::size_t c = 0; c < schema.size(); ++c) {
      const std::string& column = schema.column(c).name;
      const bool has_index = c < indexed.size();
      for (const Value& probe : probes) {
        std::vector<std::int64_t> expected;
        for (const auto& [rowid, row] : model) {
          if (value_equals(row[c], probe)) expected.push_back(rowid);
        }
        // Streamed only when an expectation fails.
        auto where = [&] {
          return ::testing::Message() << "step " << step << ", " << column
                                      << " = " << value_to_string(probe);
        };
        EXPECT_EQ(t->find_eq(column, probe), expected) << where();
        auto first = t->find_first_eq(column, probe);
        auto looked = t->lookup(column, probe);
        if (expected.empty()) {
          EXPECT_EQ(first.status().code(), ErrorCode::kNotFound) << where();
        } else {
          ASSERT_TRUE(first.ok()) << where();
          EXPECT_EQ(*first, expected.front()) << where();
        }
        if (!has_index) {
          EXPECT_EQ(looked.status().code(), ErrorCode::kInvalidArgument) << where();
        } else if (expected.empty()) {
          EXPECT_EQ(looked.status().code(), ErrorCode::kNotFound) << where();
        } else {
          ASSERT_TRUE(looked.ok()) << where();
          EXPECT_EQ(*looked, expected.front()) << where();
        }
      }
    }
  };

  for (int step = 0; step < 1500; ++step) {
    const auto op = rng.next_below(100);
    if (op < 40 || model.empty()) {
      Row row = draw_row();
      auto id = t->insert(row);
      auto twin = plain.insert(row);
      if (unique_ok(row, -1)) {
        ASSERT_TRUE(id.ok()) << id.status().to_string();
        ASSERT_TRUE(twin.ok());
        model[*id] = row;
      } else {
        EXPECT_EQ(id.status().code(), ErrorCode::kAlreadyExists);
        EXPECT_EQ(twin.status().code(), ErrorCode::kAlreadyExists);
      }
    } else if (op < 97) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.next_below(model.size())));
      const std::int64_t rowid = it->first;
      if (op < 60) {
        ASSERT_TRUE(t->erase(rowid).ok());
        ASSERT_TRUE(plain.erase(rowid).ok());
        model.erase(it);
      } else {
        Row row = it->second;
        Status status, twin;
        if (op < 75) {
          row = draw_row();
          status = t->update(rowid, row);
          twin = plain.update(rowid, row);
        } else {
          const auto c = static_cast<std::size_t>(rng.next_below(cells.size()));
          row[c] = draw_cell(c);
          status = t->update_cell(rowid, schema.column(c).name, row[c]);
          twin = plain.update_cell(rowid, schema.column(c).name, row[c]);
        }
        EXPECT_EQ(status.code(), twin.code());
        if (unique_ok(row, rowid)) {
          ASSERT_TRUE(status.ok()) << status.to_string();
          it->second = row;
        } else {
          EXPECT_EQ(status.code(), ErrorCode::kAlreadyExists);
        }
      }
    } else if (op < 98) {
      t->clear();
      plain.clear();
      model.clear();
    } else {
      // Only the unique index persists; the others are declared again.
      ASSERT_EQ(serialized(*t), serialized(plain))
          << "non-unique indexes must not reach the file";
      ASSERT_TRUE(db->save(path).ok());
      auto loaded = Database::load(path);
      ASSERT_TRUE(loaded.ok());
      db = std::move(*loaded);
      t = db->table("t");
      ASSERT_NE(t, nullptr);
      EXPECT_EQ(serialized(*t), serialized(plain));
      declare(t);
    }
    check(step);
    if (::testing::Test::HasFailure()) break;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace msra::meta
