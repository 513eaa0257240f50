// The priced mid-tier read cache (src/cache/) and the exponential heat
// decay that feeds its admission judge: decay math, predictor-priced
// admission vs eviction damage, write-through invalidation (including the
// pinned-reader guarantee), the store's LRU against a reference model, the
// concurrency contract (run under TSan in CI), 1k-tenant fleet determinism,
// and the cache-aware CacheAssumptions pricing against measured re-reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "common/rng.h"
#include "core/placement.h"
#include "core/msra.h"
#include "core/session.h"
#include "flow/stager.h"
#include "obs/report.h"
#include "predict/ptool.h"
#include "runtime/plan.h"

namespace msra::cache {
namespace {

using core::Client;
using core::Completion;
using core::Fleet;
using core::HardwareProfile;
using core::Location;
using core::Session;
using core::StorageSystem;
using core::Workload;
using migrate::AccessTracker;
using migrate::DatasetHeat;
using prt::Comm;
using prt::World;

core::DatasetDesc small_dataset(const std::string& name, Location location) {
  core::DatasetDesc desc;
  desc.name = name;
  desc.dims = {16, 16, 16};
  desc.etype = core::ElementType::kFloat32;
  desc.pattern = "BBB";
  desc.frequency = 1;
  desc.location = location;
  return desc;
}

// ------------------------------------------------ heat decay (tracker) --

// With the default half-life of 0 the decayed twins must track the integer
// counters exactly — every access adds exactly 1.0 / `bytes`, and integers
// below 2^53 are exact doubles. This is the invariant that lets the
// planner and the admission judge key off the decayed values
// unconditionally without changing default behaviour.
TEST(AccessDecayTest, DecayOffKeepsTwinsByteIdentical) {
  AccessTracker tracker;
  for (int i = 0; i < 7; ++i) {
    tracker.record_read("app/ds", 4096, static_cast<double>(i) * 123.5);
  }
  tracker.record_write("app/ds", 1024, 1000.0);

  const DatasetHeat heat = tracker.heat("app/ds");
  EXPECT_EQ(heat.reads, 7u);
  EXPECT_EQ(heat.decayed_reads, static_cast<double>(heat.reads));
  EXPECT_EQ(heat.decayed_read_bytes, static_cast<double>(heat.read_bytes));

  // Rolling forward must also be a no-op with decay off.
  const DatasetHeat later = tracker.heat_at("app/ds", 1.0e9);
  EXPECT_EQ(later.decayed_reads, static_cast<double>(heat.reads));
  EXPECT_EQ(later.decayed_read_bytes, static_cast<double>(heat.read_bytes));
}

TEST(AccessDecayTest, HeatHalvesPerHalfLife) {
  AccessTracker tracker;
  tracker.set_half_life(10.0);
  tracker.record_read("app/ds", 2048, 0.0);

  EXPECT_NEAR(tracker.heat_at("app/ds", 10.0).decayed_reads, 0.5, 1e-12);
  EXPECT_NEAR(tracker.heat_at("app/ds", 20.0).decayed_reads, 0.25, 1e-12);
  EXPECT_NEAR(tracker.heat_at("app/ds", 20.0).decayed_read_bytes,
              2048.0 * 0.25, 1e-9);
  // Not ahead of the last access: unchanged.
  EXPECT_EQ(tracker.heat_at("app/ds", 0.0).decayed_reads, 1.0);
}

TEST(AccessDecayTest, FreshReadsStackOnDecayedHeat) {
  AccessTracker tracker;
  tracker.set_half_life(10.0);
  tracker.record_read("app/ds", 1024, 0.0);
  tracker.record_read("app/ds", 1024, 10.0);  // old heat halved, then +1

  const DatasetHeat heat = tracker.heat("app/ds");
  EXPECT_EQ(heat.reads, 2u);
  EXPECT_NEAR(heat.decayed_reads, 1.5, 1e-12);
  EXPECT_EQ(heat.decay_horizon, 10.0);
}

// ------------------------------------------- planner x decay interaction --

class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : system_(HardwareProfile::test_profile()),
        db_(&system_.metadb()),
        predictor_(&db_) {
    predict::PTool ptool(system_, db_);
    EXPECT_TRUE(ptool.measure_all(ptool_config()).ok());
  }

  static predict::PToolConfig ptool_config() {
    predict::PToolConfig config;
    config.sizes = {64 << 10, 256 << 10, 1 << 20};
    config.repeats = 1;
    return config;
  }

  /// Dumps `timesteps` timesteps of a fresh dataset and returns its handle.
  core::DatasetHandle* write_dataset(Session& session, const std::string& name,
                                     Location location, int timesteps,
                                     std::byte fill = std::byte{0x2a}) {
    auto handle = session.open(small_dataset(name, location));
    EXPECT_TRUE(handle.ok()) << handle.status().to_string();
    auto layout = (*handle)->layout(1);
    EXPECT_TRUE(layout.ok());
    std::vector<std::byte> block(layout->global_bytes(), fill);
    World world(1);
    world.run([&](Comm& comm) {
      for (int t = 0; t < timesteps; ++t) {
        ASSERT_TRUE((*handle)->write_timestep(comm, t, block).ok());
      }
    });
    return *handle;
  }

  ReadCache* enable_cache(std::uint64_t memory_bytes = 64ull << 20) {
    CacheConfig config;
    config.memory_bytes = memory_bytes;
    return system_.enable_cache(config, &predictor_);
  }

  StorageSystem system_;
  predict::PerfDb db_;
  predict::Predictor predictor_;
};

// Stale heat must not pin cold datasets into promotion forever: with a
// half-life set, a dataset read heavily long ago (and since gone quiet)
// falls below `hot_reads`, while an equally-read fresh dataset promotes.
TEST_F(CacheTest, PlannerIgnoresStaleHeatWithDecay) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2, .predictor = &predictor_});
  write_dataset(session, "stale", Location::kRemoteTape, 1);
  write_dataset(session, "fresh", Location::kRemoteTape, 1);
  auto stale = session.catalog().instance("astro", "stale", 0);
  auto fresh = session.catalog().instance("astro", "fresh", 0);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(fresh.ok());

  AccessTracker& tracker = system_.access_tracker();
  tracker.set_half_life(5.0);
  for (int i = 0; i < 4; ++i) {
    tracker.record_read("astro/stale", stale->bytes, 0.0);
    tracker.record_read("astro/fresh", fresh->bytes, 1000.0);
  }
  // One recent touch rolls stale's ancient heat forward: 4 * 2^-200 + 1.
  tracker.record_read("astro/stale", stale->bytes, 1000.0);
  EXPECT_LT(tracker.heat("astro/stale").decayed_reads, 2.0);
  EXPECT_EQ(tracker.heat("astro/fresh").decayed_reads, 4.0);

  flow::StagingScheduler stager(system_, predictor_);
  auto plan = stager.plan_migration({});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 1u) << "only the fresh dataset is hot";
  EXPECT_EQ(plan->front().kind, flow::StageTaskKind::kPromote);
  EXPECT_EQ(plan->front().path, fresh->path);
}

// --------------------------------------------- admission + hit roundtrip --

// Acceptance: a warm re-read of a tape-resident object must be at least 5x
// faster than the cold read that admitted it.
TEST_F(CacheTest, WarmRereadServedFromCacheIsFaster) {
  Session session(system_, {.application = "volren", .nprocs = 1,
                            .iterations = 2, .predictor = &predictor_});
  auto* handle = write_dataset(session, "frame", Location::kRemoteTape, 1);
  ReadCache* cache = enable_cache();

  system_.reset_time();
  simkit::Timeline cold_tl;
  auto cold = handle->read_whole(0, {.timeline = &cold_tl});
  ASSERT_TRUE(cold.ok());

  system_.reset_time();
  simkit::Timeline warm_tl;
  auto warm = handle->read_whole(0, {.timeline = &warm_tl});
  ASSERT_TRUE(warm.ok());

  EXPECT_EQ(*cold, *warm) << "cache must serve the admitted bytes";
  EXPECT_GT(cold_tl.now(), 0.0);
  EXPECT_GE(cold_tl.now(), 5.0 * warm_tl.now())
      << "cold " << cold_tl.now() << "s vs warm " << warm_tl.now() << "s";

  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_GT(stats.saved_seconds, 0.0);
  ASSERT_EQ(cache->entries().size(), 1u);
  EXPECT_EQ(cache->entries().front().hits, 1u);
}

// A rejected offer stays rejected until the heat justifies the eviction it
// would cause: with room for exactly one object, the second dataset only
// displaces the first once its expected reuse exceeds the victim's.
TEST_F(CacheTest, EvictionRequiresBenefitOverDamage) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2, .predictor = &predictor_});
  auto* a = write_dataset(session, "alpha", Location::kRemoteTape, 1);
  auto* b = write_dataset(session, "beta", Location::kRemoteTape, 1);
  auto record = session.catalog().instance("astro", "alpha", 0);
  ASSERT_TRUE(record.ok());

  // Memory fits one object: admitting beta evicts alpha.
  ReadCache* cache = enable_cache(record->bytes + 512);

  ASSERT_TRUE(a->read_whole(0).ok());  // miss; admits alpha
  ASSERT_TRUE(cache->contains(record->path));

  // Beta's first offer: benefit == damage (same size, same origin, same
  // reuse of 1) — not worth evicting alpha for.
  ASSERT_TRUE(b->read_whole(0).ok());
  EXPECT_TRUE(cache->contains(record->path));
  EXPECT_EQ(cache->stats().rejected, 1u);

  // Second read doubles beta's expected reuse; now the eviction pays.
  ASSERT_TRUE(b->read_whole(0).ok());
  EXPECT_FALSE(cache->contains(record->path));
  EXPECT_EQ(cache->stats().admitted, 2u);
  EXPECT_EQ(cache->stats().evictions, 1u);

  // judge() agrees without mutating: alpha would displace beta right back
  // only when its reuse grows past beta's.
  const AdmissionVerdict verdict = cache->judge(
      record->path, record->dataset_key, record->bytes,
      Location::kRemoteTape, /*now=*/0.0);
  EXPECT_EQ(verdict.outcome, AdmissionOutcome::kEvictionDamage);
}

// ------------------------------------------- write-through invalidation --

TEST_F(CacheTest, WriteThroughInvalidationDropsStaleBytes) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2, .predictor = &predictor_});
  auto* handle = write_dataset(session, "mut", Location::kRemoteDisk, 1,
                               std::byte{0x2a});
  auto record = session.catalog().instance("astro", "mut", 0);
  ASSERT_TRUE(record.ok());
  ReadCache* cache = enable_cache();

  auto v1 = handle->read_whole(0);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(cache->contains(record->path));
  EXPECT_EQ(v1->front(), std::byte{0x2a});

  // Overwrite the timestep: the cached copy must go write-through.
  std::vector<std::byte> block(v1->size(), std::byte{0x7f});
  World world(1);
  world.run([&](Comm& comm) {
    ASSERT_TRUE(handle->write_timestep(comm, 0, block).ok());
  });
  EXPECT_FALSE(cache->contains(record->path));
  EXPECT_GE(cache->stats().invalidations, 1u);

  // The next read misses and sees the new bytes, never the stale ones.
  auto v2 = handle->read_whole(0);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->front(), std::byte{0x7f});
}

// A read staged before the write keeps its pinned pre-write snapshot —
// the POSIX open-file-across-unlink guarantee the fleet runtime needs when
// a tenant yields between cache lookup and cache read.
TEST_F(CacheTest, PinnedReaderSurvivesInvalidation) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2, .predictor = &predictor_});
  auto* handle = write_dataset(session, "pin", Location::kRemoteDisk, 1,
                               std::byte{0x2a});
  enable_cache();
  ASSERT_TRUE(handle->read_whole(0).ok());  // admit

  // Staged hit: carries the pin, targets the cache endpoint.
  auto staged = handle->stage_read_whole(0);
  ASSERT_TRUE(staged.ok());
  ASSERT_NE(staged->cache_pin, nullptr);

  std::vector<std::byte> block(handle->desc().global_bytes(), std::byte{0x7f});
  World world(1);
  world.run([&](Comm& comm) {
    ASSERT_TRUE(handle->write_timestep(comm, 0, block).ok());
  });

  simkit::Timeline tl;
  std::vector<std::byte> out(handle->desc().global_bytes());
  ASSERT_TRUE(runtime::PlanExecutor::execute(staged->plan, *staged->endpoint,
                                             tl, out, {})
                  .ok());
  EXPECT_EQ(out.front(), std::byte{0x2a})
      << "the pinned read must see the pre-write snapshot";
}

TEST(CacheStoreTest, LeaseOutlivesErase) {
  CacheStore store(1 << 20);
  ByteBuffer payload(1024, std::byte{0x5c});
  ASSERT_TRUE(store.insert("obj", "app/ds", payload, 0.0).ok());

  auto lease = store.acquire("obj");
  ASSERT_NE(lease, nullptr);
  ASSERT_TRUE(store.erase("obj"));
  EXPECT_FALSE(store.contains("obj"));

  auto snapshot = store.snapshot_for_read("obj");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(*snapshot->bytes, payload);

  lease.reset();
  snapshot.reset();
  EXPECT_EQ(store.snapshot_for_read("obj"), nullptr)
      << "released leases must not resurrect dropped entries";
}

// The store's LRU against a reference: a vector in recency order, least
// recently used first. An insert evicts from the front until the payload
// fits; the plan reports its victims in path order.
struct ReferenceLru {
  struct Item {
    std::string path;
    std::uint64_t bytes = 0;
  };
  std::uint64_t capacity = 0;
  std::vector<Item> items;

  std::vector<Item>::iterator find(const std::string& path) {
    return std::find_if(items.begin(), items.end(),
                        [&](const Item& item) { return item.path == path; });
  }
  std::uint64_t used() const {
    std::uint64_t sum = 0;
    for (const Item& item : items) sum += item.bytes;
    return sum;
  }
  /// Victims of inserting `bytes` in path order; nullopt if it never fits.
  std::optional<std::vector<std::string>> plan(std::uint64_t bytes) const {
    if (bytes > capacity) return std::nullopt;
    std::vector<std::string> victims;
    std::uint64_t left = used();
    for (const Item& item : items) {
      if (left + bytes <= capacity) break;
      victims.push_back(item.path);
      left -= item.bytes;
    }
    std::sort(victims.begin(), victims.end());
    return victims;
  }
  bool insert(const std::string& path, std::uint64_t bytes) {
    if (find(path) != items.end()) return false;
    const auto victims = plan(bytes);
    if (!victims) return false;
    for (const std::string& victim : *victims) items.erase(find(victim));
    items.push_back({path, bytes});
    return true;
  }
  bool touch(const std::string& path) {
    auto it = find(path);
    if (it == items.end()) return false;
    const Item item = *it;
    items.erase(it);
    items.push_back(item);
    return true;
  }
  bool erase(const std::string& path) {
    auto it = find(path);
    if (it == items.end()) return false;
    items.erase(it);
    return true;
  }
};

std::vector<std::string> paths_of(const std::vector<CacheEntryInfo>& infos) {
  std::vector<std::string> out;
  for (const CacheEntryInfo& info : infos) out.push_back(info.path);
  return out;
}

// Seeded mixes of insert, acquire, erase and plan_insert over 12 paths of
// mixed sizes (one empty, one larger than the store) must match the
// reference step for step: fits, the victims and their order, occupancy
// and the recency order of entries().
TEST(CacheStoreTest, LruPlanMatchesReferenceModel) {
  constexpr std::uint64_t kCapacity = 40 << 10;
  const std::uint64_t sizes[12] = {0,        1 << 10,  3 << 10,  4 << 10,
                                   6 << 10,  8 << 10,  9 << 10,  12 << 10,
                                   16 << 10, 20 << 10, 40 << 10, 41 << 10};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    CacheStore store(kCapacity);
    ReferenceLru model{kCapacity, {}};
    for (int op = 0; op < 300; ++op) {
      // Path names are shuffled against sizes so path order, size order and
      // recency order all differ.
      const std::size_t i = rng.next_below(12);
      const std::string path = "obj" + std::to_string((i * 7) % 12 + 10);
      switch (rng.next_below(4)) {
        case 0: {
          InsertPlan applied;
          const bool ok = store
                              .insert(path, "app/ds", ByteBuffer(sizes[i]),
                                      0.0, &applied)
                              .ok();
          const auto victims = model.plan(sizes[i]);
          ASSERT_EQ(ok, model.insert(path, sizes[i])) << path;
          if (ok) {
            EXPECT_EQ(paths_of(applied.evicted), *victims);
          }
          break;
        }
        case 1:
          ASSERT_EQ(store.acquire(path) != nullptr, model.touch(path));
          break;
        case 2:
          ASSERT_EQ(store.erase(path), model.erase(path));
          break;
        default: {
          const std::uint64_t bytes = sizes[rng.next_below(12)];
          const InsertPlan plan = store.plan_insert(bytes);
          const auto victims = model.plan(bytes);
          ASSERT_EQ(plan.fits, victims.has_value()) << bytes;
          if (plan.fits) {
            EXPECT_EQ(paths_of(plan.evicted), *victims);
          }
          break;
        }
      }
      EXPECT_EQ(store.stats().memory_bytes, model.used());
      std::vector<std::string> mru_first;
      for (auto it = model.items.rbegin(); it != model.items.rend(); ++it) {
        mru_first.push_back(it->path);
      }
      ASSERT_EQ(paths_of(store.entries()), mru_first) << "op " << op;
    }
  }
}

// ------------------------------------------------- concurrency contract --

// Concurrent readers, a write-through invalidator and an inserter driving
// pressure eviction, all against one standalone cache. The assertions are
// deliberately loose — the point is the TSan run in CI: no data races, no
// torn snapshots, coherent counters.
TEST(CacheConcurrencyTest, ReadersInvalidatorAndPressureEviction) {
  CacheConfig config;
  config.memory_bytes = 256 << 10;
  ReadCache cache(nullptr, nullptr, nullptr, config);

  constexpr int kObjects = 8;
  constexpr std::uint64_t kBytes = 32 << 10;
  std::vector<std::byte> payload(kBytes, std::byte{0x11});
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(cache.insert_probe("obj" + std::to_string(i), "app/ds",
                                   payload).ok());
  }

  constexpr int kReaders = 4;
  constexpr int kLookupsPerReader = 200;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cache, r] {
      for (int i = 0; i < kLookupsPerReader; ++i) {
        const std::string path = "obj" + std::to_string((r + i) % kObjects);
        if (auto pin = cache.lookup(path)) {
          // Pin held briefly, exactly like a staged read in flight.
          ASSERT_NE(pin.get(), nullptr);
        }
      }
    });
  }
  // The inserter holds off until the first invalidation is in; otherwise
  // it can evict every obj* entry before the invalidator gets to run.
  std::latch first_invalidation(1);
  threads.emplace_back([&cache, &first_invalidation] {
    for (int i = 0; i < 100; ++i) {
      cache.invalidate("obj" + std::to_string(i % kObjects));
      if (i == 0) first_invalidation.count_down();
    }
  });
  threads.emplace_back([&cache, &payload, &first_invalidation] {
    first_invalidation.wait();
    for (int i = 0; i < 100; ++i) {
      (void)cache.insert_probe("new" + std::to_string(i), "app/new", payload);
    }
  });
  for (std::thread& t : threads) t.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kReaders * kLookupsPerReader));
  EXPECT_GE(stats.invalidations, 1u);
  EXPECT_GE(stats.evictions, 1u);

  // Still fully usable afterwards.
  ASSERT_TRUE(cache.insert_probe("after", "app/ds", payload).ok());
  EXPECT_NE(cache.lookup("after"), nullptr);
}

// ------------------------------------------------ fleet x cache sharing --

struct CachedFleetRun {
  std::vector<Status> statuses;
  std::vector<simkit::SimTime> latency;
  CacheStats stats;
};

/// `tenants` clients each re-read the same shared frame twice through one
/// shared cache (one fleet: strict virtual-time order).
CachedFleetRun run_cached_fleet(int tenants) {
  StorageSystem system(HardwareProfile::test_profile());
  predict::PerfDb db(&system.metadb());
  predict::Predictor predictor(&db);
  predict::PTool ptool(system, db);
  predict::PToolConfig config;
  config.sizes = {64 << 10, 256 << 10, 1 << 20};
  config.repeats = 1;
  EXPECT_TRUE(ptool.measure_all(config).ok());

  core::DatasetDesc frame = small_dataset("frame", Location::kRemoteDisk);
  Fleet setup(system);
  Client& producer = setup.add_client("producer");
  Completion* wrote = producer.submit(
      Workload().open(frame).dump("frame", 0).finalize());
  setup.run_until_idle();
  EXPECT_TRUE(wrote->status().ok());
  system.reset_time();

  CacheConfig cache_config;
  cache_config.memory_bytes = 4ull << 20;
  system.enable_cache(cache_config, &predictor);

  Fleet fleet(system);
  std::vector<Completion*> completions;
  for (int i = 0; i < tenants; ++i) {
    Client& client = fleet.add_client("tenant" + std::to_string(i));
    completions.push_back(fleet.submit(client, Workload()
                                                   .open_existing("frame")
                                                   .read_whole("frame", 0)
                                                   .read_whole("frame", 0)
                                                   .finalize()));
  }
  fleet.run_until_idle();

  CachedFleetRun run;
  for (const Completion* completion : completions) {
    EXPECT_TRUE(completion->done());
    run.statuses.push_back(completion->status());
    run.latency.push_back(completion->latency());
  }
  run.stats = system.cache()->stats();
  return run;
}

// Acceptance: 1000 tenants sharing the cache finish with bit-identical
// per-tenant virtual times across two fresh systems, and the shared cache
// turns all but the earliest reads into hits.
TEST(CacheFleetTest, ThousandTenantsShareCacheDeterministically) {
  const CachedFleetRun first = run_cached_fleet(1000);
  const CachedFleetRun second = run_cached_fleet(1000);

  ASSERT_EQ(first.latency.size(), second.latency.size());
  for (std::size_t i = 0; i < first.latency.size(); ++i) {
    EXPECT_TRUE(first.statuses[i].ok()) << first.statuses[i].to_string();
    EXPECT_TRUE(second.statuses[i].ok());
    EXPECT_EQ(first.latency[i], second.latency[i]) << "tenant " << i;
  }
  EXPECT_EQ(first.stats.hits, second.stats.hits);
  EXPECT_EQ(first.stats.misses, second.stats.misses);
  EXPECT_EQ(first.stats.admitted, second.stats.admitted);
  // All 1000 first reads are staged at virtual t = 0 — before any read has
  // completed and seeded the cache — so they all miss; every second read
  // hits the one admitted copy. That split IS the simulated-concurrency
  // semantics, and it must be exact.
  EXPECT_EQ(first.stats.misses, 1000u);
  EXPECT_EQ(first.stats.hits, 1000u);
  EXPECT_GE(first.stats.admitted, 1u);
}

// --------------------------------------------------- Eq.-1 observability --

// Every simulated second of a cold-miss + warm-hit pair must land in the
// breakdown — including the hit's `io.cache.*` rows — so the table still
// accounts for the elapsed time with the cache in the path.
TEST_F(CacheTest, BreakdownIncludesCacheRowsAndSumsToElapsed) {
  Session session(system_, {.application = "astro", .nprocs = 1,
                            .iterations = 2, .predictor = &predictor_});
  auto* handle = write_dataset(session, "frame", Location::kRemoteTape, 1);
  enable_cache();

  double before = 0.0;
  for (const auto& row : obs::io_breakdown(system_.metrics())) {
    before += row.total();
  }

  double elapsed = 0.0;
  for (int i = 0; i < 2; ++i) {  // cold miss, then warm hit
    system_.reset_time();
    simkit::Timeline tl;
    ASSERT_TRUE(handle->read_whole(0, {.timeline = &tl}).ok());
    elapsed += tl.now();
  }

  double after = 0.0;
  bool cache_row = false;
  for (const auto& row : obs::io_breakdown(system_.metrics())) {
    after += row.total();
    if (row.resource == "cache") {
      cache_row = true;
      EXPECT_GT(row.read, 0.0);
      EXPECT_GT(row.read_bytes, 0u);
      EXPECT_EQ(row.write, 0.0) << "the cache endpoint is read-only";
    }
  }
  EXPECT_TRUE(cache_row) << "hits must be billed under io.cache.*";
  ASSERT_GT(elapsed, 0.0);
  EXPECT_NEAR(after - before, elapsed, 0.05 * elapsed)
      << "breakdown must sum to within 5% of the billed I/O time";
}

// ------------------------------------------- cache-aware prediction --

TEST_F(CacheTest, CacheAssumptionsBlendIsAnchoredAndMonotone) {
  enable_cache();
  predict::PTool ptool(system_, db_);
  ASSERT_TRUE(ptool.measure_cache(ptool_config()).ok());

  const auto plan = runtime::PlanBuilder::object_read("x", 256 << 10);
  auto base = predictor_.price(plan, Location::kRemoteTape);
  auto zero = predictor_.price(plan, Location::kRemoteTape, {},
                               predict::CacheAssumptions{});
  auto half = predictor_.price(plan, Location::kRemoteTape, {},
                               predict::CacheAssumptions{.hit_ratio = 0.5});
  auto full = predictor_.price(plan, Location::kRemoteTape, {},
                               predict::CacheAssumptions{.hit_ratio = 1.0});
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(half.ok());
  ASSERT_TRUE(full.ok());

  EXPECT_EQ(*zero, *base) << "hit_ratio 0 must price bit-identically";
  EXPECT_LT(*half, *base);
  EXPECT_LT(*full, *half);

  // Write direction never blends: the cache is read-only.
  auto write_base = predictor_.call_time(Location::kRemoteTape,
                                         predict::IoOp::kWrite, 256 << 10,
                                         predict::TransferMode::kSerial, {});
  auto write_full = predictor_.call_time(
      Location::kRemoteTape, predict::IoOp::kWrite, 256 << 10,
      predict::TransferMode::kSerial, {},
      predict::CacheAssumptions{.hit_ratio = 1.0});
  ASSERT_TRUE(write_base.ok());
  ASSERT_TRUE(write_full.ok());
  EXPECT_EQ(*write_base, *write_full);
}

// Without the cache probe the blended lookup must fail loudly, not guess.
TEST_F(CacheTest, BlendedPricingRequiresCacheTables) {
  const auto plan = runtime::PlanBuilder::object_read("x", 256 << 10);
  auto blended = predictor_.price(plan, Location::kRemoteTape, {},
                                  predict::CacheAssumptions{.hit_ratio = 0.5});
  EXPECT_FALSE(blended.ok());
}

// Acceptance: hit-ratio-weighted prediction of a measured re-read workload
// lands within 5%.
TEST_F(CacheTest, CacheAwarePredictionWithinFivePercent) {
  Session session(system_, {.application = "volren", .nprocs = 1,
                            .iterations = 2, .predictor = &predictor_});
  // 64 x 64 x 16 floats = 256 KiB: exactly a measured curve point.
  core::DatasetDesc desc;
  desc.name = "frame";
  desc.dims = {64, 64, 16};
  desc.etype = core::ElementType::kFloat32;
  desc.pattern = "BBB";
  desc.frequency = 1;
  desc.location = Location::kRemoteTape;
  auto handle = session.open(desc);
  ASSERT_TRUE(handle.ok());
  std::vector<std::byte> block((*handle)->desc().global_bytes(),
                               std::byte{0x2a});
  World world(1);
  world.run([&](Comm& comm) {
    ASSERT_TRUE((*handle)->write_timestep(comm, 0, block).ok());
  });
  auto record = session.catalog().instance("volren", "frame", 0);
  ASSERT_TRUE(record.ok());

  enable_cache();
  predict::PTool ptool(system_, db_);
  ASSERT_TRUE(ptool.measure_cache(ptool_config()).ok());

  constexpr int kReads = 4;
  double measured = 0.0;
  for (int i = 0; i < kReads; ++i) {
    system_.reset_time();
    simkit::Timeline tl;
    ASSERT_TRUE((*handle)->read_whole(0, {.timeline = &tl}).ok());
    measured += tl.now();
  }
  ASSERT_EQ(system_.cache()->stats().hits, kReads - 1u);

  const auto plan =
      runtime::PlanBuilder::object_read(record->path, record->bytes);
  const predict::CacheAssumptions assumptions{
      .hit_ratio = static_cast<double>(kReads - 1) / kReads};
  auto per_call =
      predictor_.price(plan, Location::kRemoteTape, {}, assumptions);
  ASSERT_TRUE(per_call.ok());
  const double predicted = *per_call * kReads;

  ASSERT_GT(measured, 0.0);
  EXPECT_NEAR(predicted, measured, 0.05 * measured)
      << "predicted " << predicted << "s vs measured " << measured << "s";
}

}  // namespace
}  // namespace msra::cache
