#include "migrate/planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "core/placement.h"
#include "flow/stager.h"
#include "migrate/tracker.h"
#include "runtime/plan.h"

namespace msra::migrate {

std::string_view migration_kind_name(MigrationKind kind) {
  switch (kind) {
    case MigrationKind::kPromote: return "promote";
    case MigrationKind::kDemote: return "demote";
    case MigrationKind::kEvict: return "evict";
    case MigrationKind::kRebalance: return "rebalance";
  }
  return "?";
}

std::string MigrationStep::label() const {
  std::string out(migration_kind_name(kind));
  out += " " + app + "/" + name + " t" + std::to_string(timestep) + " " +
         core::address_name(from);
  if (kind != MigrationKind::kEvict) {
    out += "->" + core::address_name(to);
  }
  return out;
}

MigrationPlanner::MigrationPlanner(core::StorageSystem& system,
                                   const predict::Predictor& predictor,
                                   MigrationConfig config)
    : system_(system),
      predictor_(predictor),
      config_(config),
      catalog_(&system.metadb()) {}

StatusOr<double> MigrationPlanner::price_step(const MigrationStep& step) const {
  if (step.kind == MigrationKind::kEvict) return 0.0;  // metadata-only
  // Delegates to the unified mover's pricing primitive, so planner cost ==
  // mover bill by construction (one formula, not two copies of it).
  return flow::StagingScheduler::price_move(predictor_, step.path, step.bytes,
                                            step.from, step.to);
}

StatusOr<std::pair<core::ReplicaAddress, double>>
MigrationPlanner::cheapest_live_read(const core::InstanceRecord& record) const {
  core::ReplicaAddress where = core::Location::kRemoteTape;
  double best = std::numeric_limits<double>::infinity();
  const runtime::IoPlan plan =
      runtime::PlanBuilder::object_read(record.path, record.bytes);
  for (core::ReplicaAddress address : record.replicas) {
    if (!system_.endpoint(address).available()) continue;
    MSRA_ASSIGN_OR_RETURN(double seconds,
                          predictor_.price(plan, address.location));
    if (seconds < best) {
      best = seconds;
      where = address;
    }
  }
  if (best == std::numeric_limits<double>::infinity()) {
    return Status::Unavailable("no live replica of " + record.dataset_key);
  }
  return std::make_pair(where, best);
}

StatusOr<MigrationPlan> MigrationPlanner::plan() {
  MigrationPlan out;
  if (!config_.enabled) return out;

  const std::vector<core::InstanceRecord> all = catalog_.all_instances();

  // Per-dataset instance counts: heat is pooled per dataset, so one
  // timestep's expected future reads are its per-instance share.
  std::map<std::string, std::uint64_t> instance_count;
  for (const auto& record : all) ++instance_count[record.dataset_key];

  std::uint64_t batch_budget = config_.max_batch_bytes > 0
                                   ? config_.max_batch_bytes
                                   : std::numeric_limits<std::uint64_t>::max();

  // Promotion reservations come out of the *current* free space; bytes a
  // demotion will free only become usable in the next planning round, so a
  // promotion never depends on a step ahead of it in the same batch.
  // Keyed by (class, server).
  std::map<std::pair<int, int>, std::uint64_t> reserved;
  auto reserved_key = [](core::ReplicaAddress address) {
    return std::make_pair(static_cast<int>(address.location), address.server);
  };

  auto append = [&](MigrationStep step) {
    out.predicted_cost += step.cost;
    out.predicted_benefit += step.benefit;
    if (step.kind != MigrationKind::kEvict) {
      out.total_bytes += step.bytes;
      batch_budget -= std::min(batch_budget, step.bytes);
    }
    out.steps.push_back(std::move(step));
  };

  // ---- pressure pass: demote/evict the coldest residents -----------------
  // Every disk on every server is checked; demotions land on the tape of
  // the SAME server as the pressured disk (server-side copy, no WAN hop).
  AccessTracker& tracker = system_.access_tracker();
  std::vector<core::ReplicaAddress> pressured_addresses;
  pressured_addresses.emplace_back(core::Location::kLocalDisk, 0);
  for (int server = 0; server < system_.cluster_size(); ++server) {
    pressured_addresses.emplace_back(core::Location::kRemoteDisk, server);
  }
  for (core::ReplicaAddress pressured : pressured_addresses) {
    runtime::StorageEndpoint& endpoint = system_.endpoint(pressured);
    if (!endpoint.available()) continue;
    const std::uint64_t capacity = endpoint.capacity();
    if (capacity == 0) continue;
    const std::uint64_t used = endpoint.used();
    if (static_cast<double>(used) <=
        config_.pressure_watermark * static_cast<double>(capacity)) {
      continue;
    }
    const auto target = static_cast<std::uint64_t>(
        config_.target_watermark * static_cast<double>(capacity));
    std::uint64_t to_free = used > target ? used - target : 0;

    // Coldest first: fewest (decayed) reads, then oldest touch, then biggest
    // payload (fewer moves), then a stable name/timestep key for determinism.
    std::vector<const core::InstanceRecord*> residents;
    for (const auto& record : all) {
      if (record.on(pressured)) residents.push_back(&record);
    }
    std::stable_sort(residents.begin(), residents.end(),
                     [&](const core::InstanceRecord* a,
                         const core::InstanceRecord* b) {
                       const DatasetHeat ha = tracker.heat(a->dataset_key);
                       const DatasetHeat hb = tracker.heat(b->dataset_key);
                       if (ha.anticipated_reads() != hb.anticipated_reads()) {
                         return ha.anticipated_reads() < hb.anticipated_reads();
                       }
                       if (ha.last_touch != hb.last_touch) {
                         return ha.last_touch < hb.last_touch;
                       }
                       if (a->bytes != b->bytes) return a->bytes > b->bytes;
                       if (a->dataset_key != b->dataset_key) {
                         return a->dataset_key < b->dataset_key;
                       }
                       return a->timestep < b->timestep;
                     });

    for (const core::InstanceRecord* record : residents) {
      if (to_free == 0) break;
      const auto [app, name] = core::MetaCatalog::split_key(record->dataset_key);

      // Another live replica elsewhere: the pressured copy is redundant.
      bool other_live = false;
      for (core::ReplicaAddress address : record->replicas) {
        if (address != pressured && system_.endpoint(address).available()) {
          other_live = true;
          break;
        }
      }
      MigrationStep step;
      step.app = app;
      step.name = name;
      step.timestep = record->timestep;
      step.from = pressured;
      step.path = record->path;
      step.bytes = record->bytes;
      if (other_live) {
        step.kind = MigrationKind::kEvict;
        step.to = pressured;
        step.drop_source = true;
      } else {
        // Copy to the archive first, then drop (copy-then-commit-then-drop:
        // the instance never goes missing). The archive of choice is the
        // tape on the pressured disk's own server (a local-disk pressure
        // demotes to server 0's tape).
        const core::ReplicaAddress archive{
            core::Location::kRemoteTape,
            pressured.location == core::Location::kLocalDisk
                ? 0
                : pressured.server};
        runtime::StorageEndpoint& tape = system_.endpoint(archive);
        if (!tape.available() || record->on(archive) ||
            tape.free_bytes() < record->bytes ||
            record->bytes > batch_budget) {
          continue;
        }
        step.kind = MigrationKind::kDemote;
        step.to = archive;
        step.drop_source = true;
        MSRA_ASSIGN_OR_RETURN(step.cost, price_step(step));
      }
      to_free -= std::min(to_free, record->bytes);
      append(std::move(step));
    }
  }

  // ---- rebalance pass: even out skewed remote-disk servers ---------------
  // Clusters only, opt-in: when the fullest remote-disk server and the
  // emptiest differ by more than rebalance_gap of capacity, the coldest
  // residents of the full one move over (a move, not a copy — the point is
  // to free the pressured server). Priced with the same shared Predictor as
  // every other step, so a rebalance bills exactly read@from + write@to.
  if (config_.rebalance && system_.cluster_size() > 1) {
    int fullest = -1, emptiest = -1;
    double fullest_frac = 0.0, emptiest_frac = 1.0;
    for (int server = 0; server < system_.cluster_size(); ++server) {
      runtime::StorageEndpoint& endpoint =
          system_.endpoint({core::Location::kRemoteDisk, server});
      if (!endpoint.available() || endpoint.capacity() == 0) continue;
      const double frac = static_cast<double>(endpoint.used()) /
                          static_cast<double>(endpoint.capacity());
      if (fullest < 0 || frac > fullest_frac) {
        fullest = server;
        fullest_frac = frac;
      }
      if (emptiest < 0 || frac < emptiest_frac) {
        emptiest = server;
        emptiest_frac = frac;
      }
    }
    if (fullest >= 0 && emptiest >= 0 && fullest != emptiest &&
        fullest_frac - emptiest_frac > config_.rebalance_gap) {
      const core::ReplicaAddress src{core::Location::kRemoteDisk, fullest};
      const core::ReplicaAddress dst{core::Location::kRemoteDisk, emptiest};
      runtime::StorageEndpoint& src_ep = system_.endpoint(src);
      runtime::StorageEndpoint& dst_ep = system_.endpoint(dst);
      // Move cold residents until the two servers meet in the middle.
      const double mid = (fullest_frac + emptiest_frac) / 2.0;
      std::uint64_t to_move =
          src_ep.used() - static_cast<std::uint64_t>(
                              mid * static_cast<double>(src_ep.capacity()));
      std::vector<const core::InstanceRecord*> residents;
      for (const auto& record : all) {
        if (record.on(src) && !record.on(dst)) residents.push_back(&record);
      }
      std::stable_sort(residents.begin(), residents.end(),
                       [&](const core::InstanceRecord* a,
                           const core::InstanceRecord* b) {
                         const DatasetHeat ha = tracker.heat(a->dataset_key);
                         const DatasetHeat hb = tracker.heat(b->dataset_key);
                         if (ha.anticipated_reads() != hb.anticipated_reads()) {
                           return ha.anticipated_reads() < hb.anticipated_reads();
                         }
                         if (a->bytes != b->bytes) return a->bytes > b->bytes;
                         if (a->dataset_key != b->dataset_key) {
                           return a->dataset_key < b->dataset_key;
                         }
                         return a->timestep < b->timestep;
                       });
      for (const core::InstanceRecord* record : residents) {
        if (to_move == 0 || record->bytes > batch_budget) break;
        const std::uint64_t reserve = reserved[reserved_key(dst)];
        if (dst_ep.free_bytes() < reserve + record->bytes) break;
        const auto [app, name] =
            core::MetaCatalog::split_key(record->dataset_key);
        MigrationStep step;
        step.kind = MigrationKind::kRebalance;
        step.app = app;
        step.name = name;
        step.timestep = record->timestep;
        step.from = src;
        step.to = dst;
        step.path = record->path;
        step.bytes = record->bytes;
        step.drop_source = true;
        MSRA_ASSIGN_OR_RETURN(step.cost, price_step(step));
        reserved[reserved_key(dst)] += record->bytes;
        to_move -= std::min(to_move, record->bytes);
        append(std::move(step));
      }
    }
  }

  // ---- promotion pass: hot data stuck on slow media ----------------------
  struct Candidate {
    MigrationStep step;
    double net = 0.0;
  };
  std::vector<Candidate> promotions;
  for (const auto& record : all) {
    const DatasetHeat heat = tracker.heat(record.dataset_key);
    if (heat.anticipated_reads() < static_cast<double>(config_.hot_reads)) {
      continue;
    }
    const double reads_share =
        heat.anticipated_reads() /
        static_cast<double>(instance_count[record.dataset_key]);
    auto current = cheapest_live_read(record);
    if (!current.ok()) continue;  // nothing live: failover's problem, not ours
    const auto [current_address, current_seconds] = *current;

    // Fastest-first destinations, from the same ordered-candidates helper
    // the placement policy and the advisor use; in a cluster each remote
    // class expands to every server (the source's server first).
    Candidate best;
    bool found = false;
    for (core::ReplicaAddress destination : core::ordered_candidate_addresses(
             {core::Location::kLocalDisk, current_address.server},
             system_.cluster_size())) {
      if (record.on(destination)) continue;
      runtime::StorageEndpoint& endpoint = system_.endpoint(destination);
      if (!endpoint.available()) continue;
      const std::uint64_t reserve = reserved[reserved_key(destination)];
      if (endpoint.free_bytes() < reserve + record.bytes) continue;
      MSRA_ASSIGN_OR_RETURN(
          double dest_read,
          predictor_.price(
              runtime::PlanBuilder::object_read(record.path, record.bytes),
              destination.location));
      if (dest_read >= current_seconds) continue;  // not faster than today

      const auto [app, name] = core::MetaCatalog::split_key(record.dataset_key);
      MigrationStep step;
      step.kind = MigrationKind::kPromote;
      step.app = app;
      step.name = name;
      step.timestep = record.timestep;
      step.from = current_address;  // read the copy from the cheapest replica
      step.to = destination;
      step.path = record.path;
      step.bytes = record.bytes;
      step.drop_source = false;
      step.benefit = reads_share * (current_seconds - dest_read);
      MSRA_ASSIGN_OR_RETURN(step.cost, price_step(step));
      const double net = step.benefit - step.cost;
      if (net <= 0.0) continue;  // the copy costs more than it ever saves
      if (!found || net > best.net) {
        best = Candidate{std::move(step), net};
        found = true;
      }
    }
    if (found) promotions.push_back(std::move(best));
  }

  // Biggest net saving first; deterministic tie-break.
  std::stable_sort(promotions.begin(), promotions.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.net != b.net) return a.net > b.net;
                     if (a.step.bytes != b.step.bytes) {
                       return a.step.bytes > b.step.bytes;
                     }
                     return a.step.timestep < b.step.timestep;
                   });
  for (auto& candidate : promotions) {
    if (candidate.step.bytes > batch_budget) continue;
    reserved[reserved_key(candidate.step.to)] += candidate.step.bytes;
    append(std::move(candidate.step));
  }
  return out;
}

}  // namespace msra::migrate
