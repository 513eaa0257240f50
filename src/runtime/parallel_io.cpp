#include "runtime/parallel_io.h"

#include <cassert>
#include <cstring>
#include <optional>

#include "obs/metrics.h"
#include "runtime/plan.h"

namespace msra::runtime {

namespace {
/// Bills one two-phase I/O phase (virtual seconds on the recording rank's
/// timeline) into the endpoint's registry, if it has one.
void record_phase(StorageEndpoint& endpoint, const char* histogram,
                  simkit::SimTime duration) {
  obs::MetricsRegistry* registry = endpoint.metrics();
  if (registry == nullptr || !registry->enabled()) return;
  registry->histogram(histogram)->record(duration);
}
}  // namespace

std::string_view io_method_name(IoMethod method) {
  switch (method) {
    case IoMethod::kNaive: return "naive";
    case IoMethod::kCollective: return "collective";
  }
  return "?";
}

void for_each_run_in(
    const std::array<std::uint64_t, 3>& dims, const prt::LocalBox& box,
    const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>& fn) {
  const auto& e = box.extent;
  const std::uint64_t box_nj = e[1].size();
  const std::uint64_t box_nk = e[2].size();
  const auto offset = [&dims](std::uint64_t i, std::uint64_t j, std::uint64_t k) {
    return (i * dims[1] + j) * dims[2] + k;
  };
  if (e[2].size() == dims[2] && e[1].size() == dims[1]) {
    // Full (j,k) planes: the whole i-slab is one contiguous run.
    fn(offset(e[0].lo, 0, 0), box.volume(), 0);
    return;
  }
  if (e[2].size() == dims[2]) {
    // Full k rows: each i contributes one contiguous (j,k) sheet.
    std::uint64_t local = 0;
    const std::uint64_t sheet = box_nj * box_nk;
    for (std::uint64_t i = e[0].lo; i < e[0].hi; ++i) {
      fn(offset(i, e[1].lo, 0), sheet, local);
      local += sheet;
    }
    return;
  }
  // General case: one run per (i, j) row segment.
  std::uint64_t local = 0;
  for (std::uint64_t i = e[0].lo; i < e[0].hi; ++i) {
    for (std::uint64_t j = e[1].lo; j < e[1].hi; ++j) {
      fn(offset(i, j, e[2].lo), box_nk, local);
      local += box_nk;
    }
  }
}

void for_each_run(
    const prt::Decomposition& decomp, const prt::LocalBox& box,
    const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>& fn) {
  for_each_run_in(decomp.dims(), box, fn);
}

std::uint64_t count_runs(const prt::Decomposition& decomp, const prt::LocalBox& box) {
  std::uint64_t runs = 0;
  for_each_run(decomp, box, [&runs](std::uint64_t, std::uint64_t, std::uint64_t) {
    ++runs;
  });
  return runs;
}

namespace {

/// Broadcasts the root's status so every rank agrees on the outcome.
Status bcast_status(prt::Comm& comm, const Status& mine, int root) {
  net::WireWriter w;
  srb::proto::put_status(w, mine);
  auto payload = comm.bcast(w.take(), root);
  net::WireReader r(payload);
  return srb::proto::get_status(r);
}

/// Joins per-rank statuses: OK only if every rank succeeded; a failing rank
/// keeps its own error, others learn a peer failed.
Status join_statuses(prt::Comm& comm, const Status& mine) {
  const double failures =
      comm.allreduce_sum(mine.ok() ? 0.0 : 1.0);
  if (mine.ok() && failures > 0.0) {
    return Status::Internal("peer rank failed during parallel I/O");
  }
  return mine;
}

/// Collective. Runs this rank's `plan` (null: the rank has no I/O and only
/// takes part) with every rank's stages interleaved in virtual-time order
/// (Comm::in_time_order). Ranks that reach the same shared devices thus
/// book them in the same order on every run, whatever order the host
/// threads happen to run in.
Status execute_in_time_order(const IoPlan* plan, StorageEndpoint& endpoint,
                             prt::Comm& comm, std::span<std::byte> out,
                             std::span<const std::byte> in) {
  if (plan == nullptr) {
    comm.in_time_order([] { return false; });
    return Status::Ok();
  }
  PlanCursor cursor(*plan, endpoint, comm.timeline(), out, in);
  comm.in_time_order([&] {
    if (!cursor.done()) (void)cursor.step();
    return !cursor.done();
  });
  return cursor.status();
}

Status check_local_size(const ArrayLayout& layout, int rank, std::size_t got) {
  const std::uint64_t want = layout.local_bytes(rank);
  if (got != want) {
    return Status::InvalidArgument(
        "local buffer is " + std::to_string(got) + " bytes, box needs " +
        std::to_string(want));
  }
  return Status::Ok();
}

Status write_collective(StorageEndpoint& endpoint, prt::Comm& comm,
                        const std::string& path, const ArrayLayout& layout,
                        std::span<const std::byte> local, OpenMode mode) {
  constexpr int kRoot = 0;
  const simkit::SimTime phase_start = comm.timeline().now();
  std::vector<std::uint64_t> sizes;
  auto gathered = comm.gatherv(local, kRoot, &sizes);
  Status status = Status::Ok();
  if (comm.rank() == kRoot) {
    record_phase(endpoint, "collective.write.exchange_time",
                 comm.timeline().now() - phase_start);
    // Phase 2: reassemble the global row-major buffer. The ranks' boxes
    // partition it, so every byte is copied in once (no zero-fill).
    ByteBuffer global(layout.global_bytes());
    std::uint64_t slot_base = 0;
    const std::size_t elem = layout.elem_size;
    for (int r = 0; r < comm.size(); ++r) {
      const prt::LocalBox box = layout.decomp.local_box(r);
      for_each_run(layout.decomp, box,
                   [&](std::uint64_t goff, std::uint64_t count, std::uint64_t loff) {
                     std::memcpy(global.data() + goff * elem,
                                 gathered.data() + slot_base + loff * elem,
                                 count * elem);
                   });
      slot_base += sizes[static_cast<std::size_t>(r)];
    }
    // Single large native request.
    const simkit::SimTime io_start = comm.timeline().now();
    const IoPlan plan =
        PlanBuilder::object_write(path, layout.global_bytes(), mode);
    status = PlanExecutor::execute(plan, endpoint, comm.timeline(), {}, global);
    record_phase(endpoint, "collective.write.io_time",
                 comm.timeline().now() - io_start);
  }
  status = bcast_status(comm, status, kRoot);
  comm.sync_time();
  return status;
}

// Multi-aggregator two-phase I/O (ROMIO-style). The file domain (in
// elements) is split into `A` contiguous ranges, one per aggregator rank
// (ranks 0..A-1). Phase 1 exchanges data so each aggregator holds its
// range; phase 2 issues A concurrent contiguous requests.
constexpr int kShuffleTag = 9001;
constexpr int kDeliverTag = 9002;

struct AggregatorRange {
  prt::Extent elems;  ///< element range of the file domain
};

std::vector<AggregatorRange> aggregator_ranges(const ArrayLayout& layout, int a) {
  std::vector<AggregatorRange> out;
  out.reserve(static_cast<std::size_t>(a));
  for (int i = 0; i < a; ++i) {
    out.push_back({prt::block_extent(layout.decomp.global_volume(), a, i)});
  }
  return out;
}

Status write_collective_multi(StorageEndpoint& endpoint, prt::Comm& comm,
                              const std::string& path, const ArrayLayout& layout,
                              std::span<const std::byte> local, OpenMode mode,
                              int aggregators) {
  constexpr int kRoot = 0;
  const std::size_t elem = layout.elem_size;
  const auto ranges = aggregator_ranges(layout, aggregators);
  const prt::LocalBox box = layout.decomp.local_box(comm.rank());

  // Root establishes the object so aggregators can open it for update.
  Status status = Status::Ok();
  if (comm.rank() == kRoot) {
    const IoPlan establish = PlanBuilder::object_establish(path, mode);
    status = PlanExecutor::execute(establish, endpoint, comm.timeline(), {}, {});
  }
  status = bcast_status(comm, status, kRoot);
  if (!status.ok()) {
    comm.sync_time();
    return status;
  }

  // Phase 1: every rank sends each aggregator the pieces of its runs that
  // fall into that aggregator's range (one message per pair, possibly
  // empty): (global offset, count, payload) triples until the message ends.
  const simkit::SimTime exchange_start = comm.timeline().now();
  std::vector<net::WireWriter> outbound(static_cast<std::size_t>(aggregators));
  for_each_run(layout.decomp, box,
               [&](std::uint64_t goff, std::uint64_t count, std::uint64_t loff) {
                 for (int a = 0; a < aggregators; ++a) {
                   const auto& range = ranges[static_cast<std::size_t>(a)].elems;
                   const std::uint64_t lo = std::max(goff, range.lo);
                   const std::uint64_t hi = std::min(goff + count, range.hi);
                   if (lo >= hi) continue;
                   auto& w = outbound[static_cast<std::size_t>(a)];
                   w.put_u64(lo);
                   w.put_u64(hi - lo);
                   const std::uint64_t local_off = loff + (lo - goff);
                   w.put_bytes(local.subspan(local_off * elem, (hi - lo) * elem));
                 }
               });
  for (int a = 0; a < aggregators; ++a) {
    comm.send(a, kShuffleTag, outbound[static_cast<std::size_t>(a)].take());
  }

  // Phase 2: aggregators assemble and write their contiguous range. The
  // ranks' pieces partition it, so every byte is copied in once (no
  // zero-fill); a bad message fails the write before any byte is sent.
  std::optional<IoPlan> plan;  // set on aggregators whose shuffle arrived
  ByteBuffer buffer;
  if (comm.rank() < aggregators) {
    const auto& range = ranges[static_cast<std::size_t>(comm.rank())].elems;
    buffer.resize(range.size() * elem);
    for (int r = 0; r < comm.size() && status.ok(); ++r) {
      auto message = comm.recv(r, kShuffleTag);
      net::WireReader runs(message);
      while (!runs.exhausted() && status.ok()) {
        auto goff = runs.get_u64();
        auto n = runs.get_u64();
        if (!goff.ok() || !n.ok()) {
          status = Status::Internal("bad shuffle run");
          break;
        }
        std::span<std::byte> dst(buffer.data() + (*goff - range.lo) * elem,
                                 *n * elem);
        Status got = runs.get_bytes_into(dst);
        if (!got.ok()) status = got;
      }
    }
    record_phase(endpoint, "collective.write.exchange_time",
                 comm.timeline().now() - exchange_start);
    if (status.ok()) {
      plan = PlanBuilder::range_io(path, range.lo * elem, buffer.size(),
                                   PlanDir::kWrite, OpenMode::kUpdate);
    }
  }
  // Non-aggregators drain nothing (their sends were buffered) and only take
  // part in the ordered write.
  const simkit::SimTime io_start = comm.timeline().now();
  const Status io = execute_in_time_order(plan ? &*plan : nullptr, endpoint,
                                          comm, {}, buffer);
  if (plan) {
    status = io;
    record_phase(endpoint, "collective.write.io_time",
                 comm.timeline().now() - io_start);
  }
  status = join_statuses(comm, status);
  comm.sync_time();
  return status;
}

Status read_collective_multi(StorageEndpoint& endpoint, prt::Comm& comm,
                             const std::string& path, const ArrayLayout& layout,
                             std::span<std::byte> local, int aggregators) {
  const std::size_t elem = layout.elem_size;
  const auto ranges = aggregator_ranges(layout, aggregators);
  Status status = Status::Ok();

  // Phase 1: aggregators read their contiguous range and deliver each
  // rank's pieces.
  std::optional<IoPlan> plan;  // set on aggregators
  ByteBuffer buffer;           // the read fills it; a failed one is not sent
  if (comm.rank() < aggregators) {
    const auto& range = ranges[static_cast<std::size_t>(comm.rank())].elems;
    buffer.resize(range.size() * elem);
    plan = PlanBuilder::range_io(path, range.lo * elem, buffer.size(),
                                 PlanDir::kRead, OpenMode::kRead);
  }
  const simkit::SimTime io_start = comm.timeline().now();
  status = execute_in_time_order(plan ? &*plan : nullptr, endpoint, comm,
                                 buffer, {});
  if (plan) {
    const auto& range = ranges[static_cast<std::size_t>(comm.rank())].elems;
    record_phase(endpoint, "collective.read.io_time",
                 comm.timeline().now() - io_start);
    const simkit::SimTime exchange_start = comm.timeline().now();
    // Each message: an ok flag, then (local offset, count, payload)
    // triples until it ends.
    for (int r = 0; r < comm.size(); ++r) {
      net::WireWriter w;
      w.put_u8(status.ok() ? 1 : 0);
      if (status.ok()) {
        const prt::LocalBox rbox = layout.decomp.local_box(r);
        for_each_run(layout.decomp, rbox,
                     [&](std::uint64_t goff, std::uint64_t count,
                         std::uint64_t loff) {
                       const std::uint64_t lo = std::max(goff, range.lo);
                       const std::uint64_t hi = std::min(goff + count, range.hi);
                       if (lo >= hi) return;
                       w.put_u64(loff + (lo - goff));
                       w.put_u64(hi - lo);
                       w.put_bytes(std::span<const std::byte>(
                           buffer.data() + (lo - range.lo) * elem,
                           (hi - lo) * elem));
                     });
      }
      comm.send(r, kDeliverTag, w.take());
    }
    record_phase(endpoint, "collective.read.exchange_time",
                 comm.timeline().now() - exchange_start);
  }

  // Phase 2: every rank assembles its block from the aggregators' pieces.
  for (int a = 0; a < aggregators; ++a) {
    auto message = comm.recv(a, kDeliverTag);
    net::WireReader pieces(message);
    auto ok_flag = pieces.get_u8();
    if (!ok_flag.ok()) {
      status = Status::Internal("bad deliver message");
      continue;
    }
    if (*ok_flag == 0) {
      if (status.ok()) status = Status::Internal("aggregator read failed");
      continue;
    }
    while (!pieces.exhausted() && status.ok()) {
      auto loff = pieces.get_u64();
      auto count = pieces.get_u64();
      if (!loff.ok() || !count.ok()) {
        status = Status::Internal("bad deliver run");
        break;
      }
      std::span<std::byte> dst(local.data() + *loff * elem, *count * elem);
      Status got = pieces.get_bytes_into(dst);
      if (!got.ok()) status = got;
    }
  }
  status = join_statuses(comm, status);
  comm.sync_time();
  return status;
}

Status write_naive(StorageEndpoint& endpoint, prt::Comm& comm,
                   const std::string& path, const ArrayLayout& layout,
                   std::span<const std::byte> local, OpenMode mode) {
  constexpr int kRoot = 0;
  // Root establishes the object (create/truncate), then everyone updates it.
  Status status = Status::Ok();
  if (comm.rank() == kRoot) {
    const IoPlan establish = PlanBuilder::object_establish(path, mode);
    status = PlanExecutor::execute(establish, endpoint, comm.timeline(), {}, {});
  }
  status = bcast_status(comm, status, kRoot);
  if (!status.ok()) {
    comm.sync_time();
    return status;
  }
  const IoPlan plan =
      PlanBuilder::rank_runs(layout, comm.rank(), path, PlanDir::kWrite,
                             OpenMode::kUpdate,
                             endpoint.fast_path().vectored_rpc);
  status = execute_in_time_order(&plan, endpoint, comm, {}, local);
  status = join_statuses(comm, status);
  comm.sync_time();
  return status;
}

Status read_collective(StorageEndpoint& endpoint, prt::Comm& comm,
                       const std::string& path, const ArrayLayout& layout,
                       std::span<std::byte> local) {
  constexpr int kRoot = 0;
  Status status = Status::Ok();
  // Neither buffer is zero-filled: the read fills `global`, and each rank's
  // box covers its chunk.
  std::vector<ByteBuffer> chunks;
  if (comm.rank() == kRoot) {
    ByteBuffer global(layout.global_bytes());
    const simkit::SimTime io_start = comm.timeline().now();
    const IoPlan plan = PlanBuilder::object_read(path, layout.global_bytes());
    status = PlanExecutor::execute(plan, endpoint, comm.timeline(), global, {});
    record_phase(endpoint, "collective.read.io_time",
                 comm.timeline().now() - io_start);
    if (status.ok()) {
      // Phase 2: carve the global buffer into per-rank blocks.
      chunks.resize(static_cast<std::size_t>(comm.size()));
      const std::size_t elem = layout.elem_size;
      for (int r = 0; r < comm.size(); ++r) {
        const prt::LocalBox box = layout.decomp.local_box(r);
        auto& chunk = chunks[static_cast<std::size_t>(r)];
        chunk.resize(box.volume() * elem);
        for_each_run(layout.decomp, box,
                     [&](std::uint64_t goff, std::uint64_t count, std::uint64_t loff) {
                       std::memcpy(chunk.data() + loff * elem,
                                   global.data() + goff * elem, count * elem);
                     });
      }
    }
  }
  status = bcast_status(comm, status, kRoot);
  if (status.ok()) {
    const simkit::SimTime exchange_start = comm.timeline().now();
    auto mine = comm.scatterv(std::move(chunks), kRoot);
    if (comm.rank() == kRoot) {
      record_phase(endpoint, "collective.read.exchange_time",
                   comm.timeline().now() - exchange_start);
    }
    if (mine.size() != local.size()) {
      status = Status::Internal("scatter size mismatch");
    } else {
      std::memcpy(local.data(), mine.data(), mine.size());
    }
    status = join_statuses(comm, status);
  }
  comm.sync_time();
  return status;
}

Status read_naive(StorageEndpoint& endpoint, prt::Comm& comm,
                  const std::string& path, const ArrayLayout& layout,
                  std::span<std::byte> local) {
  const IoPlan plan =
      PlanBuilder::rank_runs(layout, comm.rank(), path, PlanDir::kRead,
                             OpenMode::kRead,
                             endpoint.fast_path().vectored_rpc);
  Status status = execute_in_time_order(&plan, endpoint, comm, local, {});
  status = join_statuses(comm, status);
  comm.sync_time();
  return status;
}

}  // namespace

namespace {
/// Clamps the aggregator count to something the layout and comm support.
int effective_aggregators(const ArrayLayout& layout, prt::Comm& comm,
                          const CollectiveOptions& options) {
  int a = std::max(1, options.aggregators);
  a = std::min(a, comm.size());
  a = std::min<int>(a, static_cast<int>(layout.decomp.global_volume()));
  return a;
}
}  // namespace

Status write_array(StorageEndpoint& endpoint, prt::Comm& comm,
                   const std::string& path, const ArrayLayout& layout,
                   std::span<const std::byte> local, IoMethod method,
                   OpenMode mode, CollectiveOptions options) {
  if (mode == OpenMode::kRead) {
    return Status::InvalidArgument("write_array needs a writable mode");
  }
  MSRA_RETURN_IF_ERROR(check_local_size(layout, comm.rank(), local.size()));
  switch (method) {
    case IoMethod::kCollective: {
      const int a = effective_aggregators(layout, comm, options);
      if (a <= 1) return write_collective(endpoint, comm, path, layout, local, mode);
      return write_collective_multi(endpoint, comm, path, layout, local, mode, a);
    }
    case IoMethod::kNaive:
      return write_naive(endpoint, comm, path, layout, local, mode);
  }
  return Status::InvalidArgument("bad IoMethod");
}

Status read_array(StorageEndpoint& endpoint, prt::Comm& comm,
                  const std::string& path, const ArrayLayout& layout,
                  std::span<std::byte> local, IoMethod method,
                  CollectiveOptions options) {
  MSRA_RETURN_IF_ERROR(check_local_size(layout, comm.rank(), local.size()));
  switch (method) {
    case IoMethod::kCollective: {
      const int a = effective_aggregators(layout, comm, options);
      if (a <= 1) return read_collective(endpoint, comm, path, layout, local);
      return read_collective_multi(endpoint, comm, path, layout, local, a);
    }
    case IoMethod::kNaive:
      return read_naive(endpoint, comm, path, layout, local);
  }
  return Status::InvalidArgument("bad IoMethod");
}

}  // namespace msra::runtime
