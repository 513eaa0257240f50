#include "runtime/plan.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/subfile.h"

namespace msra::runtime {

namespace {

constexpr bool is_transfer(PlanOpKind kind) {
  return kind == PlanOpKind::kRead || kind == PlanOpKind::kWrite ||
         kind == PlanOpKind::kReadv || kind == PlanOpKind::kWritev;
}

PlanOp simple_op(PlanOpKind kind) {
  PlanOp op;
  op.kind = kind;
  return op;
}

PlanOp open_op(const std::string& path, srb::OpenMode mode) {
  PlanOp op;
  op.kind = PlanOpKind::kOpen;
  op.path = path;
  op.mode = mode;
  return op;
}

PlanOp seek_op(std::uint64_t offset) {
  PlanOp op;
  op.kind = PlanOpKind::kSeek;
  op.offset = offset;
  return op;
}

/// Transfer to/from the user buffer at `buf_offset`.
PlanOp rw_op(PlanDir dir, std::uint64_t bytes, std::uint64_t buf_offset) {
  PlanOp op;
  op.kind = dir == PlanDir::kRead ? PlanOpKind::kRead : PlanOpKind::kWrite;
  op.bytes = bytes;
  op.buf_offset = buf_offset;
  return op;
}

/// Transfer to/from the scratch buffer at `scratch_offset`.
PlanOp scratch_rw_op(PlanDir dir, std::uint64_t bytes,
                     std::uint64_t scratch_offset) {
  PlanOp op;
  op.kind = dir == PlanDir::kRead ? PlanOpKind::kRead : PlanOpKind::kWrite;
  op.bytes = bytes;
  op.offset = scratch_offset;
  op.scratch = true;
  return op;
}

PlanOp copy_op(PlanOpKind kind, std::uint64_t scratch_offset,
               std::uint64_t buf_offset, std::uint64_t bytes) {
  PlanOp op;
  op.kind = kind;
  op.offset = scratch_offset;
  op.buf_offset = buf_offset;
  op.bytes = bytes;
  return op;
}

PlanStage stage(PlanStageKind kind, std::string label) {
  PlanStage out;
  out.kind = kind;
  out.label = std::move(label);
  return out;
}

/// connect + open leg.
PlanStage setup_stage(const std::string& path, srb::OpenMode mode) {
  PlanStage out = stage(PlanStageKind::kSetup, "open");
  out.ops.push_back(simple_op(PlanOpKind::kConnect));
  out.ops.push_back(open_op(path, mode));
  return out;
}

/// close + disconnect leg.
PlanStage teardown_stage() {
  PlanStage out = stage(PlanStageKind::kTeardown, "close");
  out.ops.push_back(simple_op(PlanOpKind::kClose));
  out.ops.push_back(simple_op(PlanOpKind::kDisconnect));
  return out;
}

Status check_box(const GlobalArraySpec& spec, const prt::LocalBox& box,
                 std::size_t buffer_bytes) {
  for (int d = 0; d < 3; ++d) {
    const auto& e = box.extent[static_cast<std::size_t>(d)];
    if (e.lo >= e.hi || e.hi > spec.dims[static_cast<std::size_t>(d)]) {
      return Status::InvalidArgument("box outside array bounds");
    }
  }
  if (buffer_bytes != box.volume() * spec.elem_size) {
    return Status::InvalidArgument("buffer size does not match box volume");
  }
  return Status::Ok();
}

/// The strided payload leg of a direct-strategy access: one seek+transfer
/// pair per contiguous run, or a single vectored call carrying the whole
/// run list when the fast path is on.
PlanStage run_list_stage(const std::array<std::uint64_t, 3>& dims,
                         const prt::LocalBox& box, std::size_t elem,
                         PlanDir dir, bool vectored) {
  PlanStage out = stage(PlanStageKind::kIo,
                        vectored ? "vectored run list" : "run list");
  if (vectored) {
    PlanOp op;
    op.kind = dir == PlanDir::kRead ? PlanOpKind::kReadv : PlanOpKind::kWritev;
    // Runs are visited with ascending, contiguous local offsets, so the
    // user buffer is exactly the concatenated payload of the run list.
    for_each_run_in(dims, box,
                    [&](std::uint64_t goff, std::uint64_t count, std::uint64_t) {
                      op.run_list.push_back({goff * elem, count * elem});
                    });
    op.bytes = box.volume() * elem;
    op.run_count = op.run_list.size();
    out.ops.push_back(std::move(op));
    return out;
  }
  for_each_run_in(dims, box,
                  [&](std::uint64_t goff, std::uint64_t count,
                      std::uint64_t loff) {
                    out.ops.push_back(seek_op(goff * elem));
                    out.ops.push_back(rw_op(dir, count * elem, loff * elem));
                  });
  return out;
}

prt::LocalBox intersect(const prt::LocalBox& a, const prt::LocalBox& b) {
  prt::LocalBox out;
  for (std::size_t d = 0; d < 3; ++d) {
    out.extent[d].lo = std::max(a.extent[d].lo, b.extent[d].lo);
    out.extent[d].hi = std::min(a.extent[d].hi, b.extent[d].hi);
  }
  return out;
}

bool empty_box(const prt::LocalBox& box) {
  for (const auto& e : box.extent) {
    if (e.lo >= e.hi) return true;
  }
  return false;
}

std::string chunk_label(int ci, int cj, int ck) {
  return "chunk " + std::to_string(ci) + "_" + std::to_string(cj) + "_" +
         std::to_string(ck);
}

}  // namespace

// ------------------------------------------------------------------ IoPlan --

const PlanStage* IoPlan::session_stage() const {
  for (const PlanStage& s : stages) {
    if (s.kind == PlanStageKind::kSession) return &s;
  }
  return nullptr;
}

std::uint64_t IoPlan::calls_per_dump() const {
  if (const PlanStage* s = session_stage()) return s->repeat;
  std::uint64_t calls = 0;
  for (const PlanStage& s : stages) {
    for (const PlanOp& op : s.ops) {
      if (is_transfer(op.kind)) ++calls;
    }
  }
  return calls;
}

std::uint64_t IoPlan::call_bytes() const {
  const PlanStage* session = session_stage();
  if (session != nullptr) {
    for (const PlanOp& op : session->ops) {
      if (is_transfer(op.kind)) return op.bytes;
    }
    return 0;
  }
  for (const PlanStage& s : stages) {
    for (const PlanOp& op : s.ops) {
      if (is_transfer(op.kind)) return op.bytes;
    }
  }
  return 0;
}

std::uint64_t IoPlan::runs_per_call() const {
  for (const PlanStage& s : stages) {
    for (const PlanOp& op : s.ops) {
      if (op.kind == PlanOpKind::kReadv || op.kind == PlanOpKind::kWritev) {
        return op.runs();
      }
    }
  }
  return 1;
}

// ------------------------------------------------------------- PlanBuilder --

StatusOr<IoPlan> PlanBuilder::subarray_read(const GlobalArraySpec& spec,
                                            const prt::LocalBox& box,
                                            const std::string& path,
                                            AccessStrategy strategy,
                                            bool vectored,
                                            std::size_t buffer_bytes) {
  MSRA_RETURN_IF_ERROR(check_box(spec, box, buffer_bytes));
  const std::size_t elem = spec.elem_size;
  IoPlan plan;
  plan.dir = PlanDir::kRead;
  plan.strategy = strategy;
  plan.stages.push_back(setup_stage(path, srb::OpenMode::kRead));
  if (strategy == AccessStrategy::kDirect) {
    plan.vectored = vectored;
    plan.stages.push_back(
        run_list_stage(spec.dims, box, elem, PlanDir::kRead, vectored));
  } else {
    const auto [first, last] = sieve_extent(spec, box);
    plan.scratch_bytes = last - first;
    PlanStage io = stage(PlanStageKind::kIo, "sieve extent");
    io.sieve_extent_bytes = last - first;
    io.sieve_useful_bytes = buffer_bytes;
    io.ops.push_back(seek_op(first));
    io.ops.push_back(scratch_rw_op(PlanDir::kRead, last - first, 0));
    plan.stages.push_back(std::move(io));
    PlanStage extract = stage(PlanStageKind::kCopy, "extract runs");
    for_each_run_in(spec.dims, box,
                    [&](std::uint64_t goff, std::uint64_t count,
                        std::uint64_t loff) {
                      extract.ops.push_back(copy_op(PlanOpKind::kCopyOut,
                                                    goff * elem - first,
                                                    loff * elem, count * elem));
                    });
    plan.stages.push_back(std::move(extract));
  }
  plan.stages.push_back(teardown_stage());
  return plan;
}

StatusOr<IoPlan> PlanBuilder::subarray_write(const GlobalArraySpec& spec,
                                             const prt::LocalBox& box,
                                             const std::string& path,
                                             AccessStrategy strategy,
                                             bool vectored,
                                             std::size_t buffer_bytes) {
  MSRA_RETURN_IF_ERROR(check_box(spec, box, buffer_bytes));
  const std::size_t elem = spec.elem_size;
  IoPlan plan;
  plan.dir = PlanDir::kWrite;
  plan.strategy = strategy;
  if (strategy == AccessStrategy::kDirect) {
    plan.vectored = vectored;
    plan.stages.push_back(setup_stage(path, srb::OpenMode::kUpdate));
    plan.stages.push_back(
        run_list_stage(spec.dims, box, elem, PlanDir::kWrite, vectored));
    plan.stages.push_back(teardown_stage());
    return plan;
  }
  // Sieving write = read-modify-write of the enclosing extent, so bytes
  // between the box's runs are preserved.
  const auto [first, last] = sieve_extent(spec, box);
  plan.scratch_bytes = last - first;
  PlanStage setup = setup_stage(path, srb::OpenMode::kRead);
  setup.label = "open (read-modify-write)";
  setup.sieve_extent_bytes = last - first;
  setup.sieve_useful_bytes = buffer_bytes;
  plan.stages.push_back(std::move(setup));
  PlanStage fetch = stage(PlanStageKind::kIo, "sieve extent read");
  fetch.ops.push_back(seek_op(first));
  fetch.ops.push_back(scratch_rw_op(PlanDir::kRead, last - first, 0));
  plan.stages.push_back(std::move(fetch));
  plan.stages.push_back(teardown_stage());
  PlanStage modify = stage(PlanStageKind::kCopy, "modify runs");
  for_each_run_in(spec.dims, box,
                  [&](std::uint64_t goff, std::uint64_t count,
                      std::uint64_t loff) {
                    modify.ops.push_back(copy_op(PlanOpKind::kCopyIn,
                                                 goff * elem - first,
                                                 loff * elem, count * elem));
                  });
  plan.stages.push_back(std::move(modify));
  plan.stages.push_back(setup_stage(path, srb::OpenMode::kUpdate));
  PlanStage flush = stage(PlanStageKind::kIo, "sieve extent write");
  flush.ops.push_back(seek_op(first));
  flush.ops.push_back(scratch_rw_op(PlanDir::kWrite, last - first, 0));
  plan.stages.push_back(std::move(flush));
  plan.stages.push_back(teardown_stage());
  return plan;
}

StatusOr<IoPlan> PlanBuilder::subfile_read(const SubfileLayout& layout,
                                           const prt::LocalBox& box,
                                           const std::string& base,
                                           std::size_t buffer_bytes) {
  const GlobalArraySpec& spec = layout.spec();
  const std::size_t elem = spec.elem_size;
  if (buffer_bytes != box.volume() * elem) {
    return Status::InvalidArgument("output buffer size mismatch");
  }
  const auto range = layout.chunk_range(box);
  const std::uint64_t out_nj = box.extent[1].size();
  const std::uint64_t out_nk = box.extent[2].size();
  IoPlan plan;
  plan.dir = PlanDir::kRead;
  PlanStage connect = stage(PlanStageKind::kSetup, "connect");
  connect.ops.push_back(simple_op(PlanOpKind::kConnect));
  plan.stages.push_back(std::move(connect));
  for (int ci = range[0].first; ci < range[0].second; ++ci) {
    for (int cj = range[1].first; cj < range[1].second; ++cj) {
      for (int ck = range[2].first; ck < range[2].second; ++ck) {
        const prt::LocalBox cbox = layout.chunk_box(ci, cj, ck);
        const prt::LocalBox overlap = intersect(cbox, box);
        if (empty_box(overlap)) continue;
        const std::uint64_t chunk_bytes = cbox.volume() * elem;
        plan.scratch_bytes = std::max(plan.scratch_bytes, chunk_bytes);
        PlanStage io = stage(PlanStageKind::kIo, chunk_label(ci, cj, ck));
        io.ops.push_back(
            open_op(SubfileLayout::chunk_path(base, ci, cj, ck),
                    srb::OpenMode::kRead));
        // The whole chunk in one native request, then the overlap rows
        // extracted in memory.
        io.ops.push_back(scratch_rw_op(PlanDir::kRead, chunk_bytes, 0));
        io.ops.push_back(simple_op(PlanOpKind::kClose));
        const std::uint64_t c_nj = cbox.extent[1].size();
        const std::uint64_t c_nk = cbox.extent[2].size();
        for (std::uint64_t i = overlap.extent[0].lo; i < overlap.extent[0].hi;
             ++i) {
          for (std::uint64_t j = overlap.extent[1].lo;
               j < overlap.extent[1].hi; ++j) {
            const std::uint64_t src =
                ((i - cbox.extent[0].lo) * c_nj + (j - cbox.extent[1].lo)) *
                    c_nk +
                (overlap.extent[2].lo - cbox.extent[2].lo);
            const std::uint64_t dst =
                ((i - box.extent[0].lo) * out_nj + (j - box.extent[1].lo)) *
                    out_nk +
                (overlap.extent[2].lo - box.extent[2].lo);
            io.ops.push_back(copy_op(PlanOpKind::kCopyOut, src * elem,
                                     dst * elem,
                                     overlap.extent[2].size() * elem));
          }
        }
        plan.stages.push_back(std::move(io));
      }
    }
  }
  PlanStage disconnect = stage(PlanStageKind::kTeardown, "disconnect");
  disconnect.ops.push_back(simple_op(PlanOpKind::kDisconnect));
  plan.stages.push_back(std::move(disconnect));
  return plan;
}

StatusOr<IoPlan> PlanBuilder::subfile_write(const SubfileLayout& layout,
                                            const std::string& base,
                                            std::size_t buffer_bytes) {
  const GlobalArraySpec& spec = layout.spec();
  const std::size_t elem = spec.elem_size;
  if (buffer_bytes != spec.bytes()) {
    return Status::InvalidArgument("global buffer size mismatch");
  }
  IoPlan plan;
  plan.dir = PlanDir::kWrite;
  PlanStage connect = stage(PlanStageKind::kSetup, "connect");
  connect.ops.push_back(simple_op(PlanOpKind::kConnect));
  plan.stages.push_back(std::move(connect));
  for (int ci = 0; ci < layout.chunks()[0]; ++ci) {
    for (int cj = 0; cj < layout.chunks()[1]; ++cj) {
      for (int ck = 0; ck < layout.chunks()[2]; ++ck) {
        const prt::LocalBox box = layout.chunk_box(ci, cj, ck);
        const std::uint64_t chunk_bytes = box.volume() * elem;
        plan.scratch_bytes = std::max(plan.scratch_bytes, chunk_bytes);
        PlanStage io = stage(PlanStageKind::kIo, chunk_label(ci, cj, ck));
        // Pack the chunk row-major over its own box, then one native
        // request writes it.
        std::uint64_t local = 0;
        for (std::uint64_t i = box.extent[0].lo; i < box.extent[0].hi; ++i) {
          for (std::uint64_t j = box.extent[1].lo; j < box.extent[1].hi; ++j) {
            const std::uint64_t goff =
                spec.linear_offset(i, j, box.extent[2].lo);
            const std::uint64_t count = box.extent[2].size();
            io.ops.push_back(copy_op(PlanOpKind::kCopyIn, local * elem,
                                     goff * elem, count * elem));
            local += count;
          }
        }
        io.ops.push_back(
            open_op(SubfileLayout::chunk_path(base, ci, cj, ck),
                    srb::OpenMode::kOverwrite));
        io.ops.push_back(scratch_rw_op(PlanDir::kWrite, chunk_bytes, 0));
        io.ops.push_back(simple_op(PlanOpKind::kClose));
        plan.stages.push_back(std::move(io));
      }
    }
  }
  PlanStage disconnect = stage(PlanStageKind::kTeardown, "disconnect");
  disconnect.ops.push_back(simple_op(PlanOpKind::kDisconnect));
  plan.stages.push_back(std::move(disconnect));
  return plan;
}

IoPlan PlanBuilder::object_read(const std::string& path, std::uint64_t bytes) {
  IoPlan plan;
  plan.dir = PlanDir::kRead;
  plan.stages.push_back(setup_stage(path, srb::OpenMode::kRead));
  PlanStage io = stage(PlanStageKind::kIo, "whole object");
  io.ops.push_back(rw_op(PlanDir::kRead, bytes, 0));
  plan.stages.push_back(std::move(io));
  plan.stages.push_back(teardown_stage());
  return plan;
}

IoPlan PlanBuilder::object_write(const std::string& path, std::uint64_t bytes,
                                 srb::OpenMode mode) {
  IoPlan plan;
  plan.dir = PlanDir::kWrite;
  plan.stages.push_back(setup_stage(path, mode));
  PlanStage io = stage(PlanStageKind::kIo, "whole object");
  io.ops.push_back(rw_op(PlanDir::kWrite, bytes, 0));
  plan.stages.push_back(std::move(io));
  plan.stages.push_back(teardown_stage());
  return plan;
}

IoPlan PlanBuilder::connected_object_read(const std::string& path,
                                          std::uint64_t bytes) {
  IoPlan plan;
  plan.dir = PlanDir::kRead;
  PlanStage setup = stage(PlanStageKind::kSetup, "open");
  setup.ops.push_back(open_op(path, srb::OpenMode::kRead));
  plan.stages.push_back(std::move(setup));
  PlanStage io = stage(PlanStageKind::kIo, "whole object");
  io.ops.push_back(rw_op(PlanDir::kRead, bytes, 0));
  plan.stages.push_back(std::move(io));
  PlanStage teardown = stage(PlanStageKind::kTeardown, "close");
  teardown.ops.push_back(simple_op(PlanOpKind::kClose));
  plan.stages.push_back(std::move(teardown));
  return plan;
}

IoPlan PlanBuilder::object_establish(const std::string& path,
                                     srb::OpenMode mode) {
  IoPlan plan;
  plan.dir = PlanDir::kWrite;
  plan.stages.push_back(setup_stage(path, mode));
  plan.stages.push_back(teardown_stage());
  return plan;
}

IoPlan PlanBuilder::rank_runs(const ArrayLayout& layout, int rank,
                              const std::string& path, PlanDir dir,
                              srb::OpenMode mode, bool vectored) {
  IoPlan plan;
  plan.dir = dir;
  plan.vectored = vectored;
  plan.stages.push_back(setup_stage(path, mode));
  plan.stages.push_back(run_list_stage(layout.decomp.dims(),
                                       layout.decomp.local_box(rank),
                                       layout.elem_size, dir, vectored));
  plan.stages.push_back(teardown_stage());
  return plan;
}

IoPlan PlanBuilder::range_io(const std::string& path,
                             std::uint64_t offset_bytes, std::uint64_t bytes,
                             PlanDir dir, srb::OpenMode mode) {
  IoPlan plan;
  plan.dir = dir;
  plan.method = IoMethod::kCollective;
  plan.stages.push_back(setup_stage(path, mode));
  PlanStage io = stage(PlanStageKind::kIo, "aggregator range");
  io.ops.push_back(seek_op(offset_bytes));
  io.ops.push_back(rw_op(dir, bytes, 0));
  plan.stages.push_back(std::move(io));
  plan.stages.push_back(teardown_stage());
  return plan;
}

StatusOr<IoPlan> PlanBuilder::dataset_read_box(
    const GlobalArraySpec& spec, const std::array<int, 3>& chunks,
    const prt::LocalBox& box, const std::string& path, AccessStrategy strategy,
    bool vectored, std::size_t buffer_bytes) {
  if (chunks[0] != 1 || chunks[1] != 1 || chunks[2] != 1) {
    MSRA_ASSIGN_OR_RETURN(SubfileLayout layout,
                          SubfileLayout::create(spec, chunks));
    return subfile_read(layout, box, path, buffer_bytes);
  }
  return subarray_read(spec, box, path, strategy, vectored, buffer_bytes);
}

StatusOr<IoPlan> PlanBuilder::dataset_dump(const ArrayLayout& layout,
                                           IoMethod method, int aggregators,
                                           PlanDir dir,
                                           const PlanAssumptions& assumptions) {
  IoPlan plan;
  plan.dir = dir;
  plan.method = method;
  plan.pipelined = assumptions.pipelined;
  const std::uint64_t global = layout.global_bytes();
  const srb::OpenMode mode =
      dir == PlanDir::kRead ? srb::OpenMode::kRead : srb::OpenMode::kOverwrite;
  if (method == IoMethod::kCollective) {
    const auto a = static_cast<std::uint64_t>(std::max(1, aggregators));
    PlanStage exchange = stage(PlanStageKind::kExchange, "two-phase exchange");
    exchange.exchange_bytes = global;
    plan.stages.push_back(std::move(exchange));
    PlanStage session = stage(PlanStageKind::kSession, "aggregator session");
    session.repeat = a;
    session.ops.push_back(simple_op(PlanOpKind::kConnect));
    session.ops.push_back(open_op("", mode));
    session.ops.push_back(seek_op(0));
    session.ops.push_back(rw_op(dir, global / a, 0));
    session.ops.push_back(simple_op(PlanOpKind::kClose));
    session.ops.push_back(simple_op(PlanOpKind::kDisconnect));
    plan.stages.push_back(std::move(session));
  } else {
    std::uint64_t total_runs = 0;
    for (int r = 0; r < layout.decomp.nprocs(); ++r) {
      total_runs += count_runs(layout.decomp, layout.decomp.local_box(r));
    }
    const auto nprocs = static_cast<std::uint64_t>(layout.decomp.nprocs());
    const std::uint64_t runs_per_rank =
        nprocs == 0 ? 0 : (total_runs + nprocs - 1) / nprocs;
    if (assumptions.vectored_rpc && runs_per_rank > 1) {
      // Vectored fast path: each rank ships its whole run list in one RPC.
      plan.vectored = true;
      PlanStage session = stage(PlanStageKind::kSession, "vectored rank session");
      session.repeat = nprocs;
      session.ops.push_back(simple_op(PlanOpKind::kConnect));
      session.ops.push_back(open_op("", mode));
      PlanOp v;
      v.kind = dir == PlanDir::kRead ? PlanOpKind::kReadv : PlanOpKind::kWritev;
      v.bytes = global / nprocs;
      v.run_count = runs_per_rank;
      session.ops.push_back(std::move(v));
      session.ops.push_back(simple_op(PlanOpKind::kClose));
      session.ops.push_back(simple_op(PlanOpKind::kDisconnect));
      plan.stages.push_back(std::move(session));
    } else {
      // One native session per contiguous run; with vectored_rpc requested
      // but a single run per rank, the shapes coincide.
      const std::uint64_t calls =
          assumptions.vectored_rpc ? nprocs : total_runs;
      PlanStage session = stage(PlanStageKind::kSession, "per-run session");
      session.repeat = calls;
      session.ops.push_back(simple_op(PlanOpKind::kConnect));
      session.ops.push_back(open_op("", mode));
      session.ops.push_back(seek_op(0));
      session.ops.push_back(rw_op(dir, calls == 0 ? 0 : global / calls, 0));
      session.ops.push_back(simple_op(PlanOpKind::kClose));
      session.ops.push_back(simple_op(PlanOpKind::kDisconnect));
      plan.stages.push_back(std::move(session));
    }
  }
  if (assumptions.pooled_connections) {
    // Pooling pass: connection setup/teardown leave the per-session ops and
    // are billed once around the whole dump.
    plan.pooled = true;
    for (PlanStage& s : plan.stages) {
      if (s.kind != PlanStageKind::kSession) continue;
      std::erase_if(s.ops, [](const PlanOp& op) {
        return op.kind == PlanOpKind::kConnect ||
               op.kind == PlanOpKind::kDisconnect;
      });
    }
    PlanStage setup = stage(PlanStageKind::kSetup, "connection setup");
    setup.ops.push_back(simple_op(PlanOpKind::kConnect));
    plan.stages.insert(plan.stages.begin(), std::move(setup));
    PlanStage teardown = stage(PlanStageKind::kTeardown, "connection teardown");
    teardown.ops.push_back(simple_op(PlanOpKind::kDisconnect));
    plan.stages.push_back(std::move(teardown));
  }
  return plan;
}

// -------------------------------------------------------------- PlanCursor --

PlanCursor::PlanCursor(const IoPlan& plan, StorageEndpoint& endpoint,
                       simkit::Timeline& timeline, std::span<std::byte> out,
                       std::span<const std::byte> in,
                       obs::TraceRecorder* tracer)
    : plan_(&plan),
      endpoint_(&endpoint),
      timeline_(&timeline),
      out_(out),
      in_(in),
      tracer_(tracer),
      registry_(endpoint.metrics()),
      metered_(registry_ != nullptr && registry_->enabled()),
      scratch_(plan.scratch_bytes) {}

Status PlanCursor::step() {
  if (done()) return result_;
  // Every device booking this stage makes carries the cursor's tag (the
  // scope is thread-local, so cursors on concurrent host threads each
  // classify their own bookings).
  std::optional<simkit::QosScope> qos_scope;
  if (qos_.has_value()) qos_scope.emplace(*qos_);
  const PlanStage& s = plan_->stages[stage_++];
  if (s.kind == PlanStageKind::kExchange) return result_;  // annotation only
  obs::Span span(tracer_, *timeline_, "plan." + s.label);
  if (metered_) {
    registry_->counter("plan.stages")->increment();
    registry_->counter("plan.ops")->add(s.ops.size());
    if (s.sieve_extent_bytes > 0 && result_.ok()) {
      registry_->counter("sieve.extent_bytes")->add(s.sieve_extent_bytes);
      registry_->counter("sieve.useful_bytes")->add(s.sieve_useful_bytes);
      registry_->counter("sieve.accesses")->increment();
    }
  }
  StorageEndpoint& endpoint = *endpoint_;
  simkit::Timeline& timeline = *timeline_;
  for (const PlanOp& op : s.ops) {
    if (!result_.ok()) {
      // First error wins. The only ops still issued are the teardown of
      // live state — exactly what FileSession / the chunk loops did —
      // and their own errors are dropped.
      if (op.kind == PlanOpKind::kClose && handle_open_) {
        handle_open_ = false;
        (void)endpoint.close(timeline, handle_);
      } else if (op.kind == PlanOpKind::kDisconnect && connected_) {
        connected_ = false;
        (void)endpoint.disconnect(timeline);
      }
      continue;
    }
    switch (op.kind) {
      case PlanOpKind::kConnect:
        result_ = endpoint.connect(timeline);
        if (result_.ok()) connected_ = true;
        break;
      case PlanOpKind::kOpen: {
        auto opened = endpoint.open(timeline, op.path, op.mode);
        if (opened.ok()) {
          handle_ = *opened;
          handle_open_ = true;
        } else {
          result_ = opened.status();
        }
        break;
      }
      case PlanOpKind::kSeek:
        result_ = endpoint.seek(timeline, handle_, op.offset);
        break;
      case PlanOpKind::kRead: {
        std::span<std::byte> dst =
            op.scratch
                ? std::span<std::byte>(scratch_).subspan(op.offset, op.bytes)
                : out_.subspan(op.buf_offset, op.bytes);
        result_ = endpoint.read(timeline, handle_, dst);
        break;
      }
      case PlanOpKind::kWrite: {
        std::span<const std::byte> src =
            op.scratch ? std::span<const std::byte>(scratch_).subspan(
                             op.offset, op.bytes)
                       : in_.subspan(op.buf_offset, op.bytes);
        result_ = endpoint.write(timeline, handle_, src);
        break;
      }
      case PlanOpKind::kReadv:
        result_ = endpoint.readv(timeline, handle_, op.run_list,
                                 out_.subspan(op.buf_offset, op.bytes));
        break;
      case PlanOpKind::kWritev:
        result_ = endpoint.writev(timeline, handle_, op.run_list,
                                  in_.subspan(op.buf_offset, op.bytes));
        break;
      case PlanOpKind::kClose:
        handle_open_ = false;
        result_ = endpoint.close(timeline, handle_);
        break;
      case PlanOpKind::kDisconnect:
        connected_ = false;
        result_ = endpoint.disconnect(timeline);
        break;
      case PlanOpKind::kCopyIn:
        std::memcpy(scratch_.data() + op.offset, in_.data() + op.buf_offset,
                    op.bytes);
        break;
      case PlanOpKind::kCopyOut:
        std::memcpy(out_.data() + op.buf_offset, scratch_.data() + op.offset,
                    op.bytes);
        break;
    }
  }
  return result_;
}

// ------------------------------------------------------------ PlanExecutor --

Status PlanExecutor::execute(const IoPlan& plan, StorageEndpoint& endpoint,
                             simkit::Timeline& timeline,
                             std::span<std::byte> out,
                             std::span<const std::byte> in,
                             obs::TraceRecorder* tracer) {
  PlanCursor cursor(plan, endpoint, timeline, out, in, tracer);
  while (!cursor.done()) (void)cursor.step();
  return cursor.status();
}

}  // namespace msra::runtime
