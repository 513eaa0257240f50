// IoPlan: the explicit intermediate representation of one logical access.
//
// Every read/write the architecture performs — a sieved visualization
// slice, a two-phase collective dump, a chunked subfile fetch — lowers to
// the same IR: an ordered list of per-endpoint operations
// (connect/open/seek/read/write/readv/writev/close/disconnect) grouped
// into labelled stages, plus memory-copy and exchange annotations. One
// PlanExecutor runs the plan against any StorageEndpoint; the predictor
// prices the very same plan against PerfDb curves (Eq. 2 becomes "sum of
// priced plans"); `msractl explain` prints it. A single code path computes
// the operation sequence, so execution, prediction, and explanation can
// never drift apart.
//
// Lowering passes compose in a fixed order, mirroring the run-time
// optimization libraries: block-distribution run enumeration -> collective
// aggregation (the exchange legs stay in prt::Comm; the I/O legs lower
// here) -> data sieving -> subfile chunk mapping -> fast-path vectorization
// (run list folded into one kReadv/kWritev op). Pipelined bulk transfer
// stays below the IR — it is how an endpoint serves one kRead/kWrite — and
// is carried as a plan annotation for pricing only.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "prt/dist.h"
#include "runtime/parallel_io.h"
#include "runtime/sieve.h"
#include "simkit/qos.h"

namespace msra::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace msra::obs

namespace msra::runtime {

class SubfileLayout;

/// Direction of the logical access (selects the PerfDb cost tables).
enum class PlanDir : std::uint8_t { kRead, kWrite };

/// One endpoint primitive (or memory/exchange step) in a lowered plan.
enum class PlanOpKind : std::uint8_t {
  kConnect,     ///< endpoint connect (Tconn)
  kOpen,        ///< open `path` with `mode` (Topen)
  kSeek,        ///< position to byte `offset` (Tseek)
  kRead,        ///< transfer `bytes` into the user or scratch buffer (Trw)
  kWrite,       ///< transfer `bytes` from the user or scratch buffer (Trw)
  kReadv,       ///< one vectored call carrying `run_list` (fast path)
  kWritev,      ///< one vectored call carrying `run_list` (fast path)
  kClose,       ///< close the open handle (Tclose)
  kDisconnect,  ///< endpoint disconnect (Tconnclose)
  kCopyIn,      ///< memcpy user buffer -> scratch (free: no virtual time)
  kCopyOut,     ///< memcpy scratch -> user buffer (free: no virtual time)
};

struct PlanOp {
  PlanOpKind kind = PlanOpKind::kRead;
  std::uint64_t offset = 0;      ///< kSeek: file offset; kCopy*: scratch offset
  std::uint64_t bytes = 0;       ///< payload (kReadv/kWritev: run-list total)
  std::uint64_t buf_offset = 0;  ///< byte offset into the user buffer
  bool scratch = false;          ///< kRead/kWrite target the scratch buffer
  /// kReadv/kWritev: the concrete run list. Homogenized pricing plans leave
  /// it empty and carry only `run_count`.
  std::vector<srb::IoRun> run_list;
  std::uint64_t run_count = 1;  ///< number of runs a vectored call carries
  std::string path;             ///< kOpen only
  srb::OpenMode mode = srb::OpenMode::kRead;

  std::uint64_t runs() const {
    return run_list.empty() ? run_count : run_list.size();
  }
};

/// Stage role — drives the explain tree and lets the predictor find the
/// per-call session of a homogenized plan.
enum class PlanStageKind : std::uint8_t {
  kSetup,     ///< connect/open leg
  kIo,        ///< seek/read/write/readv/writev payload leg
  kCopy,      ///< pure in-memory packing/extraction
  kTeardown,  ///< close/disconnect leg
  kExchange,  ///< inter-rank communication annotation (never executed)
  kSession,   ///< one whole native-call session of a homogenized plan
};

struct PlanStage {
  PlanStageKind kind = PlanStageKind::kIo;
  std::string label;
  /// How many times this stage repeats per dump (homogenized pricing plans
  /// fold `n(j)` identical sessions into one stage with repeat = n(j);
  /// executable plans always use 1 and materialize every op).
  std::uint64_t repeat = 1;
  std::uint64_t exchange_bytes = 0;  ///< kExchange: bytes shuffled between ranks
  /// Data-sieving accounting: when extent > 0 the executor bills
  /// sieve.extent_bytes / sieve.useful_bytes / sieve.accesses counters.
  std::uint64_t sieve_extent_bytes = 0;
  std::uint64_t sieve_useful_bytes = 0;
  std::vector<PlanOp> ops;
};

/// A lowered logical access. Strategy annotations record which passes ran;
/// the op list alone determines execution.
struct IoPlan {
  PlanDir dir = PlanDir::kRead;
  AccessStrategy strategy = AccessStrategy::kDirect;
  IoMethod method = IoMethod::kNaive;
  bool vectored = false;   ///< run lists folded into kReadv/kWritev calls
  bool pipelined = false;  ///< bulk transfers priced off the pipelined curve
  bool pooled = false;     ///< connection setup billed once, not per session
  std::uint64_t scratch_bytes = 0;  ///< executor-owned staging buffer size
  std::vector<PlanStage> stages;

  /// First kSession stage (homogenized plans), or nullptr.
  const PlanStage* session_stage() const;

  /// Native calls per dump: session repeat for homogenized plans, the
  /// number of kRead/kWrite/kReadv/kWritev ops for executable plans.
  std::uint64_t calls_per_dump() const;

  /// Bytes of one native call (the first transfer op of the session stage,
  /// or of the whole plan).
  std::uint64_t call_bytes() const;

  /// Runs carried by one native call (> 1 only for vectored calls).
  std::uint64_t runs_per_call() const;
};

/// Knobs for homogenized pricing plans; mirrors srb::FastPathConfig on the
/// execution side (and predict::FastPathAssumptions above).
struct PlanAssumptions {
  bool vectored_rpc = false;
  bool pipelined = false;
  bool pooled_connections = false;
};

/// Lowers logical accesses to IoPlans. All builders are pure: they touch
/// no endpoint and advance no virtual time.
class PlanBuilder {
 public:
  // ---------------------------------------------------- serial sub-array --
  /// One rank's strided box read/write against a single stored object.
  /// `vectored` folds the run list into one kReadv/kWritev (the caller
  /// passes endpoint.fast_path().vectored_rpc). `buffer_bytes` must equal
  /// box.volume() * spec.elem_size.
  static StatusOr<IoPlan> subarray_read(const GlobalArraySpec& spec,
                                        const prt::LocalBox& box,
                                        const std::string& path,
                                        AccessStrategy strategy, bool vectored,
                                        std::size_t buffer_bytes);
  static StatusOr<IoPlan> subarray_write(const GlobalArraySpec& spec,
                                         const prt::LocalBox& box,
                                         const std::string& path,
                                         AccessStrategy strategy, bool vectored,
                                         std::size_t buffer_bytes);

  // --------------------------------------------------------- subfile grid --
  /// Read of `box` touching only intersecting chunk objects under `base`.
  static StatusOr<IoPlan> subfile_read(const SubfileLayout& layout,
                                       const prt::LocalBox& box,
                                       const std::string& base,
                                       std::size_t buffer_bytes);
  /// Write of a whole global array as one chunk object per grid cell.
  static StatusOr<IoPlan> subfile_write(const SubfileLayout& layout,
                                        const std::string& base,
                                        std::size_t buffer_bytes);

  // -------------------------------------------------------- whole objects --
  /// Sequential whole-object transfer (collective root leg, read_whole,
  /// replication streams).
  static IoPlan object_read(const std::string& path, std::uint64_t bytes);
  static IoPlan object_write(const std::string& path, std::uint64_t bytes,
                             srb::OpenMode mode);
  /// Create/truncate an object without payload (naive/multi-aggregator
  /// establish leg).
  static IoPlan object_establish(const std::string& path, srb::OpenMode mode);
  /// Whole-object read inside an existing connection (superfile reader leg:
  /// the caller manages connect/size/disconnect around the plan, because the
  /// payload size comes from a stat on the same connection). The plan has no
  /// kConnect, so the executor issues no trailing disconnect either.
  static IoPlan connected_object_read(const std::string& path,
                                      std::uint64_t bytes);

  // -------------------------------------------------- parallel I/O legs --
  /// One rank's leg of a naive parallel access: a session covering its
  /// contiguous runs (optionally vectored into a single call).
  static IoPlan rank_runs(const ArrayLayout& layout, int rank,
                          const std::string& path, PlanDir dir,
                          srb::OpenMode mode, bool vectored);
  /// One aggregator's leg of multi-aggregator two-phase I/O: seek to its
  /// contiguous file range and transfer it in one call.
  static IoPlan range_io(const std::string& path, std::uint64_t offset_bytes,
                         std::uint64_t bytes, PlanDir dir, srb::OpenMode mode);

  // ------------------------------------------------- dataset-level entry --
  /// DatasetHandle::read_box dispatch: subfile-chunked datasets lower to a
  /// chunk plan, everything else to a sub-array plan.
  static StatusOr<IoPlan> dataset_read_box(const GlobalArraySpec& spec,
                                           const std::array<int, 3>& chunks,
                                           const prt::LocalBox& box,
                                           const std::string& path,
                                           AccessStrategy strategy,
                                           bool vectored,
                                           std::size_t buffer_bytes);

  // ------------------------------------------------------- pricing plans --
  /// Homogenized per-dump plan of a dataset: the operation sequence one
  /// dump issues, with identical sessions folded into a repeat count. This
  /// is what the predictor prices (n(j) = session repeat, s = call bytes)
  /// and `msractl explain` prints; assumptions reshape it exactly like the
  /// fast path reshapes execution.
  static StatusOr<IoPlan> dataset_dump(const ArrayLayout& layout,
                                       IoMethod method, int aggregators,
                                       PlanDir dir,
                                       const PlanAssumptions& assumptions = {});
};

/// Resumable execution of a lowered plan: one step() runs one stage, so a
/// cooperative actor can yield between stages instead of blocking a host
/// thread for the whole plan. The cursor owns the open-endpoint state a
/// stage leaves behind (live connection, open handle, scratch buffer) plus
/// the plan position, and running a plan to completion via step() performs
/// exactly the op sequence — and error semantics — of
/// PlanExecutor::execute, which is itself implemented as a cursor drain.
///
/// The referenced plan, endpoint, timeline and buffers must outlive the
/// cursor. Movable, not copyable.
class PlanCursor {
 public:
  /// `out` receives kRead/kCopyOut payloads (read plans); `in` feeds
  /// kWrite/kCopyIn payloads (write plans). Either may be empty when the
  /// plan does not reference it.
  PlanCursor(const IoPlan& plan, StorageEndpoint& endpoint,
             simkit::Timeline& timeline, std::span<std::byte> out,
             std::span<const std::byte> in,
             obs::TraceRecorder* tracer = nullptr);

  PlanCursor(PlanCursor&&) = default;
  PlanCursor& operator=(PlanCursor&&) = default;

  /// All stages have run; status() is the final result.
  bool done() const { return stage_ >= plan_->stages.size(); }

  /// Index of the next stage step() will run.
  std::size_t next_stage() const { return stage_; }

  /// Runs the next stage and returns the running first-error status. After
  /// an error, remaining stages still step through their teardown of live
  /// state (matching one-shot execution); kExchange stages are annotations
  /// and consume a step without work.
  Status step();

  /// Running first-error status (the final result once done()).
  Status status() const { return result_; }

  /// Books every remaining stage under `tag`: step() enters a QosScope
  /// around the stage, so the device layer sees the tenant's class even
  /// when the cursor is driven from another host thread. The tag a fleet
  /// actor resolved at lowering time rides the cursor — the propagation
  /// path from TenantClass down to Resource::acquire.
  void set_qos(const simkit::QosTag& tag) { qos_ = tag; }

 private:
  const IoPlan* plan_;
  StorageEndpoint* endpoint_;
  simkit::Timeline* timeline_;
  std::span<std::byte> out_;
  std::span<const std::byte> in_;
  obs::TraceRecorder* tracer_;
  obs::MetricsRegistry* registry_;
  bool metered_;
  std::vector<std::byte> scratch_;
  std::size_t stage_ = 0;
  bool connected_ = false;
  bool handle_open_ = false;
  HandleId handle_{};
  Status result_ = Status::Ok();
  std::optional<simkit::QosTag> qos_;
};

/// Executes a lowered plan against an endpoint. The executor issues exactly
/// the primitive sequence the pre-IR code issued, including its error
/// semantics: the first failing op wins; once an error occurred the only
/// ops still executed are the kClose matching an open handle and the
/// kDisconnect matching a live connection (their own errors are dropped —
/// exactly FileSession teardown). Per-stage spans are recorded into
/// `tracer` (if any) and per-stage counters into the endpoint's registry;
/// neither advances virtual time.
class PlanExecutor {
 public:
  /// `out` receives kRead/kCopyOut payloads (read plans); `in` feeds
  /// kWrite/kCopyIn payloads (write plans). Either may be empty when the
  /// plan does not reference it. Equivalent to draining a PlanCursor.
  static Status execute(const IoPlan& plan, StorageEndpoint& endpoint,
                        simkit::Timeline& timeline, std::span<std::byte> out,
                        std::span<const std::byte> in,
                        obs::TraceRecorder* tracer = nullptr);
};

}  // namespace msra::runtime
