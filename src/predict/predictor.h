// The I/O performance prediction algorithm (section 4.2).
//
// Equation (1): the cost of one native I/O call of size s is
//     T(s) = Tconn + Topen + Tseek + Trw(s) + Tclose + Tconnclose
// with every component looked up in the performance database.
//
// Equation (2): the total I/O time of a run is
//     T_pred = sum_j (N / freq(j) + 1) * n(j) * t_j(s)
// where n(j) is the number of native calls the chosen optimization issues
// per dump and s the size of each call — both derived from the dataset's
// access pattern and I/O method, exactly as the API would execute them.
#pragma once

#include <string>
#include <vector>

#include "core/dataset.h"
#include "predict/perfdb.h"
#include "runtime/plan.h"

namespace msra::predict {

/// Prediction for one dataset over a full run.
struct DatasetPrediction {
  std::string name;
  core::Location location = core::Location::kRemoteTape;
  std::uint64_t dumps = 0;           ///< N/freq + 1
  std::uint64_t calls_per_dump = 0;  ///< n(j)
  std::uint64_t call_bytes = 0;      ///< s
  double call_time = 0.0;            ///< t_j(s), Equation (1)
  /// One-time connection setup + teardown billed outside the per-call cost
  /// (nonzero only under the pooled-connections assumption).
  double connection_time = 0.0;
  double total = 0.0;                ///< dumps * n(j) * t_j(s) [+ conn once]
};

/// Which fast-path optimizations the predicted workload runs with; mirrors
/// srb::FastPathConfig on the execution side.
struct FastPathAssumptions {
  /// Naive strided I/O batches each rank's run list into one vectored RPC.
  bool vectored_rpc = false;
  /// Bulk transfers follow the serial or the pipelined cost curve.
  TransferMode transfer = TransferMode::kSerial;
  /// Tconn/Tconnclose are paid once per run, not once per call.
  bool pooled_connections = false;
};

/// The load the priced client shares its storage resources with. The
/// default (1 client, no background utilization) reproduces the dedicated
/// prediction exactly.
struct LoadAssumptions {
  /// Concurrent clients (including the priced one) issuing the same kind
  /// of work against the resource. Fractional values interpolate between
  /// PTool's measured 2/4/8 contended levels.
  double clients = 1.0;
  /// Observed background utilization of the resource in [0, 1) *beyond*
  /// the modeled clients (e.g. from `Resource::utilization()`), applied as
  /// the classic open-queueing inflation 1/(1 - u) on top of the
  /// client-level times.
  double utilization = 0.0;

  bool dedicated() const { return clients <= 1.0 && utilization <= 0.0; }

  /// Analytic fallback when no contended measurements exist: `clients`
  /// tenants time-sharing a saturated serial device each see their service
  /// stretched by the full client count (processor sharing, steady state).
  double client_inflation() const { return clients <= 1.0 ? 1.0 : clients; }
  /// 1 / (1 - u), with u clamped to 0.95 so a saturated reading stays
  /// finite.
  double utilization_inflation() const;
};

/// The mid-tier read cache the priced workload runs behind (src/cache/).
/// `hit_ratio` is the expected fraction of read calls served from the
/// cache's memory tier; every read-direction Eq. (1) term is then blended
/// as (1 - h) * origin + h * cache, with the cache-side terms looked up in
/// the perf_cache_* tables PTool's cache probe populates. The default (no
/// cache) prices bit-identically to the cache-less predictor; write
/// directions never blend (the cache is read-only, write-through
/// invalidated).
struct CacheAssumptions {
  double hit_ratio = 0.0;  ///< expected hit fraction in [0, 1]

  bool off() const { return hit_ratio <= 0.0; }
};

/// Prediction for a whole run (the Fig. 11 table).
struct RunPrediction {
  std::vector<DatasetPrediction> datasets;
  double total = 0.0;
};

/// One placed plan of a larger whole (a campaign stage's access): the unit
/// the DAG pricing entry point sums. `location` is where the plan's bytes
/// live — for a campaign read that is where the producer's output WILL
/// live, which is exactly the cross-stage staleness Eq. (2) must see.
struct PlacedPlan {
  runtime::IoPlan plan;
  core::Location location = core::Location::kRemoteTape;
  LoadAssumptions load{};
};

/// Priced view of one plan stage (the `msractl explain` tree rows).
struct StagePrice {
  std::string label;
  runtime::PlanStageKind kind = runtime::PlanStageKind::kIo;
  std::uint64_t repeat = 1;   ///< stage multiplicity in the plan
  double seconds = 0.0;       ///< Eq. (1) cost of ONE execution of the stage
};

class Predictor {
 public:
  explicit Predictor(const PerfDb* db) : db_(db) {}

  /// Equation (1): one native call of `bytes` on `location`. `mode` prices
  /// the rw term off the requested curve, falling back to the serial curve
  /// when no pipelined measurements exist for the location. Under `load`,
  /// the rw and fixed terms come from the measured contended curves at
  /// `load.clients` (analytic inflation when unmeasured), then scale by the
  /// background-utilization factor. Behind `cache`, read-direction terms
  /// blend with the measured cache tier at `cache.hit_ratio` (see
  /// CacheAssumptions). The defaults price the dedicated, cache-less call.
  StatusOr<double> call_time(core::Location location, IoOp op,
                             std::uint64_t bytes,
                             TransferMode mode = TransferMode::kSerial,
                             const LoadAssumptions& load = {},
                             const CacheAssumptions& cache = {}) const;

  /// Cost of one vectored call carrying `runs` runs of `total_bytes`
  /// altogether: the Eq. (1) fixed terms once (minus Tseek — a vectored
  /// call issues no seek RPCs), the rw term for the total payload, plus
  /// (runs - 1) times the measured per-run batch overhead.
  StatusOr<double> batched_call_time(core::Location location, IoOp op,
                                     std::uint64_t runs,
                                     std::uint64_t total_bytes,
                                     TransferMode mode) const;

  /// Prices one execution of a lowered plan: every op is billed with its
  /// Eq. (1) component off the PerfDb curves (vectored calls use the batch
  /// overhead, pipelined plans the pipelined rw curve), each stage
  /// multiplied by its repeat count. Exchange and in-memory copy steps are
  /// free. This walks the SAME IoPlan the PlanExecutor runs — Eq. (2) is
  /// "sum of priced plans". Every Eq. (1) term is looked up / inflated
  /// under `load`, and read-direction stages blend at `cache.hit_ratio`;
  /// the defaults price the dedicated, cache-less plan.
  StatusOr<double> price(const runtime::IoPlan& plan, core::Location location,
                         const LoadAssumptions& load = {},
                         const CacheAssumptions& cache = {}) const;

  /// Per-stage breakdown of the same walk (seconds are per single
  /// execution; multiply by `repeat` for the stage's share).
  StatusOr<std::vector<StagePrice>> price_stages(
      const runtime::IoPlan& plan, core::Location location,
      const LoadAssumptions& load = {},
      const CacheAssumptions& cache = {}) const;

  /// DAG pricing entry point: extends Eq. (2) from one dataset to a placed
  /// sequence — the summed price of every plan at its placement, i.e. one
  /// campaign stage executing its accesses serially on one clock.
  /// flow::CampaignPricer calls this per stage, then chains stage totals
  /// along the DAG to schedule earliest starts and the critical path.
  StatusOr<double> price_serial(const std::vector<PlacedPlan>& plans) const;

  /// Per-dataset prediction for an `iterations`-long run on `nprocs` ranks.
  /// `op` selects the producer (write) or consumer (read) direction. The
  /// default-constructed assumptions (classic call shapes, dedicated
  /// resources, no cache) reproduce the classic prediction exactly.
  StatusOr<DatasetPrediction> predict_dataset(
      const core::DatasetDesc& desc, core::Location resolved, int iterations,
      int nprocs, IoOp op, const FastPathAssumptions& fast = {},
      const LoadAssumptions& load = {},
      const CacheAssumptions& cache = {}) const;

  /// Equation (2) over a set of datasets (by default the write direction:
  /// the producer run).
  StatusOr<RunPrediction> predict_run(
      const std::vector<std::pair<core::DatasetDesc, core::Location>>& datasets,
      int iterations, int nprocs, IoOp op = IoOp::kWrite,
      const LoadAssumptions& load = {},
      const CacheAssumptions& cache = {}) const;

 private:
  /// Eq. (1) fixed terms under `load`: measured contended table when
  /// present, analytic inflation otherwise, always times the background
  /// utilization factor.
  StatusOr<FixedCosts> loaded_fixed(core::Location location, IoOp op,
                                    const LoadAssumptions& load) const;
  /// Eq. (1) rw term under `load` (same preference order).
  StatusOr<double> loaded_rw(core::Location location, IoOp op,
                             std::uint64_t bytes, TransferMode mode,
                             const LoadAssumptions& load) const;

  /// Sums the Eq. (1) terms of one stage's ops, in op order; read-direction
  /// terms blend with the cache tier at `cache.hit_ratio` when set.
  StatusOr<double> price_stage(core::Location location, IoOp op,
                               TransferMode mode,
                               const runtime::PlanStage& stage,
                               const LoadAssumptions& load,
                               const CacheAssumptions& cache) const;

  const PerfDb* db_;
};

}  // namespace msra::predict
