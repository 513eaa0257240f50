#include "predict/predictor.h"

#include <algorithm>

#include "runtime/plan.h"

namespace msra::predict {

namespace {
/// rw term off the requested curve, falling back to the serial curve when
/// the pipelined one has no measurements for this location.
StatusOr<double> transfer_term(const PerfDb* db, core::Location location,
                               IoOp op, std::uint64_t bytes,
                               TransferMode mode) {
  if (mode == TransferMode::kPipelined) {
    auto fast = db->rw_time(location, op, bytes, TransferMode::kPipelined);
    if (fast.ok()) return fast;
  }
  return db->rw_time(location, op, bytes);
}
}  // namespace

double LoadAssumptions::utilization_inflation() const {
  const double u = std::clamp(utilization, 0.0, 0.95);
  return 1.0 / (1.0 - u);
}

StatusOr<FixedCosts> Predictor::loaded_fixed(core::Location location, IoOp op,
                                             const LoadAssumptions& load) const {
  // The dedicated path goes straight to the classic table so default-load
  // pricing is bit-identical to the pre-load predictor.
  if (load.dedicated()) return db_->fixed(location, op);
  FixedCosts base;
  bool measured = false;
  if (load.clients > 1.0) {
    auto contended = db_->contended_fixed(location, op, load.clients);
    if (contended.ok()) {
      base = *contended;
      measured = true;
    }
  }
  if (!measured) {
    MSRA_ASSIGN_OR_RETURN(base, db_->fixed(location, op));
    const double inflation = load.client_inflation();
    base.conn *= inflation;
    base.open *= inflation;
    base.seek *= inflation;
    base.close *= inflation;
    base.connclose *= inflation;
  }
  const double util = load.utilization_inflation();
  base.conn *= util;
  base.open *= util;
  base.seek *= util;
  base.close *= util;
  base.connclose *= util;
  return base;
}

StatusOr<double> Predictor::loaded_rw(core::Location location, IoOp op,
                                      std::uint64_t bytes, TransferMode mode,
                                      const LoadAssumptions& load) const {
  if (load.dedicated()) return transfer_term(db_, location, op, bytes, mode);
  double t = 0.0;
  bool measured = false;
  // Contended measurements are taken through the classic (serial) transfer
  // path; a pipelined plan under load falls back to analytic inflation.
  if (load.clients > 1.0 && mode == TransferMode::kSerial) {
    auto contended = db_->contended_rw_time(location, op, load.clients, bytes);
    if (contended.ok()) {
      t = *contended;
      measured = true;
    }
  }
  if (!measured) {
    MSRA_ASSIGN_OR_RETURN(t, transfer_term(db_, location, op, bytes, mode));
    t *= load.client_inflation();
  }
  return t * load.utilization_inflation();
}

StatusOr<double> Predictor::call_time(core::Location location, IoOp op,
                                      std::uint64_t bytes, TransferMode mode,
                                      const LoadAssumptions& load,
                                      const CacheAssumptions& cache) const {
  MSRA_ASSIGN_OR_RETURN(FixedCosts costs, loaded_fixed(location, op, load));
  MSRA_ASSIGN_OR_RETURN(double rw, loaded_rw(location, op, bytes, mode, load));
  const double origin = costs.conn + costs.open + costs.seek + rw +
                        costs.close + costs.connclose;
  if (op != IoOp::kRead || cache.off()) return origin;
  // Cache-aware blend: a fraction h of read calls never leave the node —
  // they pay the cache tier's Eq. (1) instead of the origin's.
  MSRA_ASSIGN_OR_RETURN(FixedCosts hit_costs, db_->cache_fixed(op));
  MSRA_ASSIGN_OR_RETURN(double hit_rw, db_->cache_rw_time(op, bytes));
  const double hit = hit_costs.conn + hit_costs.open + hit_costs.seek +
                     hit_rw + hit_costs.close + hit_costs.connclose;
  const double h = std::min(cache.hit_ratio, 1.0);
  return (1.0 - h) * origin + h * hit;
}

StatusOr<double> Predictor::batched_call_time(core::Location location, IoOp op,
                                              std::uint64_t runs,
                                              std::uint64_t total_bytes,
                                              TransferMode mode) const {
  MSRA_ASSIGN_OR_RETURN(FixedCosts costs, db_->fixed(location, op));
  MSRA_ASSIGN_OR_RETURN(double rw,
                        transfer_term(db_, location, op, total_bytes, mode));
  double extra = 0.0;
  if (runs > 1) {
    MSRA_ASSIGN_OR_RETURN(double per_run, db_->batch_overhead(location, op));
    extra = static_cast<double>(runs - 1) * per_run;
  }
  // No Tseek term: a vectored call issues no seek RPCs — positioning costs
  // are what the measured per-run batch overhead captures.
  return costs.conn + costs.open + rw + extra + costs.close + costs.connclose;
}

StatusOr<double> Predictor::price_stage(core::Location location, IoOp op,
                                        TransferMode mode,
                                        const runtime::PlanStage& stage,
                                        const LoadAssumptions& load,
                                        const CacheAssumptions& cache) const {
  MSRA_ASSIGN_OR_RETURN(FixedCosts costs, loaded_fixed(location, op, load));
  // Cache-aware blend: in the read direction, a fraction h of every Eq. (1)
  // term is served by the cache tier instead of the origin. Write-direction
  // stages never blend — the cache is read-only.
  const bool blended = op == IoOp::kRead && !cache.off();
  const double h = blended ? std::min(cache.hit_ratio, 1.0) : 0.0;
  FixedCosts hit_costs;
  if (blended) {
    MSRA_ASSIGN_OR_RETURN(hit_costs, db_->cache_fixed(op));
  }
  const auto mix = [h](double origin, double hit) {
    return (1.0 - h) * origin + h * hit;
  };
  double sum = 0.0;
  for (const runtime::PlanOp& planned : stage.ops) {
    switch (planned.kind) {
      case runtime::PlanOpKind::kConnect:
        sum += mix(costs.conn, hit_costs.conn);
        break;
      case runtime::PlanOpKind::kOpen:
        sum += mix(costs.open, hit_costs.open);
        break;
      case runtime::PlanOpKind::kSeek:
        sum += mix(costs.seek, hit_costs.seek);
        break;
      case runtime::PlanOpKind::kRead:
      case runtime::PlanOpKind::kWrite: {
        MSRA_ASSIGN_OR_RETURN(
            double rw, loaded_rw(location, op, planned.bytes, mode, load));
        if (blended && planned.kind == runtime::PlanOpKind::kRead) {
          MSRA_ASSIGN_OR_RETURN(double hit_rw,
                                db_->cache_rw_time(op, planned.bytes));
          sum += mix(rw, hit_rw);
        } else {
          sum += rw;
        }
        break;
      }
      case runtime::PlanOpKind::kReadv:
      case runtime::PlanOpKind::kWritev: {
        // No Tseek term: a vectored call issues no seek RPCs — positioning
        // costs are what the measured per-run batch overhead captures.
        MSRA_ASSIGN_OR_RETURN(
            double rw, loaded_rw(location, op, planned.bytes, mode, load));
        double origin = rw;
        if (planned.runs() > 1) {
          MSRA_ASSIGN_OR_RETURN(double per_run,
                                db_->batch_overhead(location, op));
          if (!load.dedicated()) {
            // No contended batch table: the marginal per-run cost inflates
            // analytically like any other queued service.
            per_run *= load.client_inflation() * load.utilization_inflation();
          }
          origin += static_cast<double>(planned.runs() - 1) * per_run;
        }
        if (blended && planned.kind == runtime::PlanOpKind::kReadv) {
          // Hit side: a vectored request against resident memory degenerates
          // to positioned copies — the payload off the cache curve plus one
          // cache seek per extra run.
          MSRA_ASSIGN_OR_RETURN(double hit_rw,
                                db_->cache_rw_time(op, planned.bytes));
          if (planned.runs() > 1) {
            hit_rw +=
                static_cast<double>(planned.runs() - 1) * hit_costs.seek;
          }
          sum += mix(origin, hit_rw);
        } else {
          sum += origin;
        }
        break;
      }
      case runtime::PlanOpKind::kClose:
        sum += mix(costs.close, hit_costs.close);
        break;
      case runtime::PlanOpKind::kDisconnect:
        sum += mix(costs.connclose, hit_costs.connclose);
        break;
      case runtime::PlanOpKind::kCopyIn:
      case runtime::PlanOpKind::kCopyOut:
        break;  // in-memory: free
    }
  }
  return sum;
}

StatusOr<std::vector<StagePrice>> Predictor::price_stages(
    const runtime::IoPlan& plan, core::Location location,
    const LoadAssumptions& load, const CacheAssumptions& cache) const {
  const IoOp op =
      plan.dir == runtime::PlanDir::kWrite ? IoOp::kWrite : IoOp::kRead;
  const TransferMode mode =
      plan.pipelined ? TransferMode::kPipelined : TransferMode::kSerial;
  std::vector<StagePrice> out;
  out.reserve(plan.stages.size());
  for (const runtime::PlanStage& stage : plan.stages) {
    StagePrice price;
    price.label = stage.label;
    price.kind = stage.kind;
    price.repeat = stage.repeat;
    if (stage.kind != runtime::PlanStageKind::kExchange) {
      MSRA_ASSIGN_OR_RETURN(
          price.seconds, price_stage(location, op, mode, stage, load, cache));
    }
    out.push_back(std::move(price));
  }
  return out;
}

StatusOr<double> Predictor::price(const runtime::IoPlan& plan,
                                  core::Location location,
                                  const LoadAssumptions& load,
                                  const CacheAssumptions& cache) const {
  MSRA_ASSIGN_OR_RETURN(std::vector<StagePrice> stages,
                        price_stages(plan, location, load, cache));
  double total = 0.0;
  for (const StagePrice& stage : stages) {
    total += static_cast<double>(stage.repeat) * stage.seconds;
  }
  return total;
}

StatusOr<double> Predictor::price_serial(
    const std::vector<PlacedPlan>& plans) const {
  double total = 0.0;
  for (const PlacedPlan& placed : plans) {
    MSRA_ASSIGN_OR_RETURN(double seconds,
                          price(placed.plan, placed.location, placed.load));
    total += seconds;
  }
  return total;
}

StatusOr<DatasetPrediction> Predictor::predict_dataset(
    const core::DatasetDesc& desc, core::Location resolved, int iterations,
    int nprocs, IoOp op, const FastPathAssumptions& fast,
    const LoadAssumptions& load, const CacheAssumptions& cache) const {
  DatasetPrediction out;
  out.name = desc.name;
  out.location = resolved;
  if (resolved == core::Location::kDisable ||
      desc.location == core::Location::kDisable) {
    out.location = core::Location::kDisable;
    return out;  // never dumped: zero cost
  }
  MSRA_ASSIGN_OR_RETURN(
      prt::Decomposition decomp,
      prt::Decomposition::create(desc.dims, nprocs, desc.pattern));
  runtime::ArrayLayout layout{decomp, element_size(desc.etype)};
  // Lower the dataset's per-dump access to the same plan IR the runtime
  // executes, reshaped by the fast-path assumptions, and price that.
  runtime::PlanAssumptions assumptions;
  assumptions.vectored_rpc =
      fast.vectored_rpc && desc.method == runtime::IoMethod::kNaive;
  assumptions.pipelined = fast.transfer == TransferMode::kPipelined;
  assumptions.pooled_connections = fast.pooled_connections;
  const runtime::PlanDir dir =
      op == IoOp::kWrite ? runtime::PlanDir::kWrite : runtime::PlanDir::kRead;
  MSRA_ASSIGN_OR_RETURN(
      const runtime::IoPlan plan,
      runtime::PlanBuilder::dataset_dump(layout, desc.method, desc.aggregators,
                                         dir, assumptions));
  out.dumps = desc.dumps(iterations);
  out.calls_per_dump = plan.calls_per_dump();
  out.call_bytes = plan.call_bytes();
  const TransferMode mode =
      plan.pipelined ? TransferMode::kPipelined : TransferMode::kSerial;
  const runtime::PlanStage* session = plan.session_stage();
  if (session == nullptr) {
    return Status::Internal("dataset dump plan has no session stage");
  }
  // t_j(s) = Eq. (1) over the session's ops; under pooling the connection
  // legs live in separate setup/teardown stages billed once per run.
  MSRA_ASSIGN_OR_RETURN(out.call_time,
                        price_stage(resolved, op, mode, *session, load, cache));
  for (const runtime::PlanStage& stage : plan.stages) {
    if (stage.kind != runtime::PlanStageKind::kSetup &&
        stage.kind != runtime::PlanStageKind::kTeardown) {
      continue;
    }
    MSRA_ASSIGN_OR_RETURN(double seconds,
                          price_stage(resolved, op, mode, stage, load, cache));
    out.connection_time += seconds;
  }
  out.total = static_cast<double>(out.dumps) *
                  static_cast<double>(out.calls_per_dump) * out.call_time +
              out.connection_time;
  return out;
}

StatusOr<RunPrediction> Predictor::predict_run(
    const std::vector<std::pair<core::DatasetDesc, core::Location>>& datasets,
    int iterations, int nprocs, IoOp op, const LoadAssumptions& load,
    const CacheAssumptions& cache) const {
  RunPrediction out;
  for (const auto& [desc, resolved] : datasets) {
    MSRA_ASSIGN_OR_RETURN(
        DatasetPrediction prediction,
        predict_dataset(desc, resolved, iterations, nprocs, op,
                        FastPathAssumptions{}, load, cache));
    out.total += prediction.total;
    out.datasets.push_back(std::move(prediction));
  }
  return out;
}

}  // namespace msra::predict
