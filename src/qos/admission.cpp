#include "qos/admission.h"

#include <algorithm>
#include <cstdio>

#include "core/balancer.h"
#include "core/catalog.h"
#include "core/client.h"
#include "core/placement.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "predict/predictor.h"
#include "runtime/plan.h"

namespace msra::qos {

namespace {

/// Fixed class order (local > remote disk > tape), then server index — the
/// route a predictor-less session takes (Balancer::static_order).
core::ReplicaAddress static_first(
    const std::vector<core::ReplicaAddress>& candidates) {
  core::ReplicaAddress best = candidates.front();
  auto rank = [](core::Location location) {
    for (int i = 0; i < static_cast<int>(std::size(core::kConcreteLocations));
         ++i) {
      if (core::kConcreteLocations[i] == location) return i;
    }
    return static_cast<int>(std::size(core::kConcreteLocations));
  };
  for (const core::ReplicaAddress& address : candidates) {
    if (rank(address.location) < rank(best.location) ||
        (rank(address.location) == rank(best.location) &&
         address.server < best.server)) {
      best = address;
    }
  }
  return best;
}

}  // namespace

AdmissionController::AdmissionController(core::StorageSystem& system,
                                         const predict::Predictor* predictor,
                                         QosConfig config)
    : system_(system), predictor_(predictor), config_(config) {}

void AdmissionController::quote_intent(const core::Workload::IoIntent& intent,
                                       double now, double* cheapest,
                                       double* fixed) const {
  const core::MetaCatalog& catalog = system_.catalog();
  auto record = catalog.find_dataset(intent.dataset);
  if (!record.ok()) return;  // not registered yet: nothing to price

  // The completion quote of one candidate: its booked backlog (virtual
  // seconds until the most congested path device drains, relative to the
  // submitter's clock) plus the predictor's service quote inflated by the
  // live utilization — the balancer's earliest-finish math, reused as the
  // admission meter.
  const core::Balancer& balancer = system_.balancer();
  auto quote_at = [&](core::ReplicaAddress address,
                      const runtime::IoPlan& plan) {
    double seconds =
        std::max(0.0, balancer.backlog_seconds(address) - now);
    if (predictor_ != nullptr) {
      predict::LoadAssumptions load;
      load.utilization = balancer.observed_utilization(address);
      auto priced = predictor_->price(plan, address.location, load);
      if (priced.ok()) seconds += *priced;
    }
    return seconds;
  };

  if (intent.kind == core::Workload::IoIntent::Kind::kWrite) {
    // Writes target the dataset's resolved placement (sharded over the
    // cluster like DatasetHandle's own write address).
    core::Location location = record->resolved;
    if (location != core::Location::kLocalDisk &&
        location != core::Location::kRemoteDisk &&
        location != core::Location::kRemoteTape) {
      return;  // DISABLE/AUTO: nothing will be written
    }
    const int server =
        location == core::Location::kLocalDisk
            ? 0
            : core::shard_server(intent.dataset, location,
                                 system_.cluster_size());
    const core::ReplicaAddress address{location, server};
    const runtime::IoPlan plan = runtime::PlanBuilder::object_write(
        "qos/probe", record->desc.global_bytes(), srb::OpenMode::kOverwrite);
    const double quote = quote_at(address, plan);
    *cheapest += quote;
    *fixed += quote;
    return;
  }

  auto instance =
      catalog.instance(record->app, intent.dataset, intent.timestep);
  if (!instance.ok() || instance->replicas.empty()) return;
  std::vector<core::ReplicaAddress> live;
  for (core::ReplicaAddress address : instance->replicas) {
    if (system_.endpoint(address).available()) live.push_back(address);
  }
  if (live.empty()) return;  // the read will fail, not queue — admit
  const runtime::IoPlan plan =
      runtime::PlanBuilder::object_read(instance->path, instance->bytes);
  double best = -1.0;
  for (core::ReplicaAddress address : live) {
    const double quote = quote_at(address, plan);
    if (best < 0.0 || quote < best) best = quote;
  }
  *cheapest += best;
  *fixed += quote_at(static_first(live), plan);
}

AdmissionDecision AdmissionController::decide(const core::Workload& workload,
                                              TenantClass cls,
                                              double now) const {
  AdmissionDecision decision;
  decision.slo = config_.policy(cls).slo;
  if (decision.slo <= 0.0 || workload.intents().empty()) {
    decision.reason = "no SLO: admitted";
    return decision;
  }
  for (const core::Workload::IoIntent& intent : workload.intents()) {
    quote_intent(intent, now, &decision.quote, &decision.static_quote);
  }
  char buffer[160];
  if (decision.quote > decision.slo) {
    decision.outcome = AdmissionDecision::Outcome::kReject;
    std::snprintf(buffer, sizeof(buffer),
                  "quoted %.3fs exceeds the %s SLO of %.3fs on every route",
                  decision.quote,
                  std::string(tenant_class_name(cls)).c_str(), decision.slo);
    decision.reason = buffer;
    return decision;
  }
  if (decision.static_quote > decision.slo) {
    // Only the balancer's cheapest route meets the SLO: the home/static
    // site is priced out, so acceptance IS a redirect.
    decision.outcome = AdmissionDecision::Outcome::kRedirect;
    std::snprintf(buffer, sizeof(buffer),
                  "static route quotes %.3fs > SLO %.3fs; redirected to a "
                  "route quoting %.3fs",
                  decision.static_quote, decision.slo, decision.quote);
    decision.reason = buffer;
    return decision;
  }
  std::snprintf(buffer, sizeof(buffer), "quoted %.3fs within SLO %.3fs",
                decision.quote, decision.slo);
  decision.reason = buffer;
  return decision;
}

AdmissionDecision AdmissionController::decide_move(
    const std::string& path, std::uint64_t bytes, core::ReplicaAddress from,
    core::ReplicaAddress to, TenantClass cls, double now) const {
  AdmissionDecision decision;
  decision.slo = config_.policy(cls).slo;
  if (decision.slo <= 0.0) {
    decision.reason = "no SLO: staging admitted";
    return decision;
  }
  const core::Balancer& balancer = system_.balancer();
  decision.quote = std::max(
      {0.0, balancer.backlog_seconds(from) - now,
       balancer.backlog_seconds(to) - now});
  if (predictor_ != nullptr) {
    auto read = predictor_->price(
        runtime::PlanBuilder::object_read(path, bytes), from.location);
    auto write = predictor_->price(
        runtime::PlanBuilder::object_write(path, bytes,
                                           srb::OpenMode::kOverwrite),
        to.location);
    if (read.ok()) decision.quote += *read;
    if (write.ok()) decision.quote += *write;
  }
  decision.static_quote = decision.quote;  // a move has exactly one route
  obs::MetricsRegistry& metrics = system_.metrics();
  char buffer[160];
  if (decision.quote > decision.slo) {
    decision.outcome = AdmissionDecision::Outcome::kReject;
    std::snprintf(buffer, sizeof(buffer),
                  "staging move quotes %.3fs > %s SLO %.3fs", decision.quote,
                  std::string(tenant_class_name(cls)).c_str(), decision.slo);
    decision.reason = buffer;
    if (metrics.enabled()) {
      metrics.counter("qos.admission.staging_deferred")->increment();
    }
    return decision;
  }
  std::snprintf(buffer, sizeof(buffer),
                "staging move quoted %.3fs within SLO %.3fs", decision.quote,
                decision.slo);
  decision.reason = buffer;
  if (metrics.enabled()) {
    metrics.counter("qos.admission.staging_accepted")->increment();
  }
  return decision;
}

Status AdmissionController::admit(core::Client& client,
                                  const core::Workload& workload) {
  const TenantClass cls = workload.tenant_class().has_value()
                              ? *workload.tenant_class()
                              : client.session().options().tenant_class;
  const AdmissionDecision decision =
      decide(workload, cls, client.timeline().now());
  obs::MetricsRegistry& metrics = system_.metrics();
  if (metrics.enabled()) {
    metrics.histogram("qos.admission.quote")->record(decision.quote);
    // Both an aggregate and a per-class counter, so the stats table can
    // attribute verdicts while dashboards keep one number to watch.
    const std::string prefix =
        "qos.admission." + std::string(tenant_class_name(cls)) + ".";
    switch (decision.outcome) {
      case AdmissionDecision::Outcome::kAccept:
        metrics.counter("qos.admission.accepted")->increment();
        metrics.counter(prefix + "accepted")->increment();
        break;
      case AdmissionDecision::Outcome::kRedirect:
        metrics.counter("qos.admission.accepted")->increment();
        metrics.counter(prefix + "accepted")->increment();
        metrics.counter("qos.admission.redirected")->increment();
        metrics.counter(prefix + "redirected")->increment();
        break;
      case AdmissionDecision::Outcome::kReject:
        metrics.counter("qos.admission.rejected")->increment();
        metrics.counter(prefix + "rejected")->increment();
        break;
    }
  }
  if (decision.outcome == AdmissionDecision::Outcome::kReject) {
    return Status::ResourceExhausted(decision.reason);
  }
  return Status::Ok();
}

void AdmissionController::attach(core::Fleet& fleet) {
  fleet.set_admission([this](core::Client& client,
                             const core::Workload& workload) {
    return admit(client, workload);
  });
}

}  // namespace msra::qos
