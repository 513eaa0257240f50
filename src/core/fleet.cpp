#include "core/fleet.h"

#include <queue>
#include <utility>

#include "core/client.h"
#include "obs/metrics.h"

namespace msra::core {

// ---------------------------------------------------------- TenantContext --

Session& TenantContext::session() { return client_->session(); }

simkit::Timeline& TenantContext::timeline() { return client_->timeline(); }

StorageSystem& TenantContext::system() { return client_->session().system(); }

DatasetHandle* TenantContext::handle(const std::string& dataset) {
  return client_->session().find_handle(dataset);
}

// --------------------------------------------------------------- Workload --

namespace {

/// A step referenced a dataset with no open handle: distinguish "session
/// already gone" from "never opened" so the completion explains itself.
Status missing_handle(TenantContext& ctx, const std::string& dataset) {
  if (ctx.session().finalized()) {
    return Status::FailedPrecondition("session already finalized");
  }
  return Status::NotFound("dataset " + dataset + " not open in this session");
}

}  // namespace

Workload& Workload::tagged(std::string tag) {
  tag_ = std::move(tag);
  return *this;
}

Workload& Workload::classed(qos::TenantClass cls) {
  class_ = cls;
  return *this;
}

Workload& Workload::then(std::string label,
                         std::function<Status(TenantContext&)> fn) {
  Step step;
  step.label = std::move(label);
  step.fn = std::move(fn);
  steps_.push_back(std::move(step));
  return *this;
}

Workload& Workload::open(DatasetDesc desc) {
  std::string label = "open " + desc.name;
  return then(std::move(label), [desc = std::move(desc)](TenantContext& ctx) {
    return ctx.session().open(desc).status();
  });
}

Workload& Workload::open_existing(std::string dataset, OpenOptions options) {
  std::string label = "open_existing " + dataset;
  return then(std::move(label),
              [dataset = std::move(dataset),
               options = std::move(options)](TenantContext& ctx) {
                return ctx.session().open_existing(dataset, options).status();
              });
}

Workload& Workload::finalize() {
  return then("finalize",
              [](TenantContext& ctx) { return ctx.session().finalize(); });
}

Workload& Workload::dump(std::string dataset, int timestep) {
  intents_.push_back(
      IoIntent{IoIntent::Kind::kWrite, dataset, timestep});
  Step step;
  step.label = "dump " + dataset + "/t" + std::to_string(timestep);
  step.lower = [dataset, timestep](TenantContext& ctx,
                                   StagedIo& io) -> StatusOr<bool> {
    DatasetHandle* handle = ctx.handle(dataset);
    if (handle == nullptr) return missing_handle(ctx, dataset);
    if (!handle->enabled()) return false;  // DISABLE: not dumped at all
    MSRA_ASSIGN_OR_RETURN(io.access, handle->stage_dump(timestep));
    // The payload is a fill pattern: virtual time depends on its size only.
    io.in.assign(handle->desc().global_bytes(), std::byte{0});
    io.span_label = "write_timestep " + dataset;
    return true;
  };
  step.finish = [dataset, timestep](TenantContext& ctx) {
    DatasetHandle* handle = ctx.handle(dataset);
    if (handle == nullptr) return missing_handle(ctx, dataset);
    return handle->commit_dump(timestep, ctx.timeline().now());
  };
  steps_.push_back(std::move(step));
  return *this;
}

Workload& Workload::read_whole(std::string dataset, int timestep) {
  intents_.push_back(IoIntent{IoIntent::Kind::kRead, dataset, timestep});
  Step step;
  step.label = "read_whole " + dataset + "/t" + std::to_string(timestep);
  step.lower = [dataset, timestep](TenantContext& ctx,
                                   StagedIo& io) -> StatusOr<bool> {
    DatasetHandle* handle = ctx.handle(dataset);
    if (handle == nullptr) return missing_handle(ctx, dataset);
    MSRA_ASSIGN_OR_RETURN(io.access, handle->stage_read_whole(timestep));
    io.out.resize(handle->desc().global_bytes());
    return true;
  };
  steps_.push_back(std::move(step));
  return *this;
}

Workload& Workload::read_box(std::string dataset, int timestep,
                             prt::LocalBox box, ReadOptions options) {
  intents_.push_back(IoIntent{IoIntent::Kind::kRead, dataset, timestep});
  Step step;
  step.label = "read_box " + dataset + "/t" + std::to_string(timestep);
  step.lower = [dataset, timestep, box, options = std::move(options)](
                   TenantContext& ctx, StagedIo& io) -> StatusOr<bool> {
    if (options.timeline != nullptr) {
      return Status::InvalidArgument(
          "fleet actors run on their own clock (timeline override)");
    }
    DatasetHandle* handle = ctx.handle(dataset);
    if (handle == nullptr) return missing_handle(ctx, dataset);
    const std::size_t bytes =
        box.volume() * element_size(handle->desc().etype);
    MSRA_ASSIGN_OR_RETURN(io.access,
                          handle->stage_read_box(timestep, box, bytes, options));
    io.out.resize(bytes);
    io.span_label = options.trace_label.empty() ? "read_box " + dataset
                                                : options.trace_label;
    return true;
  };
  steps_.push_back(std::move(step));
  return *this;
}

// ------------------------------------------------------------------ Fleet --

/// One tenant actor: a client, its workload queue, and the in-flight slice
/// state. An actor is scheduled at most once at a time; the min-heap only
/// re-admits it after its current slice retired.
struct Fleet::Actor {
  Client* client = nullptr;
  std::size_t index = 0;
  std::deque<std::pair<Workload, Completion*>> queue;

  // Current workload progress.
  bool active = false;
  Workload current;
  Completion* completion = nullptr;
  std::size_t step = 0;

  /// A staged I/O step mid-flight: buffers, the optional whole-access
  /// span, and the cursor stepping the plan. The span outlives the cursor
  /// (declared first) so it closes after the last stage ran.
  struct Io {
    Io(StagedIo s, obs::TraceRecorder* tracer, simkit::Timeline& timeline)
        : staged(std::move(s)),
          span(staged.span_label.empty()
                   ? nullptr
                   : std::make_unique<obs::Span>(tracer, timeline,
                                                 staged.span_label)),
          cursor(staged.access.plan, *staged.access.endpoint, timeline,
                 staged.out, staged.in, tracer) {}
    StagedIo staged;
    std::unique_ptr<obs::Span> span;
    runtime::PlanCursor cursor;
  };
  std::unique_ptr<Io> io;
};

Fleet::Fleet(StorageSystem& system) : system_(system) {}

Fleet::~Fleet() = default;

Client& Fleet::add_client(std::string name, SessionOptions options) {
  auto client = std::unique_ptr<Client>(
      new Client(std::move(name), system_, std::move(options), this));
  Client* raw = client.get();
  owned_clients_.push_back(std::move(client));
  attach(raw);
  return *raw;
}

void Fleet::attach(Client* client) {
  auto actor = std::make_unique<Actor>();
  actor->client = client;
  actor->index = actors_.size();
  client->actor_index_ = actor->index;
  actors_.push_back(std::move(actor));
}

Fleet::Actor* Fleet::actor_of(Client& client) {
  const std::size_t index = client.actor_index_;
  if (index >= actors_.size() || actors_[index]->client != &client) {
    return nullptr;
  }
  return actors_[index].get();
}

Completion* Fleet::submit(Client& client, Workload workload) {
  Actor* actor = actor_of(client);
  completions_.emplace_back();
  Completion* completion = &completions_.back();
  completion->submitted_at_ = client.timeline().now();
  if (actor == nullptr) {
    completion->status_ =
        Status::InvalidArgument("client does not belong to this fleet");
    completion->finished_at_ = completion->submitted_at_;
    completion->done_ = true;
    return completion;
  }
  // Admission gate: a rejected workload never queues — open-loop FIFO
  // would let it sit and miss its deadline anyway; failing fast at submit
  // is the CASTOR-stager model (reject/redirect instead of queueing
  // forever).
  if (admission_) {
    Status verdict = admission_(client, workload);
    if (!verdict.ok()) {
      completion->status_ = std::move(verdict);
      completion->finished_at_ = completion->submitted_at_;
      completion->done_ = true;
      ++completed_;
      obs::MetricsRegistry& metrics = system_.metrics();
      if (metrics.enabled()) metrics.counter("fleet.rejected")->increment();
      return completion;
    }
  }
  actor->queue.emplace_back(std::move(workload), completion);
  return completion;
}

bool Fleet::runnable(const Actor& actor) const {
  return actor.active || !actor.queue.empty();
}

void Fleet::start_next(Actor& actor) {
  auto [workload, completion] = std::move(actor.queue.front());
  actor.queue.pop_front();
  actor.current = std::move(workload);
  actor.completion = completion;
  actor.step = 0;
  actor.active = true;
}

void Fleet::finish_workload(Actor& actor, Status status) {
  Completion* completion = actor.completion;
  actor.io.reset();
  actor.active = false;
  actor.completion = nullptr;
  completion->finished_at_ = actor.client->timeline().now();
  completion->status_ = status;
  completion->done_ = true;
  ++completed_;
  obs::MetricsRegistry& metrics = system_.metrics();
  if (metrics.enabled()) {
    metrics.counter(status.ok() ? "fleet.completed" : "fleet.failed")
        ->increment();
    const double latency = completion->latency();
    metrics.histogram("fleet.latency")->record(latency);
    if (!actor.current.tag_.empty()) {
      metrics.histogram("fleet.latency." + actor.current.tag_)
          ->record(latency);
    }
  }
}

void Fleet::run_slice(Actor& actor) {
  TenantContext ctx(actor.client);
  if (!actor.active) start_next(actor);
  // Every booking this slice makes — plan stages, lowering-time probes,
  // control-step session calls — schedules under the tenant's class (the
  // workload override wins over the client's session class). The scope is
  // thread-local, so Fleets driven from concurrent host threads each
  // classify their own bookings.
  const qos::TenantClass tenant_class =
      actor.current.tenant_class().has_value()
          ? *actor.current.tenant_class()
          : actor.client->session().options().tenant_class;
  simkit::QosScope qos_scope(system_.qos_tag(tenant_class));
  if (actor.step >= actor.current.steps_.size()) {
    finish_workload(actor, Status::Ok());
    return;
  }
  const Workload::Step& step = actor.current.steps_[actor.step];

  // Mid-flight staged I/O: run one plan stage, retire the step when the
  // cursor drained.
  if (actor.io != nullptr) {
    (void)actor.io->cursor.step();  // running status read back when done
    if (!actor.io->cursor.done()) return;
    Status status = actor.io->cursor.status();
    // A drained cache-miss read offers its landed payload for priced
    // admission — the same hook the synchronous read_whole path runs. The
    // buffer is dropped right after, so the cache takes it over.
    if (status.ok() && actor.io->staged.access.cache_offer.has_value()) {
      offer_to_cache(system_, *actor.io->staged.access.cache_offer,
                     std::move(actor.io->staged.out),
                     actor.client->timeline().now());
    }
    actor.io.reset();
    if (status.ok() && step.finish) status = step.finish(ctx);
    if (!status.ok()) {
      finish_workload(actor, std::move(status));
      return;
    }
    ++actor.step;
    return;
  }

  // Staged I/O step, first slice: lower only (the metadata half — replica
  // selection, heat accounting, plan building — is one atomic slice; plan
  // stages start on the next).
  if (step.lower) {
    StagedIo staged;
    StatusOr<bool> lowered = step.lower(ctx, staged);
    if (!lowered.ok()) {
      finish_workload(actor, lowered.status());
      return;
    }
    if (*lowered) {
      actor.io = std::make_unique<Actor::Io>(std::move(staged),
                                             &system_.tracer(),
                                             actor.client->timeline());
      return;
    }
    ++actor.step;  // nothing to do (e.g. DISABLEd dump)
    return;
  }

  // Control step: one atomic slice.
  Status status = step.fn ? step.fn(ctx) : Status::Ok();
  if (!status.ok()) {
    finish_workload(actor, std::move(status));
    return;
  }
  ++actor.step;
}

namespace {
/// (virtual now, actor index): the scheduling order. Ties resolve to the
/// lower actor index, so replays are exactly reproducible.
using HeapEntry = std::pair<simkit::SimTime, std::size_t>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;
}  // namespace

void Fleet::drain(Actor* only) {
  MinHeap heap;
  if (only != nullptr) {
    if (runnable(*only)) heap.push({only->client->timeline().now(), only->index});
  } else {
    for (const auto& actor : actors_) {
      if (runnable(*actor)) {
        heap.push({actor->client->timeline().now(), actor->index});
      }
    }
  }
  while (!heap.empty()) {
    Actor& actor = *actors_[heap.top().second];
    heap.pop();
    if (!runnable(actor)) continue;
    run_slice(actor);
    if (runnable(actor) && (only == nullptr || &actor == only)) {
      heap.push({actor.client->timeline().now(), actor.index});
    }
  }
}

void Fleet::run_until_idle() { drain(nullptr); }

void Fleet::run_client(Client& client) {
  Actor* actor = actor_of(client);
  if (actor != nullptr) drain(actor);
}

}  // namespace msra::core
