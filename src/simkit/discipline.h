// Pluggable grant-order policies for simkit::Resource.
//
// A Resource is a *booking* model: reserve() immediately returns a
// committed completion time, and completions, once handed out, are
// immutable — a later arrival can never reorder the past. FIFO fits that
// model natively (earliest gap wins). WFQ and EDF do not: both reorder a
// queue that, in a booking model, never materializes. The disciplines here
// therefore approximate the schedulers with an event-driven *fluid* model,
// replayed at each grant over the arrivals sorted by ready time (wfq
// resumes from a checkpoint before the new arrival, edf from t = 0):
//
//   * wfq — per-class backlogs drain concurrently, each class at rate
//     capacity * w_c / sum(w_active) (GPS, the fluid limit of weighted
//     fair queueing; SCFQ/WF2Q are its packetized approximations). A
//     grant adds `service` to its class backlog and commits the instant
//     the class backlog would drain with no future arrivals.
//   * edf — outstanding requests sorted by absolute deadline; the first
//     min(capacity, n) are served at unit rate. A grant commits the
//     instant its own remaining work would finish with no future
//     arrivals.
//
// Both clamp the committed completion to >= ready + service (one request
// never beats a dedicated device) and both are deterministic functions of
// the arrival sequence — the serial Fleet dispatches slices in global
// virtual-time order, so bench output stays byte-stable. Because grants
// never look at *future* arrivals, the approximation is optimistic under
// rising load (exactly like FIFO booking, which also cannot displace a
// grant once made).
//
// Disciplines are called with the owning Resource's mutex held; they keep
// no locks of their own.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "simkit/qos.h"
#include "simkit/timeline.h"

namespace msra::simkit {

enum class DisciplineKind {
  kFifo,  ///< earliest free gap, arrival order (the native booking model)
  kWfq,   ///< weighted fair queueing (fluid GPS by class weight)
  kEdf,   ///< earliest deadline first (fluid, per-request deadlines)
};

std::string_view discipline_name(DisciplineKind kind);
StatusOr<DisciplineKind> parse_discipline(std::string_view name);

/// One grant decision: the committed completion time and the backlog (in
/// service seconds) the request joined — its class's backlog under wfq,
/// the whole outstanding queue under edf. The "how far behind am I"
/// signal per-class stats track as max_backlog.
struct QosGrant {
  SimTime completion = 0.0;
  SimTime backlog = 0.0;
};

/// Grant-order policy. Implementations are NOT thread-safe: the owning
/// Resource serializes calls under its internal mutex.
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  virtual DisciplineKind kind() const = 0;

  /// Books `service` seconds for `tag`, arriving at `ready`. `service` is
  /// > 0 (zero-work reservations never reach the discipline).
  virtual QosGrant grant(SimTime ready, SimTime service, const QosTag& tag) = 0;

  /// Forgets all fluid state (between experiment repetitions).
  virtual void reset() = 0;
};

/// Returns nullptr for kFifo: FIFO is the Resource's native path, not a
/// plug-in, so the default stays byte-identical to the pre-QoS build.
std::unique_ptr<QueueDiscipline> make_discipline(DisciplineKind kind,
                                                 int capacity);

}  // namespace msra::simkit
