// Options structs for the Session / DatasetHandle API.
//
// Call-site contract (applies to every opener below): Session::open and
// Session::open_existing return StatusOr<DatasetHandle*> whose pointer is
// NEVER null on an ok() status — the handle lives as long as the Session,
// so callers may dereference `*result` without a null check after
// MSRA_ASSIGN_OR_RETURN / ok(). Failure is always expressed through the
// Status, never through a null success value.
//
// Plain enum/string trailing parameters don't scale, so the per-call knobs
// live in small aggregate structs with designated-initializer-friendly
// defaults:
//
//   handle.read_box(t, box, out, {.strategy = AccessStrategy::kDirect});
//   session.open_existing("temperature", {.producer_app = "astro3d"});
//
// Serial consumer calls (read_whole/read_box/replicate_timestep) run on the
// owning session's timeline by default; measurement harnesses that keep a
// dedicated clock per experiment pass {.timeline = &tl} instead.
#pragma once

#include <string>

#include "runtime/sieve.h"

namespace msra::simkit {
class Timeline;
}  // namespace msra::simkit

namespace msra::core {

/// Knobs for DatasetHandle::read_whole / read_box.
struct ReadOptions {
  /// How strided sub-array requests hit storage.
  runtime::AccessStrategy strategy = runtime::AccessStrategy::kSieving;

  /// Span name recorded in the system tracer for this read. Empty uses the
  /// default ("read_box <dataset>"). (The explicit empty default keeps
  /// partial designated initializers warning-free under -Wextra.)
  std::string trace_label = {};

  /// Clock the access runs on (not owned). Null uses the owning session's
  /// timeline.
  simkit::Timeline* timeline = nullptr;
};

/// Knobs for DatasetHandle::replicate_timestep.
struct ReplicateOptions {
  /// Clock the copy runs on (not owned). Null uses the owning session's
  /// timeline.
  simkit::Timeline* timeline = nullptr;
};

/// Knobs for Session::open_existing.
struct OpenOptions {
  /// Producer application that registered the dataset. Empty means "any":
  /// the catalog is searched by dataset name alone.
  std::string producer_app;
};

}  // namespace msra::core
