// The single public surface of the MSRA library.
//
// Examples, benches, and tools program against this header instead of
// reaching into the internal layering. The supported surface is:
//
//   StorageSystem  — the shared multi-storage substrate (core/system.h)
//   Session        — one run's metadata scope and handles (core/session.h)
//   Client         — one tenant: session + virtual clock (core/client.h)
//   Fleet          — the event-driven tenant runtime: Workload, Completion
//                    (core/fleet.h)
//   options        — ReadOptions / OpenOptions / ReplicateOptions /
//                    SessionOptions (core/options.h et al.)
//   Status         — error handling: Status / StatusOr (common/status.h)
//
// Subsystems below this line (runtime plans, simkit, srb, predict, obs)
// are internal: their headers may change without notice. The predictor and
// observability layers have their own opt-in surfaces (predict/predictor.h,
// obs/report.h) for tools that price plans or render reports.
#pragma once

#include "common/status.h"
#include "core/client.h"
#include "core/fleet.h"
#include "core/options.h"
#include "core/session.h"
#include "core/system.h"
