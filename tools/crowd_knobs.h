// Shared crowd-schedule knobs of the three serving CLIs (crowdtopk_serve,
// crowdtopk_server, crowdtopk_router): reading and range validation in one
// place, so an out-of-range value is a usage error in every front-end —
// exit 2 naming the variable before anything is bound or replayed — never
// a library CHECK abort once the first query arrives.

#ifndef CROWDTOPK_TOOLS_CROWD_KNOBS_H_
#define CROWDTOPK_TOOLS_CROWD_KNOBS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "serve/batch_scheduler.h"
#include "util/env.h"

namespace crowdtopk::tools {

// Prints "NAME=value is out of range: must be <requirement>" to stderr when
// !ok; returns ok.
inline bool KnobOk(bool ok, const char* name, const char* requirement) {
  if (!ok) {
    const char* raw = std::getenv(name);
    std::fprintf(stderr, "%s=%s is out of range: must be %s\n", name,
                 raw != nullptr ? raw : "", requirement);
  }
  return ok;
}

// Reads CROWDTOPK_SERVE_{WORKERS,ETA,INFLIGHT,DEADLINE,ABANDON,ATTEMPTS}
// into `schedule` and `max_inflight`. Returns false, after naming the first
// out-of-range variable on stderr, when any value would trip the serving
// layer's preconditions.
inline bool ReadCrowdKnobs(serve::ScheduleOptions* schedule,
                           int64_t* max_inflight) {
  schedule->crowd_workers = util::GetEnvInt64("CROWDTOPK_SERVE_WORKERS", 100);
  schedule->per_pair_batch = util::GetEnvInt64("CROWDTOPK_SERVE_ETA", 30);
  schedule->deadline_seconds =
      util::GetEnvDouble("CROWDTOPK_SERVE_DEADLINE", 60.0);
  schedule->abandon_probability =
      util::GetEnvDouble("CROWDTOPK_SERVE_ABANDON", 0.03);
  schedule->max_attempts = util::GetEnvInt64("CROWDTOPK_SERVE_ATTEMPTS", 4);
  *max_inflight = util::GetEnvInt64("CROWDTOPK_SERVE_INFLIGHT", 16);
  return KnobOk(schedule->crowd_workers >= 1, "CROWDTOPK_SERVE_WORKERS",
                ">= 1") &&
         KnobOk(schedule->per_pair_batch >= 1, "CROWDTOPK_SERVE_ETA",
                ">= 1") &&
         KnobOk(*max_inflight >= 1, "CROWDTOPK_SERVE_INFLIGHT", ">= 1") &&
         KnobOk(schedule->deadline_seconds > 0.0, "CROWDTOPK_SERVE_DEADLINE",
                "> 0") &&
         KnobOk(schedule->abandon_probability >= 0.0 &&
                    schedule->abandon_probability <= 1.0,
                "CROWDTOPK_SERVE_ABANDON", "in [0, 1]") &&
         KnobOk(schedule->max_attempts >= 1, "CROWDTOPK_SERVE_ATTEMPTS",
                ">= 1");
}

}  // namespace crowdtopk::tools

#endif  // CROWDTOPK_TOOLS_CROWD_KNOBS_H_
