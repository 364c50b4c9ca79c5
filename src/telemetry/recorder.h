// TraceRecorder: the collection point of the telemetry subsystem.
//
// A recorder is attached to a CrowdPlatform (crowd/platform.h) for the
// duration of one query; the platform reports every purchase and round
// boundary, while the algorithm layers open/close named phases around their
// sub-steps through RAII PhaseScopes. Everything is null-safe: algorithms
// pass `platform->recorder()` straight into PhaseScope without checking, so
// an undecorated run (no recorder attached) costs one pointer test per
// scope and nothing else.
//
// Recording is strictly append-only and single-threaded, matching the
// simulator's execution model; the aggregate counters (total_microtasks,
// total_rounds) are maintained incrementally so consistency checks against
// CrowdPlatform's own counters are O(1).
//
// Single-threaded is a *contract*, not an accident: under the parallel
// repetition fan-out (exec/parallel_for.h) each run constructs its recorder
// inside its own task, so one recorder is only ever touched by one thread.
// In debug builds the recorder latches the first recording thread's id and
// CHECK-fails if any other thread records into it, so a recorder shared
// across runs fails loudly instead of silently corrupting the trace.

#ifndef CROWDTOPK_TELEMETRY_RECORDER_H_
#define CROWDTOPK_TELEMETRY_RECORDER_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/events.h"

namespace crowdtopk::telemetry {

class TraceRecorder {
 public:
  TraceRecorder() = default;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Opens a nested phase. `name` must be non-empty and must not contain '/'
  // (reserved as the path separator).
  void BeginPhase(const std::string& name);

  // Closes the innermost open phase. CHECK-fails if none is open.
  void EndPhase();

  // Records a purchase of `count` microtasks for (i, j); j < 0 for graded
  // single-item purchases. The pending purchase iteration (see
  // SetPurchaseIteration) is stamped onto the event.
  void RecordPurchase(PurchaseKind kind, int64_t item_i, int64_t item_j,
                      int64_t count);

  // Records `n` elapsed batch rounds as one event.
  void RecordRounds(int64_t n);

  // Records a named scalar observation in the current phase.
  void RecordCounter(const std::string& name, double value);

  // Tags subsequent purchases with a confidence-process iteration index;
  // -1 clears the tag. Set by ComparisonSession around each buy.
  void SetPurchaseIteration(int64_t iteration) {
    purchase_iteration_ = iteration;
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  // '/'-joined path of currently open phases ("" at top level).
  const std::string& phase_path() const { return phase_path_; }
  int64_t phase_depth() const {
    return static_cast<int64_t>(phase_stack_.size());
  }

  // Running totals over all recorded purchase/round events. When the
  // recorder is attached to a platform for a full query these match the
  // platform's own aggregate counters exactly.
  int64_t total_microtasks() const { return total_microtasks_; }
  int64_t total_rounds() const { return total_rounds_; }

  // Drops all events and totals; open phases are kept. Also releases the
  // debug-mode thread ownership, so a cleared recorder may be handed to a
  // different thread.
  void Clear();

 private:
  TraceEvent* Append(EventKind kind);

  // Debug-mode ownership assertion: latches the first recording thread and
  // aborts on recording from any other (no-op under NDEBUG). Clear()
  // releases ownership so a recorder may be reused by a later run.
  void AssertOwningThread();

  std::thread::id owner_thread_;  // default-constructed = unowned
  std::vector<TraceEvent> events_;
  std::vector<std::string> phase_stack_;
  std::string phase_path_;  // cached join of phase_stack_
  int64_t purchase_iteration_ = -1;
  int64_t total_microtasks_ = 0;
  int64_t total_rounds_ = 0;
};

// RAII phase delimiter. Null recorder => no-op, so call sites can pass
// `platform->recorder()` unconditionally.
class PhaseScope {
 public:
  PhaseScope(TraceRecorder* recorder, const std::string& name)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->BeginPhase(name);
  }
  ~PhaseScope() {
    if (recorder_ != nullptr) recorder_->EndPhase();
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  TraceRecorder* recorder_;
};

}  // namespace crowdtopk::telemetry

#endif  // CROWDTOPK_TELEMETRY_RECORDER_H_
