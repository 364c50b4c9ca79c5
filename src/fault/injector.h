// Deterministic fault injection for simulated crowds.
//
// The paper's guarantees (Section 3, Algorithms 1/5) assume honest i.i.d.
// judgments; real marketplaces field spammers, adversaries, lazy
// click-through workers, duplicate submissions, and no-shows (Hui &
// Berberich, PAPERS.md). This layer makes those degraded regimes
// reproducible: FaultInjectionOracle wraps any JudgmentOracle and routes
// every judgment through one worker of a fixed pool whose fault profile is
// a pure function of (fault seed, worker index) via util::Rng::Split, so a
// verification sweep fanned out with exec::RunAll sees bit-identical
// faults for every CROWDTOPK_JOBS worker count. Value-level faults live
// here; the no-show/timeout fault (an assignment that never returns) lives
// at the serving layer — serve::ScheduleOptions::no_show_probability,
// populated from the plan via NoShowProbability() — because it degrades
// *delivery*, not judgment values, and must exercise the scheduler's
// expiry/requeue/bounded-retry path.
//
// The guarantee-verification harness (src/verify, tools/crowdtopk_verify)
// measures how far each fault model pushes COMP's empirical error past its
// 1 - alpha contract.

#ifndef CROWDTOPK_FAULT_INJECTOR_H_
#define CROWDTOPK_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "crowd/oracle.h"
#include "crowd/types.h"
#include "util/random.h"

namespace crowdtopk::fault {

// Per-worker fault rates of one degraded crowd. Fractions are independent
// Bernoulli flags per worker (a worker can be, say, both a spammer and an
// adversary; the composition order is documented at PreferenceJudgment).
struct FaultPlan {
  // Size of the simulated worker pool judgments are routed through.
  int64_t num_workers = 200;
  // Replaces the answer with Uniform[-1, 1] (a spammer click).
  double spammer_fraction = 0.0;
  // Flips the sign of the answer (a colluding/adversarial worker).
  double adversary_fraction = 0.0;
  // Collapses the answer to near-neutral Uniform[-jitter, jitter] (a worker
  // who never commits to a direction).
  double lazy_fraction = 0.0;
  // Resubmits a frozen per-pair answer on every request (duplicate / stale
  // response: the first answer re-posted forever).
  double duplicate_fraction = 0.0;
  // Serving layer only: fraction of workers who accept an assignment but
  // never return it, so the assignment expires at the round deadline. See
  // NoShowProbability().
  double no_show_fraction = 0.0;
  // |v| scale of a lazy worker's near-neutral answers.
  double lazy_jitter = 0.02;
};

// True when any value-level fault rate is nonzero (no-show excluded: it
// never touches judgment values).
bool AnyValueFaults(const FaultPlan& plan);

// Per-assignment probability that the drawn worker is a no-show, for
// serve::ScheduleOptions::no_show_probability. Assignments land on workers
// uniformly, so this is just the plan's fraction (validated).
double NoShowProbability(const FaultPlan& plan);

// One pool member's fault flags.
struct WorkerFaultProfile {
  bool spammer = false;
  bool adversary = false;
  bool lazy = false;
  bool duplicate = false;

  bool any() const { return spammer || adversary || lazy || duplicate; }
};

// Derives the pool's profiles from the plan: worker w's flags are drawn
// from Rng(seed).Split(w) — a pure function of (seed, w), independent of
// construction or dispatch order.
std::vector<WorkerFaultProfile> MakeWorkerProfiles(const FaultPlan& plan,
                                                   uint64_t seed);

// Wraps a base oracle: every judgment is answered by a uniformly random
// pool worker, whose fault flags distort the honest answer. Immutable after
// construction, so one injector is safely shared by concurrent runs (each
// run supplies its own platform Rng). When no worker carries any fault the
// injector is a pure pass-through: it consumes nothing from the platform's
// RNG stream and is byte-identical to the unwrapped oracle.
class FaultInjectionOracle : public crowd::JudgmentOracle {
 public:
  // `base` must outlive this oracle; the pool is MakeWorkerProfiles(plan,
  // seed). Injectors nest: `base` may itself be a FaultInjectionOracle
  // (outer faults then apply to the inner injector's output).
  FaultInjectionOracle(const crowd::JudgmentOracle* base,
                       const FaultPlan& plan, uint64_t seed);

  // Direct construction from explicit profiles (tests).
  FaultInjectionOracle(const crowd::JudgmentOracle* base,
                       std::vector<WorkerFaultProfile> workers, uint64_t seed,
                       double lazy_jitter = 0.02);

  int64_t num_items() const override { return base_->num_items(); }
  int64_t num_workers() const {
    return static_cast<int64_t>(workers_.size());
  }
  const WorkerFaultProfile& worker(int64_t w) const { return workers_[w]; }
  // False iff the injector is the pass-through described above.
  bool active() const { return active_; }

  // Composition order within one faulty worker, applied to the honest
  // answer: (1) duplicate substitutes the frozen stale answer as the
  // source, (2) spammer replaces the value outright, (3) adversary flips
  // the sign, (4) lazy collapses whatever is left toward neutral. Later
  // stages therefore win: a lazy adversary answers near zero, a duplicate
  // spammer spams.
  double PreferenceJudgment(crowd::ItemId i, crowd::ItemId j,
                            util::Rng* rng) const override;

  // Grades distort on the [0, 1] scale: spam = Uniform[0, 1], adversary =
  // reflection 1 - g, lazy = 0.5 plus jitter, duplicate = frozen per-item
  // grade. (Binary judgments inherit faults through the base-class
  // sign-of-preference derivation.)
  double GradedJudgment(crowd::ItemId i, util::Rng* rng) const override;

 private:
  // The frozen answer a duplicate worker keeps resubmitting for (i, j) /
  // item i: the base judgment drawn from a throwaway Rng that is a pure
  // function of (stale seed, pair), so every resubmission is identical.
  double StalePreference(crowd::ItemId i, crowd::ItemId j) const;
  double StaleGrade(crowd::ItemId i) const;

  const crowd::JudgmentOracle* base_;
  std::vector<WorkerFaultProfile> workers_;
  double lazy_jitter_;
  uint64_t fault_seed_;
  uint64_t stale_seed_;
  bool active_;
};

}  // namespace crowdtopk::fault

#endif  // CROWDTOPK_FAULT_INJECTOR_H_
