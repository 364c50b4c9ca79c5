// Measurement helpers of the machine-cost benchmark: clocks, rusage,
// order statistics, failure accounting, result metrics and the environment
// record. Nothing here touches the library under test.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace crowdtopk::perfbench {

// Monotonic wall clock.
double NowSeconds();
int64_t NowNanos();

// getrusage(RUSAGE_SELF): CPU of every thread the process ever ran, plus
// voluntary and involuntary context switches.
struct CpuSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t ctx_switches = 0;

  double total_s() const { return user_s + sys_s; }
};
CpuSample ReadCpu();
CpuSample operator-(const CpuSample& a, const CpuSample& b);

// Whether to start another repetition of a phase that began at `start`
// and has run `done` repetitions: always until `min_reps`, then only while
// one more, at the mean length so far, still ends within `seconds`.
bool StartAnotherRepetition(double start, int done, int min_reps,
                            double seconds);

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
double Median(std::vector<double> values);

// `field(item)` for every item, in order.
template <typename T, typename F>
std::vector<double> Collect(const std::vector<T>& items, F field) {
  std::vector<double> out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(field(item));
  return out;
}

// A tail order statistic. The reported percentile is the highest one, at
// most `max_percentile`, that still has at least ten samples beyond it
// (nearest rank), so a p99 over 200 samples is reported as the p95 and
// says so. With ten samples or fewer no percentile qualifies: `value` is
// then the maximum and `beyond` is 0.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;  // samples strictly above the reported rank
};
Tail TailPercentile(std::vector<double> values, double max_percentile = 99.0);
// "p95 of n=200, 10 beyond": which percentile `tail` holds, over how many.
std::string TailNote(const Tail& tail);

// Why a query did not end OK. Every cause counts against `attempted`.
enum class Cause {
  kOk,
  kRejected,   // refused at admission (queue full, server unavailable)
  kExhausted,  // RESOURCE_EXHAUSTED: the simulated crowd let an assignment
               // expire max_attempts times
  kTransport,  // submit or await failed on the wire
  kMissing,    // no terminal result, or a second one for the same id
  kMalformed,  // an OK result that is not k distinct valid item ids
  kOther,      // any other non-OK status
};
const char* CauseName(Cause cause);

struct FailureTally {
  int64_t attempted = 0;
  int64_t by_cause[7] = {0, 0, 0, 0, 0, 0, 0};

  void Count(Cause cause);
  void Merge(const FailureTally& other);
  int64_t count(Cause cause) const {
    return by_cause[static_cast<int>(cause)];
  }
  int64_t ok() const { return count(Cause::kOk); }
  // Not OK for any cause, over attempted (the reported failed_ratio).
  int64_t not_ok() const { return attempted - ok(); }
  double failed_ratio() const;
  double ok_ratio() const;
  // Queries the system failed to answer correctly: every cause except
  // kExhausted, which is the crowd model's deterministic answer (checked
  // for byte-identity like every other outcome).
  int64_t system_failures() const;
  // "rejected=0 exhausted=4 ..." in Cause order.
  std::string Breakdown() const;
};

// True when `items` holds exactly min(k, n) distinct ids in [0, n).
bool IsValidTopK(const std::vector<int32_t>& items, int64_t k, int64_t n);

// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample counts, percentile actually used, ...
};

// Run environment recorded with every result.
struct Environment {
  std::string compiler;
  std::string build_type;
  int64_t nproc = 0;
  std::string work_fs;  // filesystem type of the persist/trace directory
};
Environment ReadEnvironment(const std::string& work_dir);

// Flushes the filesystem holding `path` (syncfs(2)), so writeback left
// over from one repetition is not charged to the next.
void SyncFilesystem(const std::string& path);

// Filesystem type name of `path` from statfs(2) ("ext4", "tmpfs", ...,
// or the magic number in hex when unknown).
std::string FilesystemType(const std::string& path);

// JSON string literal with escapes.
std::string JsonString(const std::string& s);
// Full-precision JSON number (non-finite values become 0).
std::string JsonNumber(double v);

}  // namespace crowdtopk::perfbench

#endif  // PERFBENCH_MEASURE_H_
