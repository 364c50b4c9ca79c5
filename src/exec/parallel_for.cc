#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "util/check.h"
#include "util/random.h"

namespace crowdtopk::exec {

void ParallelFor(int64_t jobs, int64_t n,
                 const std::function<void(int64_t)>& body) {
  const int64_t workers = std::min(jobs, n);
  if (workers <= 1) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<int64_t> next{0};
  std::mutex failure_mutex;
  int64_t failed_index = -1;
  std::exception_ptr failure;
  const auto loop = [&] {
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        if (failed_index < 0 || i < failed_index) {
          failed_index = i;
          failure = std::current_exception();
        }
      }
    }
  };
  {
    // jthreads join on destruction, also when starting a later one throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<size_t>(workers - 1));
    for (int64_t w = 1; w < workers; ++w) helpers.emplace_back(loop);
    loop();
  }
  if (failure) std::rethrow_exception(failure);
}

int64_t ResolveJobs(int64_t jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int64_t>(hw);
}

std::vector<std::vector<double>> RunAll(
    int64_t runs, uint64_t seed, int64_t jobs,
    const std::function<std::vector<double>(int64_t, uint64_t)>& task) {
  CROWDTOPK_CHECK_GE(runs, 0);
  std::vector<std::vector<double>> records(static_cast<size_t>(runs));
  ParallelFor(ResolveJobs(jobs), runs, [&](int64_t r) {
    records[static_cast<size_t>(r)] =
        task(r, util::SplitSeed(seed, static_cast<uint64_t>(r)));
  });
  return records;
}

std::vector<double> ColumnMeans(
    const std::vector<std::vector<double>>& records) {
  if (records.empty()) return {};
  std::vector<double> sums(records[0].size(), 0.0);
  for (const std::vector<double>& record : records) {
    CROWDTOPK_CHECK_EQ(record.size(), sums.size());
    for (size_t c = 0; c < sums.size(); ++c) sums[c] += record[c];
  }
  for (double& s : sums) s /= static_cast<double>(records.size());
  return sums;
}

}  // namespace crowdtopk::exec
