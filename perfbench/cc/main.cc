// perfbench: runs one workload of the machine-cost benchmark and prints
// its metrics. perfbench/run.py builds this binary and is the entry point;
// see perfbench/README.md.
//
//   perfbench --workload serve-wide --seed 1 --seconds 20 --trace 0
//             --work-dir .bench_build/work/x
//
//   perfbench --workload serve-wide --seed 1 --setup-only 101
//             --work-dir .bench_build/work/x
//
// Output: informational lines, one "metric <name> <value> <unit>" line per
// metric, then as the last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every metric the run measured, each with its unit. run.py picks
// the ones BENCHMARK.json names for the mode. Exit code 0 when every
// correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

using namespace crowdtopk::perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-wide|serve-cached-durable|"
               "router-loopback --seed N (--seconds S --trace 0|1 | "
               "--setup-only SAMPLES) --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
    } else if (flag == "--setup-only") {
      config.setup_samples = std::atoi(value.c_str());
      if (config.setup_samples < 1) return Usage();
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || config.work_dir.empty()) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  RunResult result;
  if (config.workload == "serve-wide") {
    result = RunServeWide(config);
  } else if (config.workload == "serve-cached-durable") {
    result = RunServeCachedDurable(config);
  } else if (config.workload == "router-loopback") {
    result = RunRouterLoopback(config);
  } else {
    return Usage();
  }

  const Environment env = ReadEnvironment(config.work_dir);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("env: compiler=%s build_type=%s nproc=%lld work_fs=%s\n",
              env.compiler.c_str(), env.build_type.c_str(),
              static_cast<long long>(env.nproc), env.work_fs.c_str());
  for (const std::string& line : result.info) std::printf("%s\n", line.c_str());
  for (const Metric& m : result.metrics) {
    std::printf("metric %-32s %.6g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  # ",
                m.note.c_str());
  }
  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = result.errors.empty();
  std::fflush(stderr);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<long long>(result.tally.attempted),
      static_cast<long long>(result.tally.system_failures()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
