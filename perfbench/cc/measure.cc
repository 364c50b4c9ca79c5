#include "measure.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

namespace crowdtopk::perfbench {

double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

CpuSample ReadCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  CpuSample s;
  s.user_s = TimevalSeconds(usage.ru_utime);
  s.sys_s = TimevalSeconds(usage.ru_stime);
  s.ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw;
  return s;
}

CpuSample operator-(const CpuSample& a, const CpuSample& b) {
  CpuSample d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.ctx_switches = a.ctx_switches - b.ctx_switches;
  return d;
}

bool StartAnotherRepetition(double start, int done, int min_reps,
                            double seconds) {
  if (done < min_reps) return true;
  const double elapsed = NowSeconds() - start;
  return elapsed + elapsed / done <= seconds;
}

double PeakRssMb() {
  // VmHWM is this address space's high-water mark. ru_maxrss is not used:
  // Linux carries it across execve, so it would report the launching
  // process's peak whenever that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailPercentile(std::vector<double> values, double max_percentile) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const int64_t n = tail.samples;
  constexpr int64_t kMinBeyond = 10;
  if (n <= kMinBeyond) {
    tail.percentile = 100.0;
    tail.value = values.back();
    return tail;
  }
  // Nearest rank r (1-based) of percentile p is ceil(p/100 * n); the rank
  // with exactly kMinBeyond samples above it is n - kMinBeyond.
  int64_t rank = static_cast<int64_t>(
      std::ceil(max_percentile / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n - kMinBeyond);
  tail.percentile =
      std::min(max_percentile, 100.0 * static_cast<double>(rank) /
                                   static_cast<double>(n));
  tail.value = values[static_cast<size_t>(rank - 1)];
  tail.beyond = n - rank;
  return tail;
}

std::string TailNote(const Tail& tail) {
  char note[96];
  std::snprintf(note, sizeof(note), "p%.4g of n=%lld, %lld beyond",
                tail.percentile, static_cast<long long>(tail.samples),
                static_cast<long long>(tail.beyond));
  return note;
}

const char* CauseName(Cause cause) {
  switch (cause) {
    case Cause::kOk:
      return "ok";
    case Cause::kRejected:
      return "rejected";
    case Cause::kExhausted:
      return "exhausted";
    case Cause::kTransport:
      return "transport";
    case Cause::kMissing:
      return "missing";
    case Cause::kMalformed:
      return "malformed";
    case Cause::kOther:
      return "other";
  }
  return "?";
}

void FailureTally::Count(Cause cause) {
  ++attempted;
  ++by_cause[static_cast<int>(cause)];
}

void FailureTally::Merge(const FailureTally& other) {
  attempted += other.attempted;
  for (int i = 0; i < 7; ++i) by_cause[i] += other.by_cause[i];
}

double FailureTally::failed_ratio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(not_ok()) /
                              static_cast<double>(attempted);
}

double FailureTally::ok_ratio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(ok()) /
                              static_cast<double>(attempted);
}

int64_t FailureTally::system_failures() const {
  return not_ok() - count(Cause::kExhausted);
}

std::string FailureTally::Breakdown() const {
  std::string out;
  for (int i = 1; i < 7; ++i) {
    if (!out.empty()) out += ' ';
    out += CauseName(static_cast<Cause>(i));
    out += '=';
    out += std::to_string(by_cause[i]);
  }
  return out;
}

bool IsValidTopK(const std::vector<int32_t>& items, int64_t k, int64_t n) {
  if (static_cast<int64_t>(items.size()) != std::min(k, n)) return false;
  std::set<int32_t> seen;
  for (const int32_t id : items) {
    if (id < 0 || id >= n || !seen.insert(id).second) return false;
  }
  return true;
}

void SyncFilesystem(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  struct Known {
    unsigned long magic;
    const char* name;
  };
  static constexpr Known kKnown[] = {
      {0xEF53, "ext4"},        {0x58465342, "xfs"},
      {0x01021994, "tmpfs"},   {0x794c7630, "overlay"},
      {0x9123683E, "btrfs"},   {0x6969, "nfs"},
      {0x2FC12FC1, "zfs"},     {0x65735546, "fuse"},
      {0x858458f6, "ramfs"},   {0x73717368, "squashfs"},
  };
  const auto magic = static_cast<unsigned long>(info.f_type);
  for (const Known& k : kKnown) {
    if (k.magic == magic) return k.name;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx", magic);
  return hex;
}

Environment ReadEnvironment(const std::string& work_dir) {
  Environment env;
  env.compiler = PERFBENCH_COMPILER;
  env.build_type = PERFBENCH_BUILD_TYPE;
  env.nproc = static_cast<int64_t>(std::thread::hardware_concurrency());
  env.work_fs = FilesystemType(work_dir);
  return env;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace crowdtopk::perfbench
