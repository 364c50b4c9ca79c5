// Helpers every workload shares (declared in workloads.h).

#include <memory>
#include <vector>

#include "crowd/platform.h"
#include "util/random.h"
#include "workloads.h"

namespace crowdtopk::perfbench {

double QueriesPerSecond(const RepBase& rep) {
  return static_cast<double>(rep.tally.ok()) / rep.wall_s;
}

double PrivateRunSeconds(const data::Dataset* dataset,
                         const std::vector<core::TopKAlgorithm*>& algorithms,
                         int64_t k, uint64_t seed) {
  const double t0 = NowSeconds();
  for (size_t q = 0; q < algorithms.size(); ++q) {
    crowd::CrowdPlatform platform(dataset, util::SplitSeed(seed, q));
    algorithms[q]->Run(&platform, k);
  }
  return NowSeconds() - t0;
}

}  // namespace crowdtopk::perfbench
