// Ablation (cross-query judgment cache): TMC and latency saved by reusing
// completed COMP verdicts across the queries of one serving replay
// (src/cache), as a function of the query-overlap rate.
//
// Workload: Q top-k queries, each over an n-item subset of one shared
// 120-item universe, served FIFO (max_inflight = 1) so later queries can
// reuse everything earlier ones published. Overlap rho picks how many
// distinct subsets the trace cycles through: D = Q - round(rho * (Q - 1)),
// so rho = 0 gives Q all-distinct subsets (reuse only from incidental
// pair overlap) and rho = 1 repeats one subset Q times (maximal reuse).
// Every rho row replays the identical trace twice — cache off, cache on —
// and reports total microtasks, makespan rounds, and the saving.
//
// Expected: savings grow monotonically with rho; at rho = 0.5 the repeated
// subsets make the cached replay at least ~20% cheaper, and at rho = 1 all
// queries after the first cost almost nothing.
//
// Knobs (bench/harness.h has the shared ones):
//   CROWDTOPK_CACHE_QUERIES   queries per replay            (default 12)
//   CROWDTOPK_CACHE_SUBSET    items per query subset        (default 40)
//   CROWDTOPK_CACHE_UNIVERSE  items in the shared universe  (default 80)
//   CROWDTOPK_CACHE_K         top-k per query               (default 10)
//   CROWDTOPK_CACHE_TRANSITIVITY =1 also serves composed verdicts
//   CROWDTOPK_RUNS, CROWDTOPK_SEED, CROWDTOPK_JOBS as everywhere else.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "data/subset_dataset.h"
#include "serve/query_service.h"

int main() {
  using namespace crowdtopk;
  const int64_t runs = util::BenchRuns(3);
  const uint64_t seed = util::BenchSeed();
  const int64_t queries = util::GetEnvInt64("CROWDTOPK_CACHE_QUERIES", 12);
  const int64_t subset_n = util::GetEnvInt64("CROWDTOPK_CACHE_SUBSET", 40);
  const int64_t universe_n = util::GetEnvInt64("CROWDTOPK_CACHE_UNIVERSE", 80);
  const int64_t k = util::GetEnvInt64("CROWDTOPK_CACHE_K", 10);
  const bool transitivity = util::CacheTransitivity();
  bench::PrintPreamble("Ablation: cross-query judgment-cache reuse", runs,
                       seed);
  std::printf(
      "%lld queries/replay over %lld-item subsets of a %lld-item universe, "
      "k=%lld, FIFO serving, the four confidence-aware methods "
      "round-robin%s\n\n",
      static_cast<long long>(queries), static_cast<long long>(subset_n),
      static_cast<long long>(universe_n), static_cast<long long>(k),
      transitivity ? ", transitivity on" : "");

  const judgment::ComparisonOptions comparison =
      bench::DefaultComparisonOptions();
  const auto methods = bench::ConfidenceAwareMethods(comparison);

  util::TablePrinter table("TMC and rounds: cache off vs on, by overlap rho");
  table.SetHeader({"rho", "subsets", "TMC off", "TMC on", "saved %",
                   "rounds off", "rounds on", "hits", "topups"});

  for (const double rho : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const int64_t distinct =
        queries - static_cast<int64_t>(
                      std::llround(rho * static_cast<double>(queries - 1)));
    // Record: {tmc_off, tmc_on, rounds_off, rounds_on, hits, topups}.
    const std::vector<double> mean = bench::AverageOver(
        runs, seed, [&](int64_t, uint64_t run_seed) -> std::vector<double> {
          util::Rng rng(run_seed);
          const auto universe = data::MakeUniformLadder(universe_n, 10.0, 2.0);
          std::vector<std::unique_ptr<data::SubsetDataset>> subsets;
          for (int64_t d = 0; d < distinct; ++d) {
            subsets.push_back(data::RandomSubset(universe.get(), subset_n,
                                                 &rng));
          }
          std::vector<serve::QueryRequest> requests(queries);
          for (int64_t q = 0; q < queries; ++q) {
            const data::SubsetDataset* subset =
                subsets[q % distinct].get();
            requests[q].algorithm =
                methods[q % methods.size()].get();
            requests[q].dataset = subset;
            requests[q].k = k;
            // All subsets view the same universe: share one namespace and
            // translate local ids to parent ids.
            requests[q].cache_universe = 0;
            requests[q].cache_item_ids = subset->parent_ids();
          }
          const std::vector<double> arrivals(queries, 0.0);

          std::vector<double> record;
          for (const bool cached : {false, true}) {
            serve::ServeOptions options;
            options.max_inflight = 1;  // FIFO: maximal reuse window
            options.seed = run_seed;
            options.cache.enabled = cached;
            options.cache.transitivity = transitivity;
            serve::QueryService service(options);
            const std::vector<serve::QueryOutcome> outcomes =
                service.Replay(requests, arrivals);
            double tmc = 0.0, hits = 0.0, topups = 0.0;
            for (const serve::QueryOutcome& o : outcomes) {
              tmc += static_cast<double>(o.total_microtasks);
              hits += static_cast<double>(o.cache_hits + o.cache_inferred);
              topups += static_cast<double>(o.cache_topups);
            }
            record.push_back(tmc);
            record.push_back(static_cast<double>(service.total_rounds()));
            if (cached) {
              record.push_back(hits);
              record.push_back(topups);
            }
          }
          // Reorder to {tmc_off, tmc_on, rounds_off, rounds_on, hits,
          // topups}.
          return {record[0], record[2], record[1], record[3], record[4],
                  record[5]};
        });
    const double saved =
        mean[0] > 0.0 ? 100.0 * (mean[0] - mean[1]) / mean[0] : 0.0;
    table.AddRow({util::FormatDouble(rho, 2),
                  std::to_string(static_cast<long long>(distinct)),
                  util::FormatDouble(mean[0], 0),
                  util::FormatDouble(mean[1], 0),
                  util::FormatDouble(saved, 1),
                  util::FormatDouble(mean[2], 0),
                  util::FormatDouble(mean[3], 0),
                  util::FormatDouble(mean[4], 0),
                  util::FormatDouble(mean[5], 0)});
  }
  table.Print();
  std::printf(
      "\nexpected: saved %% grows with rho; >= 20%% at rho = 0.5 and the\n"
      "rho = 1 replay pays roughly one query's cost for all %lld queries\n",
      static_cast<long long>(queries));
  return 0;
}
