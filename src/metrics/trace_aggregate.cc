#include "metrics/trace_aggregate.h"

#include <cctype>
#include <cstdio>

#include "telemetry/export.h"

namespace crowdtopk::metrics {

namespace {

void Accumulate(const telemetry::TraceEvent& event, PhaseStat* stat) {
  switch (event.kind) {
    case telemetry::EventKind::kPurchase:
      stat->microtasks += event.count;
      ++stat->purchases;
      break;
    case telemetry::EventKind::kRound:
      stat->rounds += event.count;
      break;
    default:
      break;
  }
}

bool IsAccountable(const telemetry::TraceEvent& event) {
  return event.kind == telemetry::EventKind::kPurchase ||
         event.kind == telemetry::EventKind::kRound;
}

}  // namespace

std::map<std::string, PhaseStat> AggregateByPhase(
    const std::vector<telemetry::TraceEvent>& events) {
  std::map<std::string, PhaseStat> stats;
  for (const telemetry::TraceEvent& event : events) {
    if (!IsAccountable(event)) continue;
    Accumulate(event, &stats[event.phase]);
  }
  return stats;
}

std::map<std::string, PhaseStat> AggregateByPhaseRollup(
    const std::vector<telemetry::TraceEvent>& events) {
  std::map<std::string, PhaseStat> stats;
  for (const telemetry::TraceEvent& event : events) {
    if (!IsAccountable(event)) continue;
    // The phase itself, every ancestor, and the root "".
    Accumulate(event, &stats[event.phase]);
    std::string path = event.phase;
    while (!path.empty()) {
      const size_t slash = path.rfind('/');
      path = slash == std::string::npos ? "" : path.substr(0, slash);
      Accumulate(event, &stats[path]);
    }
  }
  return stats;
}

PhaseStat TraceTotals(const std::vector<telemetry::TraceEvent>& events) {
  PhaseStat totals;
  for (const telemetry::TraceEvent& event : events) {
    if (IsAccountable(event)) Accumulate(event, &totals);
  }
  return totals;
}

double LastCounter(const std::vector<telemetry::TraceEvent>& events,
                   const std::string& name, double fallback) {
  double value = fallback;
  for (const telemetry::TraceEvent& event : events) {
    if (event.kind == telemetry::EventKind::kCounter && event.name == name) {
      value = event.value;
    }
  }
  return value;
}

util::TablePrinter PhaseTable(const std::map<std::string, PhaseStat>& stats,
                              const std::string& title) {
  util::TablePrinter table(title);
  table.SetHeader({"phase", "microtasks", "rounds", "purchases"});
  char buffer[32];
  for (const auto& [phase, stat] : stats) {
    std::vector<std::string> row;
    row.push_back(phase.empty() ? "(total)" : phase);
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(stat.microtasks));
    row.push_back(buffer);
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(stat.rounds));
    row.push_back(buffer);
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(stat.purchases));
    row.push_back(buffer);
    table.AddRow(std::move(row));
  }
  return table;
}

std::string TraceFileToken(const std::string& name) {
  std::string token;
  for (char c : name) {
    token += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(std::tolower(c))
                 : '_';
  }
  return token.empty() ? "algo" : token;
}

util::Status WriteTraceFiles(const std::vector<telemetry::TraceEvent>& events,
                             const std::string& stem,
                             const std::string& title) {
  CROWDTOPK_RETURN_IF_ERROR(
      telemetry::WriteJsonlFile(events, stem + ".trace.jsonl"));
  PhaseTable(AggregateByPhaseRollup(events), title)
      .WriteCsv(stem + ".phases.csv");
  return util::Status::Ok();
}

}  // namespace crowdtopk::metrics
