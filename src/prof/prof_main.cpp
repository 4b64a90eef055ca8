// pcxx-prof — offline critical-path and straggler profiler for the
// artifacts the benches already emit (--metrics-json reports and
// --trace-json Chrome traces).
//
//   pcxx-prof [--format=text|json] [--max-off-pct PCT]
//             report.json [trace.json ...]
//
// Inputs are classified by content, so any mix can be passed in one
// invocation (e.g. a figure5_all metrics report plus its per-table
// traces):
//
//   * pcxx-metrics-v1 (table benches): per cell and method, the critical
//     path is the node whose virtual clock finished last — its phase
//     breakdown IS the bench total's decomposition (compute, collective
//     wait, redistribution, pfs read/write). pcxx-prof recomputes the sum
//     and fails (exit 3) when it deviates from that node's total by more
//     than --max-off-pct percent, so a broken phase-timer attribution
//     cannot go unnoticed. A straggler league table ranks nodes by how
//     often the collective straggler detector (rt.coll_last_arrival)
//     blamed them, alongside their collective wait and aio stall time.
//   * pcxx-bench-metrics-v1 (ablation benches): per labeled run, the same
//     straggler league from the per-node snapshots.
//   * Chrome traces ("traceEvents"): flow-event accounting — chains,
//     steps, terminators, unterminated chains, and rt.coll spans — the
//     quick integrity check that causal links survived a code change.
//
// Exit status: 0 clean, 2 usage/parse errors, 3 when any critical-path
// decomposition is off by more than --max-off-pct.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/json.h"
#include "util/options.h"

namespace {

namespace json = pcxx::json;

// ---------------------------------------------------------------------------
// Report model
// ---------------------------------------------------------------------------

struct NodeWaitRow {
  int node = 0;
  std::uint64_t stragglerOps = 0;
  std::uint64_t collectives = 0;
  double syncWait = 0.0;
  double aioStall = 0.0;
  double aioDrain = 0.0;
  double total = 0.0;  // 0 when the doc carries no per-node total
};

struct PhaseSegment {
  std::string name;
  double seconds = 0.0;
};

struct CellProfile {
  std::string table;
  std::string method;
  std::int64_t segments = 0;
  std::uint64_t bytes = 0;
  double totalSeconds = 0.0;
  int criticalNode = -1;
  double criticalTotal = 0.0;
  double segmentSum = 0.0;
  double offPct = 0.0;
  bool violation = false;
  std::vector<PhaseSegment> phases;
  std::vector<NodeWaitRow> league;
};

struct BenchRunProfile {
  std::string file;
  std::string label;
  std::vector<NodeWaitRow> league;
};

struct TraceProfile {
  std::string file;
  std::size_t events = 0;
  std::size_t flowStarts = 0;
  std::size_t flowSteps = 0;
  std::size_t flowEnds = 0;
  std::size_t flowChains = 0;        // distinct ids seen on 's' events
  std::size_t unterminated = 0;      // chains with a start but no 'f'
  std::size_t collSpans = 0;         // rt.coll complete begin/end pairs
  std::size_t collEdges = 0;         // rt.coll flow starts (one per receiver)
  std::size_t stragglerMarks = 0;    // rt.coll_last_arrival instants
};

// Sort: most-blamed straggler first; among equals the node that waited
// least (it was the one others waited for), then node id for stability.
void sortLeague(std::vector<NodeWaitRow>& league) {
  std::sort(league.begin(), league.end(),
            [](const NodeWaitRow& a, const NodeWaitRow& b) {
              if (a.stragglerOps != b.stragglerOps) {
                return a.stragglerOps > b.stragglerOps;
              }
              if (a.syncWait != b.syncWait) return a.syncWait < b.syncWait;
              return a.node < b.node;
            });
}

// ---------------------------------------------------------------------------
// pcxx-metrics-v1 (table benches)
// ---------------------------------------------------------------------------

void profileMetricsV1(const json::Value& doc, double maxOffPct,
                      std::vector<CellProfile>& out) {
  const json::Value* tables = doc.find("tables");
  if (tables == nullptr || !tables->isArray()) {
    throw pcxx::FormatError("pcxx-metrics-v1 document has no tables array");
  }
  for (const json::Value& table : tables->items) {
    const std::string title = table.stringAt("title", "(untitled)");
    const json::Value* cells = table.find("cells");
    if (cells == nullptr || !cells->isArray()) continue;
    for (const json::Value& cell : cells->items) {
      const json::Value* methods = cell.find("methods");
      if (methods == nullptr || !methods->isArray()) continue;
      for (const json::Value& method : methods->items) {
        CellProfile p;
        p.table = title;
        p.method = method.stringAt("method", "(unnamed)");
        p.segments = cell.intAt<std::int64_t>("segments");
        p.bytes = cell.countAt("bytes");
        p.totalSeconds = method.numberAt("total_seconds");

        const json::Value* perNode = method.find("per_node");
        if (perNode != nullptr && perNode->isArray()) {
          for (const json::Value& n : perNode->items) {
            NodeWaitRow row;
            row.node = n.intAt<int>("node");
            row.total = n.numberAt("total_seconds");
            row.syncWait = n.numberAt("sync_wait_seconds");
            row.stragglerOps = n.countAt("straggler_ops");
            row.collectives = n.countAt("collectives");
            row.aioStall = n.numberAt("aio_stall_seconds");
            row.aioDrain = n.numberAt("aio_drain_seconds");
            p.league.push_back(row);
            if (row.total > p.criticalTotal || p.criticalNode < 0) {
              p.criticalTotal = row.total;
              p.criticalNode = row.node;
            }
          }
          // The critical path is the last-finishing node: decompose ITS
          // phase breakdown, not the merged one, so the segments explain
          // what the bench total was actually spent on.
          for (const json::Value& n : perNode->items) {
            if (n.intAt<int>("node") != p.criticalNode) {
              continue;
            }
            const json::Value* phases = n.find("phases");
            if (phases != nullptr && phases->isObject()) {
              for (const auto& m : phases->members) {
                if (m.second.kind != json::Value::Kind::Number) continue;
                p.phases.push_back({m.first, m.second.number});
                p.segmentSum += m.second.number;
              }
            }
          }
        }
        const double base = p.criticalTotal > 0.0 ? p.criticalTotal : 1.0;
        p.offPct = 100.0 * (p.segmentSum - p.criticalTotal) / base;
        p.violation =
            p.criticalNode >= 0 && (p.offPct > maxOffPct ||
                                    p.offPct < -maxOffPct);
        sortLeague(p.league);
        out.push_back(std::move(p));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// pcxx-bench-metrics-v1 (ablation benches)
// ---------------------------------------------------------------------------

void profileBenchMetricsV1(const json::Value& doc, const std::string& file,
                           std::vector<BenchRunProfile>& out) {
  const json::Value* runs = doc.find("runs");
  if (runs == nullptr || !runs->isArray()) {
    throw pcxx::FormatError(
        "pcxx-bench-metrics-v1 document has no runs array");
  }
  for (const json::Value& run : runs->items) {
    BenchRunProfile p;
    p.file = file;
    p.label = run.stringAt("label", "(unlabeled)");
    const json::Value* metrics = run.find("metrics");
    const json::Value* perNode =
        metrics != nullptr ? metrics->find("per_node") : nullptr;
    if (perNode != nullptr && perNode->isArray()) {
      for (size_t i = 0; i < perNode->items.size(); ++i) {
        const json::Value& n = perNode->items[i];
        const json::Value* counters = n.find("counters");
        const json::Value* seconds = n.find("seconds");
        NodeWaitRow row;
        row.node = static_cast<int>(i);
        if (counters != nullptr) {
          row.stragglerOps = counters->countAt("rt.coll_straggler_ops");
          row.collectives = counters->countAt("rt.collectives");
        }
        if (seconds != nullptr) {
          row.syncWait = seconds->numberAt("rt.sync_wait_seconds");
          row.aioStall = seconds->numberAt("aio.stall_seconds");
          row.aioDrain = seconds->numberAt("aio.drain_seconds");
        }
        p.league.push_back(row);
      }
    }
    sortLeague(p.league);
    out.push_back(std::move(p));
  }
}

// ---------------------------------------------------------------------------
// Chrome traces
// ---------------------------------------------------------------------------

// Flow ids are hex strings in the emitted traces (numeric ids above 2^62
// would collapse under double parsing); tolerate plain numbers for
// foreign traces.
std::string flowIdOf(const json::Value& e) {
  const json::Value* v = e.find("id");
  if (v == nullptr) return {};
  if (v->kind == json::Value::Kind::String) return v->str;
  std::ostringstream ss;
  ss.precision(17);
  ss << v->number;
  return ss.str();
}

void profileTrace(const json::Value& doc, const std::string& file,
                  std::vector<TraceProfile>& out) {
  const json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->isArray()) {
    throw pcxx::FormatError("trace document has no traceEvents array");
  }
  TraceProfile p;
  p.file = file;
  std::set<std::string> started;
  std::set<std::string> ended;
  std::size_t collBegins = 0;
  std::size_t collEnds = 0;
  for (const json::Value& e : events->items) {
    const std::string ph = e.stringAt("ph");
    const std::string name = e.stringAt("name");
    if (ph == "M") continue;  // metadata records are not trace events
    ++p.events;
    if (ph == "s") {
      ++p.flowStarts;
      started.insert(flowIdOf(e));
      if (name == "rt.coll") ++p.collEdges;
    } else if (ph == "t") {
      ++p.flowSteps;
    } else if (ph == "f") {
      ++p.flowEnds;
      ended.insert(flowIdOf(e));
    } else if (ph == "B" && name == "rt.coll") {
      ++collBegins;
    } else if (ph == "E" && name == "rt.coll") {
      ++collEnds;
    } else if (ph == "i" && name == "rt.coll_last_arrival") {
      ++p.stragglerMarks;
    }
  }
  p.flowChains = started.size();
  for (const std::string& id : started) {
    if (ended.count(id) == 0) ++p.unterminated;
  }
  p.collSpans = std::min(collBegins, collEnds);
  out.push_back(std::move(p));
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

void printLeagueText(std::ostream& os, const std::vector<NodeWaitRow>& league,
                     bool withTotals, const char* indent) {
  os << indent
     << "node  straggler_ops  collectives  sync_wait_s  aio_stall_s  "
        "aio_drain_s";
  if (withTotals) os << "  total_s";
  os << "\n";
  for (const NodeWaitRow& r : league) {
    os << indent << r.node << "  " << r.stragglerOps << "  " << r.collectives
       << "  " << r.syncWait << "  " << r.aioStall << "  "
       << r.aioDrain;
    if (withTotals) os << "  " << r.total;
    os << "\n";
  }
}

void renderText(const std::vector<CellProfile>& cells,
                const std::vector<BenchRunProfile>& runs,
                const std::vector<TraceProfile>& traces, double maxOffPct,
                long violations) {
  for (const CellProfile& c : cells) {
    std::cout << "== " << c.table << " | " << c.method << " | segments "
              << c.segments << " | " << c.bytes << " bytes\n";
    std::cout << "   total " << c.totalSeconds << " s; critical path: ";
    if (c.criticalNode < 0) {
      std::cout << "(no per-node data)\n";
      continue;
    }
    std::cout << "node " << c.criticalNode << " (" << c.criticalTotal
              << " s), segment sum " << c.segmentSum << " s, off "
              << c.offPct << "%"
              << (c.violation ? "  ** EXCEEDS --max-off-pct **" : "") << "\n";
    for (const PhaseSegment& s : c.phases) {
      const double pct =
          c.criticalTotal > 0.0 ? 100.0 * s.seconds / c.criticalTotal : 0.0;
      std::cout << "     " << s.name << "  " << s.seconds << " s  ("
                << pct << "%)\n";
    }
    std::cout << "   straggler league:\n";
    printLeagueText(std::cout, c.league, /*withTotals=*/true, "     ");
  }
  for (const BenchRunProfile& r : runs) {
    std::cout << "== bench run \"" << r.label << "\" (" << r.file << ")\n";
    printLeagueText(std::cout, r.league, /*withTotals=*/false, "     ");
  }
  for (const TraceProfile& t : traces) {
    std::cout << "== trace " << t.file << "\n"
              << "     events " << t.events << ", flow chains "
              << t.flowChains << " (starts " << t.flowStarts << ", steps "
              << t.flowSteps << ", ends " << t.flowEnds << ", unterminated "
              << t.unterminated << ")\n"
              << "     collective spans " << t.collSpans << ", causal edges "
              << t.collEdges << ", straggler marks " << t.stragglerMarks
              << "\n";
  }
  if (violations > 0) {
    std::cout << violations
              << " critical-path decomposition(s) off by more than "
              << maxOffPct << "%\n";
  }
}

void writeLeague(json::Writer& w, const std::vector<NodeWaitRow>& league) {
  w.beginArray();
  for (const NodeWaitRow& r : league) {
    w.beginObject().member("node", r.node)
        .member("straggler_ops", r.stragglerOps)
        .member("collectives", r.collectives)
        .member("sync_wait_seconds", r.syncWait)
        .member("aio_stall_seconds", r.aioStall)
        .member("aio_drain_seconds", r.aioDrain)
        .member("total_seconds", r.total).endObject();
  }
  w.endArray();
}

void renderJson(const std::vector<CellProfile>& cells,
                const std::vector<BenchRunProfile>& runs,
                const std::vector<TraceProfile>& traces, double maxOffPct,
                long violations) {
  json::Writer w;
  w.beginObject().member("schema", "pcxx-prof-v1")
      .member("max_off_pct", maxOffPct).key("cells").beginArray();
  for (const CellProfile& c : cells) {
    w.beginObject().member("table", c.table).member("method", c.method)
        .member("segments", c.segments).member("bytes", c.bytes)
        .member("total_seconds", c.totalSeconds)
        .member("critical_node", c.criticalNode)
        .member("critical_total_seconds", c.criticalTotal)
        .member("segment_sum_seconds", c.segmentSum)
        .member("off_pct", c.offPct).member("violation", c.violation)
        .key("phases").beginObject();
    for (const PhaseSegment& p : c.phases) w.member(p.name, p.seconds);
    w.endObject().key("straggler_league");
    writeLeague(w, c.league);
    w.endObject();
  }
  w.endArray().key("bench_runs").beginArray();
  for (const BenchRunProfile& r : runs) {
    w.beginObject().member("file", r.file).member("label", r.label)
        .key("straggler_league");
    writeLeague(w, r.league);
    w.endObject();
  }
  w.endArray().key("traces").beginArray();
  for (const TraceProfile& t : traces) {
    w.beginObject().member("file", t.file).member("events", t.events)
        .member("flow_chains", t.flowChains)
        .member("flow_starts", t.flowStarts)
        .member("flow_steps", t.flowSteps).member("flow_ends", t.flowEnds)
        .member("unterminated_chains", t.unterminated)
        .member("coll_spans", t.collSpans).member("coll_edges", t.collEdges)
        .member("straggler_marks", t.stragglerMarks).endObject();
  }
  w.endArray().member("violations", violations).endObject();
  std::cout << w.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pcxx;

  Options opts("pcxx-prof",
               "Critical-path and straggler profiler over --metrics-json "
               "reports and --trace-json Chrome traces. Inputs are "
               "classified by content; pass any mix of artifact files.");
  opts.add("format", "text", "output format: text or json");
  opts.add("max-off-pct", "1.0",
           "fail (exit 3) when a cell's critical-path segment sum deviates "
           "from the critical node's total by more than this percentage");

  try {
    if (!opts.parse(argc, argv)) return 0;
  } catch (const UsageError& e) {
    std::cerr << "pcxx-prof: " << e.what() << "\n";
    return 2;
  }
  const std::string format = opts.get("format");
  if (format != "text" && format != "json") {
    std::cerr << "pcxx-prof: unknown --format '" << format
              << "' (expected text or json)\n";
    return 2;
  }
  if (opts.positional().empty()) {
    std::cerr << "pcxx-prof: no input files\n" << opts.usage();
    return 2;
  }
  double maxOffPct = 0.0;
  try {
    maxOffPct = opts.getDouble("max-off-pct");
  } catch (const Error& e) {
    std::cerr << "pcxx-prof: " << e.what() << "\n";
    return 2;
  }

  std::vector<CellProfile> cells;
  std::vector<BenchRunProfile> runs;
  std::vector<TraceProfile> traces;
  for (const std::string& path : opts.positional()) {
    try {
      const json::Value doc = json::parseFile(path);
      const std::string schema =
          doc.isObject() ? doc.stringAt("schema") : std::string();
      if (schema == "pcxx-metrics-v1") {
        profileMetricsV1(doc, maxOffPct, cells);
      } else if (schema == "pcxx-bench-metrics-v1") {
        profileBenchMetricsV1(doc, path, runs);
      } else if (doc.isObject() && doc.find("traceEvents") != nullptr) {
        profileTrace(doc, path, traces);
      } else {
        std::cerr << "pcxx-prof: " << path
                  << ": not a pcxx metrics report or Chrome trace\n";
        return 2;
      }
    } catch (const Error& e) {
      std::cerr << "pcxx-prof: " << e.what() << "\n";
      return 2;
    }
  }

  const long violations =
      std::count_if(cells.begin(), cells.end(),
                    [](const CellProfile& c) { return c.violation; });
  if (format == "json") {
    renderJson(cells, runs, traces, maxOffPct, violations);
  } else {
    renderText(cells, runs, traces, maxOffPct, violations);
  }
  return violations > 0 ? 3 : 0;
}
