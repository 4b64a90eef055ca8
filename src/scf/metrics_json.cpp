#include "scf/metrics_json.h"

#include "util/json.h"

namespace pcxx::scf {

namespace {

using obs::Counter;
using obs::NodeSnapshot;
using obs::Timer;

void writePhases(json::Writer& w, const PhaseBreakdown& p) {
  w.beginObject().member("insert_buffer_fill", p.insertBufferFill)
      .member("header", p.header).member("redistribution", p.redistribution)
      .member("pfs_read", p.pfsRead).member("pfs_write", p.pfsWrite)
      .member("other", p.other).endObject();
}

void writeMethod(json::Writer& w, const MethodMetrics& m) {
  const NodeSnapshot& merged = m.snapshot.merged;
  double nodeSum = 0.0;
  for (double s : m.nodeSeconds) nodeSum += s;

  w.beginObject().member("method", m.method)
      .member("total_seconds", m.totalSeconds)
      .member("node_seconds_sum", nodeSum).key("phases");
  writePhases(w, phaseBreakdown(merged, nodeSum));
  w.key("redistribution").beginObject()
      .member("bytes_sent", merged.counter(Counter::RedistBytesSent))
      .member("messages", merged.counter(Counter::RedistMessagesSent))
      .member("elements_moved", merged.counter(Counter::RedistElementsMoved))
      .member("wait_seconds", merged.timer(Timer::RedistWaitSeconds))
      .endObject();
  obs::writeCountersAndSeconds(w, merged);
  w.key("per_node").beginArray();
  for (size_t i = 0; i < m.snapshot.perNode.size(); ++i) {
    const double nodeTotal =
        i < m.nodeSeconds.size() ? m.nodeSeconds[i] : 0.0;
    const NodeSnapshot& ns = m.snapshot.perNode[i];
    w.beginObject().member("node", i).member("total_seconds", nodeTotal)
        .key("phases");
    writePhases(w, phaseBreakdown(ns, nodeTotal));
    // Runtime wait attribution per node: how long this node sat in
    // collectives, how often it was the one everyone waited for, and its
    // local aio pipeline stalls — the inputs to pcxx-prof's straggler
    // league table.
    w.member("sync_wait_seconds", ns.timer(Timer::RtSyncWaitSeconds))
        .member("straggler_ops", ns.counter(Counter::RtCollStragglerOps))
        .member("collectives", ns.counter(Counter::RtCollectives))
        .member("aio_stall_seconds", ns.timer(Timer::AioStallSeconds))
        .member("aio_drain_seconds", ns.timer(Timer::AioDrainSeconds))
        .endObject();
  }
  w.endArray().endObject();
}

}  // namespace

PhaseBreakdown phaseBreakdown(const NodeSnapshot& s, double totalSeconds) {
  PhaseBreakdown p;
  p.insertBufferFill = s.timer(Timer::DsBufferFillSeconds);
  p.header = s.timer(Timer::DsHeaderSeconds);
  p.redistribution = s.timer(Timer::DsRedistSeconds);
  p.pfsRead = s.timer(Timer::PfsReadSeconds);
  p.pfsWrite = s.timer(Timer::PfsWriteSeconds);
  p.other = totalSeconds - (p.insertBufferFill + p.header + p.redistribution +
                            p.pfsRead + p.pfsWrite);
  return p;
}

std::string metricsReportJson(const std::vector<BenchTableResult>& tables) {
  json::Writer w;
  w.beginObject().member("schema", "pcxx-metrics-v1").key("tables")
      .beginArray();
  for (const BenchTableResult& table : tables) {
    w.beginObject().member("title", table.config.title)
        .member("platform", table.config.platform)
        .member("nprocs", table.config.nprocs)
        .member("sorted_read", table.config.sortedRead).key("cells")
        .beginArray();
    for (const CellResult& cell : table.cells) {
      w.beginObject().member("segments", cell.segments)
          .member("bytes", cell.bytes).key("methods").beginArray();
      for (const MethodMetrics& m : cell.metrics) writeMethod(w, m);
      w.endArray().endObject();
    }
    w.endArray().endObject();
  }
  w.endArray().endObject();
  return w.str();
}

void writeMetricsJson(const std::string& path,
                      const std::vector<BenchTableResult>& tables) {
  json::writeFile(path, metricsReportJson(tables));
}

}  // namespace pcxx::scf
