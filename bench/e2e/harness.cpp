#include <algorithm>
#include <string>
#include <utility>

#include "bench/e2e/e2e.h"
#include "src/util/strfmt.h"

namespace pcxx::e2e {
namespace {

const char* const kSpanNames[kSpans] = {
    "e2e.insert", "e2e.write",   "e2e.open", "e2e.seek",
    "e2e.read",   "e2e.extract", "e2e.save", "e2e.restore"};

constexpr size_t kMaxErrors = 8;

/// Library phases that never nest inside one another, summed: what a span
/// spent in them is not the span's own time.
double disjointPhaseSeconds(const obs::NodeMetrics& m) {
  using obs::Timer;
  return m.seconds(Timer::DsBufferFillSeconds) +
         m.seconds(Timer::DsHeaderSeconds) +
         m.seconds(Timer::DsRedistSeconds) +
         m.seconds(Timer::PfsReadSeconds) + m.seconds(Timer::PfsWriteSeconds) +
         m.seconds(Timer::AioStallSeconds) + m.seconds(Timer::AioDrainSeconds);
}

}  // namespace

Run::Run(bool traced, bool replay, double seconds, std::uint64_t minOps)
    : traced_(traced),
      replay_(replay),
      deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds))),
      minOps_(minOps) {}

void Run::region(rt::Machine& m, Observe observe,
                 const std::function<void(rt::Node&)>& fn) {
  if (ledger.size() < static_cast<size_t>(m.nprocs())) {
    ledger.resize(static_cast<size_t>(m.nprocs()));
  }
  if ((traced_ || replay_) && observe != Observe::None) {
    auto& registry = registries_[&m];
    if (registry == nullptr) {
      registry = std::make_unique<obs::MetricsRegistry>(m.nprocs());
    }
    obs::Observer observer;
    observer.metrics = registry.get();
    // Replays observe the model's virtual clocks: the aio pipelines and
    // the collectives book their waits in modeled time only.
    observer.timeMode = replay_ ? obs::Observer::TimeMode::Virtual
                                : obs::Observer::TimeMode::Wall;
    if (observe == Observe::Trace && !replay_) {
      traces_.push_back(std::make_unique<obs::TraceSession>(m.nprocs()));
      observer.trace = traces_.back().get();
    }
    m.attachObserver(observer);
  }
  try {
    m.run(fn);
  } catch (...) {
    m.detachObserver();
    throw;
  }
  m.detachObserver();
  if (replay_) virtualSeconds += m.maxVirtualTime();
}

double Run::benchCollective(rt::Node& node, double value, bool sum) {
  obs::NodeObs* o = node.obs();
  obs::NodeMetrics* metrics = o != nullptr ? o->metrics : nullptr;
  const std::uint64_t c0 =
      metrics != nullptr ? metrics->counter(obs::Counter::RtCollectives) : 0;
  const double out = sum ? node.allreduceSum(value) : node.allreduceMax(value);
  if (metrics != nullptr) {
    ledger[static_cast<size_t>(node.id())].benchCollectives +=
        metrics->counter(obs::Counter::RtCollectives) - c0;
  }
  return out;
}

bool Run::more(rt::Node& node, int roundsDone, int replayRounds) {
  if (replay_) return roundsDone < replayRounds;
  const bool mine =
      node.id() == 0 && (Clock::now() < deadline_ ||
                         std::min(opCount[0], opCount[1]) < minOps_);
  return benchCollective(node, mine ? 1.0 : 0.0, /*sum=*/false) > 0.0;
}

void Run::timedOp(rt::Node& node, Op kind, std::uint64_t payloadBytes,
                  const std::function<void()>& op,
                  const std::function<std::int64_t()>& check) {
  const auto k = static_cast<size_t>(kind);
  if (node.id() == 0) {
    nodes[k] = node.nprocs();
    ++opCount[k];
    ++attempted;
  }
  if (replay_) {
    op();
    if (node.id() == 0) payload[k] += payloadBytes;
    return;
  }
  // Both barriers are max-reductions: the window opens when every node
  // is ready and closes when the slowest node is done.
  benchCollective(node, 0.0, /*sum=*/false);
  const auto t0 = Clock::now();
  std::string error;
  try {
    op();
  } catch (const std::exception& e) {
    if (node.machine().aborted()) throw;
    error = e.what();
  }
  benchCollective(node, 0.0, /*sum=*/false);
  const double seconds = secondsSince(t0);
  if (error.empty()) {
    try {
      const std::int64_t bad = check();
      if (bad != 0) {
        error = strfmt("%lld element value(s) differ from the source",
                       static_cast<long long>(bad));
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  const double failedNodes =
      benchCollective(node, error.empty() ? 0.0 : 1.0, /*sum=*/true);
  if (node.id() != 0) return;
  if (failedNodes > 0.0) {
    fail(strfmt("%s op %llu failed on %.0f node(s)%s%s",
                kind == Op::Write ? "write" : "read",
                static_cast<unsigned long long>(opCount[k] - 1), failedNodes,
                error.empty() ? "" : ": ", error.c_str()));
    return;
  }
  latency[k].push_back(seconds);
  payload[k] += payloadBytes;
}

void Run::fail(const std::string& why) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(why);
}

obs::NodeSnapshot Run::mergedMetrics() const {
  obs::NodeSnapshot total;
  for (const auto& [machine, registry] : registries_) {
    const obs::NodeSnapshot merged = registry->snapshot().merged;
    for (size_t i = 0; i < total.counters.size(); ++i) {
      total.counters[i] += merged.counters[i];
    }
    for (size_t i = 0; i < total.seconds.size(); ++i) {
      total.seconds[i] += merged.seconds[i];
    }
  }
  return total;
}

SpanScope::SpanScope(Run& run, rt::Node& node, Span span)
    : run_(run.traced() ? &run : nullptr), node_(&node), span_(span) {
  if (run_ == nullptr) return;
  NodeLedger& l = run_->ledger[static_cast<size_t>(node.id())];
  parent_ = l.open;
  l.open = static_cast<int>(span);
  obs::NodeObs* o = node.obs();
  if (o != nullptr && o->metrics != nullptr) {
    phases0_ = disjointPhaseSeconds(*o->metrics);
  }
  if (o != nullptr && o->trace != nullptr) {
    o->trace->begin(node.id(), kSpanNames[static_cast<int>(span)], o->now());
  }
  t0_ = Clock::now();
}

SpanScope::~SpanScope() {
  if (run_ == nullptr) return;
  const double seconds = secondsSince(t0_);
  const auto i = static_cast<size_t>(span_);
  NodeLedger& l = run_->ledger[static_cast<size_t>(node_->id())];
  l.seconds[i] += seconds;
  ++l.count[i];
  l.open = parent_;
  if (parent_ >= 0) l.childSeconds[static_cast<size_t>(parent_)] += seconds;
  obs::NodeObs* o = node_->obs();
  if (o != nullptr && o->metrics != nullptr) {
    l.phaseSeconds[i] += disjointPhaseSeconds(*o->metrics) - phases0_;
  }
  if (o != nullptr && o->trace != nullptr) {
    o->trace->end(node_->id(), kSpanNames[static_cast<int>(span_)],
                  o->now());
  }
}

}  // namespace pcxx::e2e
