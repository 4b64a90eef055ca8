#include "obs/obs.h"

#include "util/json.h"

namespace pcxx::obs {

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "ds.inserts",
    "ds.writes",
    "ds.reads",
    "ds.unsorted_reads",
    "ds.extracts",
    "ds.skips",
    "ds.header_encodes",
    "ds.header_decodes",
    "ds.header_bytes",
    "ds.size_table_bytes",
    "ds.buffer_fill_bytes",
    "redist.bytes_sent",
    "redist.messages_sent",
    "redist.elements_moved",
    "redist.plan_hits",
    "redist.plan_misses",
    "pfs.read_ops",
    "pfs.write_ops",
    "pfs.read_bytes",
    "pfs.write_bytes",
    "pfs.collective_ops",
    "pfs.retries",
    "pfs.give_ups",
    "rt.messages_sent",
    "rt.message_bytes",
    "rt.collectives",
    "aio.submits",
    "aio.drains",
    "aio.prefetch_hits",
    "aio.prefetch_misses",
    "aio.bg_write_bytes",
    "aio.bg_read_bytes",
    "rt.coll_straggler_ops",
    "rt.watchdog_trips",
    "rt.chaos_dropped",
    "rt.chaos_delayed",
    "rt.chaos_duplicated",
    "rt.chaos_reordered",
    "rt.chaos_skewed",
    "dsindex.footer_writes",
    "dsindex.hits",
    "dsindex.fallbacks",
    "dsindex.seeks",
    "dsindex.projections",
    "pfs.codec_raw_bytes",
    "pfs.codec_stored_bytes",
    "pfs.codec_dedup_hits",
    "pfs.codec_damaged_chunks",
};

constexpr const char* kTimerNames[kNumTimers] = {
    "ds.write_seconds",
    "ds.read_seconds",
    "ds.buffer_fill_seconds",
    "ds.header_seconds",
    "ds.redist_seconds",
    "redist.wait_seconds",
    "redist.plan_build_seconds",
    "pfs.read_seconds",
    "pfs.write_seconds",
    "pfs.queue_wait_seconds",
    "pfs.backoff_seconds",
    "rt.sync_wait_seconds",
    "scf.output_seconds",
    "scf.input_seconds",
    "aio.stall_seconds",
    "aio.drain_seconds",
    "pfs.codec_seconds",
};

constexpr const char* kHistNames[kNumHists] = {
    "pfs.read_size",
    "pfs.write_size",
    "aio.queue_depth",
    "redist.chunk_bytes",
    "rt.coll_skew_seconds",
};

}  // namespace

const char* counterName(Counter c) {
  return kCounterNames[static_cast<int>(c)];
}

const char* timerName(Timer t) { return kTimerNames[static_cast<int>(t)]; }

const char* histName(Hist h) { return kHistNames[static_cast<int>(h)]; }

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

void Histogram::record(std::uint64_t value) {
  int b = 0;
  while (value != 0) {
    ++b;
    value >>= 1;
  }
  if (b >= kBuckets) b = kBuckets - 1;
  auto& a = buckets_[static_cast<size_t>(b)];
  a.store(a.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

std::uint64_t Histogram::total() const {
  std::uint64_t sum = 0;
  for (int i = 0; i < kBuckets; ++i) sum += bucket(i);
  return sum;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucketLow(int i) {
  if (i <= 0) return 0;
  return std::uint64_t{1} << (i - 1);
}

// ---------------------------------------------------------------------------
// NodeMetrics
// ---------------------------------------------------------------------------

NodeMetrics::NodeMetrics(int nprocs)
    : peerBytes_(static_cast<size_t>(nprocs > 0 ? nprocs : 0)) {}

void NodeMetrics::addPeerBytes(int peer, std::uint64_t bytes) {
  if (peer < 0 || static_cast<size_t>(peer) >= peerBytes_.size()) return;
  auto& a = peerBytes_[static_cast<size_t>(peer)];
  a.store(a.load(std::memory_order_relaxed) + bytes,
          std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::MetricsRegistry(int nnodes) {
  nodes_.reserve(static_cast<size_t>(nnodes));
  for (int i = 0; i < nnodes; ++i) {
    nodes_.push_back(std::make_unique<NodeMetrics>(nnodes));
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const int n = nnodes();
  out.perNode.resize(static_cast<size_t>(n));
  out.merged.peerBytes.assign(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const NodeMetrics& src = node(i);
    NodeSnapshot& dst = out.perNode[static_cast<size_t>(i)];
    for (int c = 0; c < kNumCounters; ++c) {
      dst.counters[static_cast<size_t>(c)] =
          src.counter(static_cast<Counter>(c));
      out.merged.counters[static_cast<size_t>(c)] +=
          dst.counters[static_cast<size_t>(c)];
    }
    for (int t = 0; t < kNumTimers; ++t) {
      dst.seconds[static_cast<size_t>(t)] = src.seconds(static_cast<Timer>(t));
      out.merged.seconds[static_cast<size_t>(t)] +=
          dst.seconds[static_cast<size_t>(t)];
    }
    for (int h = 0; h < kNumHists; ++h) {
      const Histogram& hist = src.hist(static_cast<Hist>(h));
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        dst.hists[static_cast<size_t>(h)][static_cast<size_t>(b)] =
            hist.bucket(b);
        out.merged.hists[static_cast<size_t>(h)][static_cast<size_t>(b)] +=
            hist.bucket(b);
      }
    }
    dst.peerBytes.resize(src.peerBytes_.size());
    for (size_t p = 0; p < src.peerBytes_.size(); ++p) {
      dst.peerBytes[p] = src.peerBytes_[p].load(std::memory_order_relaxed);
      if (p < out.merged.peerBytes.size()) {
        out.merged.peerBytes[p] += dst.peerBytes[p];
      }
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  for (auto& node : nodes_) {
    for (auto& c : node->counters_) c.store(0, std::memory_order_relaxed);
    for (auto& t : node->timers_) t.store(0.0, std::memory_order_relaxed);
    for (auto& h : node->hists_) h.reset();
    for (auto& p : node->peerBytes_) p.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

void writeCountersAndSeconds(json::Writer& w, const NodeSnapshot& n) {
  w.key("counters").beginObject();
  for (int c = 0; c < kNumCounters; ++c) {
    const std::uint64_t v = n.counters[static_cast<size_t>(c)];
    if (v != 0) w.member(counterName(static_cast<Counter>(c)), v);
  }
  w.endObject().key("seconds").beginObject();
  for (int t = 0; t < kNumTimers; ++t) {
    const double v = n.seconds[static_cast<size_t>(t)];
    if (v != 0.0) w.member(timerName(static_cast<Timer>(t)), v);
  }
  w.endObject();
}

namespace {

void writeNode(json::Writer& w, const NodeSnapshot& n) {
  w.beginObject();
  writeCountersAndSeconds(w, n);
  w.key("histograms").beginObject();
  for (int h = 0; h < kNumHists; ++h) {
    const auto& buckets = n.hists[static_cast<size_t>(h)];
    std::uint64_t total = 0;
    for (const std::uint64_t v : buckets) total += v;
    if (total == 0) continue;
    w.key(histName(static_cast<Hist>(h))).beginArray();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t v = buckets[static_cast<size_t>(b)];
      if (v == 0) continue;
      w.beginObject().member("ge", Histogram::bucketLow(b))
          .member("count", v).endObject();
    }
    w.endArray();
  }
  w.endObject().key("peer_bytes").beginArray();
  for (const std::uint64_t v : n.peerBytes) w.value(v);
  w.endArray().endObject();
}

}  // namespace

void writeSnapshot(json::Writer& w, const MetricsSnapshot& s) {
  w.beginObject().key("merged");
  writeNode(w, s.merged);
  w.key("per_node").beginArray();
  for (const NodeSnapshot& n : s.perNode) writeNode(w, n);
  w.endArray().endObject();
}

std::string snapshotJson(const MetricsSnapshot& s) {
  json::Writer w;
  writeSnapshot(w, s);
  return w.str();
}

}  // namespace pcxx::obs
