// pcxx::obs — observability for the d/stream stack.
//
// Three pieces, threaded through every layer (runtime, pfs, dstream, scf):
//
//  * MetricsRegistry — one NodeMetrics slot per node, holding cheap
//    owner-written / concurrently-readable atomic counters, phase timers
//    (seconds of virtual or wall time), log2 size histograms, and a
//    per-peer byte matrix for the redistribution exchange. snapshot()
//    produces a plain-data copy plus a cross-node merge.
//
//  * TraceSession — structured trace events in Chrome trace_event JSON
//    (one track per node: B/E spans for stream phases, C counter tracks
//    for buffer occupancy). The output loads in Perfetto / chrome://tracing.
//
//  * PCXX_OBS_* macros — the instrumentation points. They compile to
//    no-ops when the PCXX_OBS CMake option is OFF (PCXX_OBS_ENABLED=0),
//    and to a single null-check when ON but no observer is attached.
//
// Layering: obs depends only on util. The runtime attaches observers to a
// Machine (Machine::attachObserver) and hands each node a NodeObs; pfs and
// dstream instrument through Node::obs(). See docs/OBSERVABILITY.md for
// the metric catalogue and the trace span taxonomy.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/json.h"

#ifndef PCXX_OBS_ENABLED
#define PCXX_OBS_ENABLED 1
#endif

namespace pcxx::obs {

// ---------------------------------------------------------------------------
// Metric catalogue (names and units: docs/OBSERVABILITY.md)
// ---------------------------------------------------------------------------

/// Monotone integer counters (ops, bytes, messages).
enum class Counter : int {
  DsInserts,          ///< insert operations (<< on a d/stream)
  DsWrites,           ///< write() records completed
  DsReads,            ///< read() records completed
  DsUnsortedReads,    ///< unsortedRead() records completed
  DsExtracts,         ///< extract operations (>> from a d/stream)
  DsSkips,            ///< skipRecord() calls
  DsHeaderEncodes,    ///< record headers encoded
  DsHeaderDecodes,    ///< record headers decoded
  DsHeaderBytes,      ///< record header bytes produced
  DsSizeTableBytes,   ///< size-table bytes produced (this node's share)
  DsBufferFillBytes,  ///< element bytes packed into per-node buffers
  RedistBytesSent,      ///< phase-2 bytes sent to *other* nodes
  RedistMessagesSent,   ///< phase-2 non-empty buffers sent to other nodes
  RedistElementsMoved,  ///< elements routed to other nodes
  RedistPlanHits,       ///< redistribution plans served from a cache
  RedistPlanMisses,     ///< redistribution plans built from scratch
  PfsReadOps,         ///< storage read requests issued
  PfsWriteOps,        ///< storage write requests issued
  PfsReadBytes,       ///< bytes requested by reads
  PfsWriteBytes,      ///< bytes written
  PfsCollectiveOps,   ///< node-order collective transfers + syncs + opens
  PfsRetries,         ///< storage op attempts retried under a RetryPolicy
  PfsGiveUps,         ///< storage ops abandoned (attempts/deadline spent)
  RtMessagesSent,     ///< point-to-point messages sent
  RtMessageBytes,     ///< point-to-point payload bytes sent
  RtCollectives,      ///< collective operations entered (incl. barriers)
  AioSubmits,         ///< write-behind jobs handed to a flusher
  AioDrains,          ///< write-behind drain points (close/collectives)
  AioPrefetchHits,    ///< records consumed from the read-ahead cache
  AioPrefetchMisses,  ///< records read synchronously despite prefetch on
  AioBgWriteBytes,    ///< bytes flushed by background writer threads
  AioBgReadBytes,     ///< bytes fetched by background prefetch threads
  RtCollStragglerOps,  ///< collectives this node was the last to arrive at
  RtWatchdogTrips,     ///< watchdog deadlines that expired on this node
  RtChaosDropped,      ///< p2p messages dropped by a ChaosPlan
  RtChaosDelayed,      ///< p2p messages delay-injected by a ChaosPlan
  RtChaosDuplicated,   ///< p2p messages duplicated by a ChaosPlan
  RtChaosReordered,    ///< p2p messages reorder-deferred by a ChaosPlan
  RtChaosSkewed,       ///< collective arrivals skew-injected by a ChaosPlan
  DsIndexFooterWrites, ///< index footers appended on stream close
  DsIndexHits,         ///< reader operations served by a valid index footer
  DsIndexFallbacks,    ///< footer absent/corrupt: chain replay used instead
  DsIndexSeeks,        ///< seekRecord() calls (indexed or replayed)
  DsIndexProjections,  ///< records read under a field projection
  PfsCodecRawBytes,      ///< logical bytes written through a chunk codec
  PfsCodecStoredBytes,   ///< frame header+payload bytes the codec stored
  PfsCodecDedupHits,     ///< chunks written as dedup ref frames
  PfsCodecDamagedChunks, ///< chunk reads that fell back to zeros
  kCount
};

/// Accumulated seconds (virtual time in simulation mode, wall otherwise).
enum class Timer : int {
  DsWriteSeconds,       ///< whole write() bracket (overlaps the phases)
  DsReadSeconds,        ///< whole read/unsortedRead bracket (overlaps)
  DsBufferFillSeconds,  ///< phase: pointer-list traversal + packing
  DsHeaderSeconds,      ///< phase: header construct + checksum collectives
  DsRedistSeconds,      ///< phase: two-phase redistribution exchange
  RedistWaitSeconds,    ///< of which: sync skew absorbed in the exchange
  RedistPlanBuildSeconds,  ///< phase: building redistribution plans
  PfsReadSeconds,       ///< phase: inside pfs read ops (incl. their syncs)
  PfsWriteSeconds,      ///< phase: inside pfs write ops (incl. their syncs)
  PfsQueueWaitSeconds,  ///< of which: small-op I/O-node queue wait
  PfsBackoffSeconds,    ///< modeled backoff charged before retries
  RtSyncWaitSeconds,    ///< total barrier/collective skew absorbed
  ScfOutputSeconds,     ///< harness bracket around IoMethod::output
  ScfInputSeconds,      ///< harness bracket around IoMethod::input
  AioStallSeconds,      ///< producer blocked on a full write-behind queue
  AioDrainSeconds,      ///< waiting for the flusher at drain points
  PfsCodecSeconds,      ///< wall seconds of codec CPU: compress,
                        ///< decompress, content hashing, dedup compares
  kCount
};

/// Log2-bucket size histograms.
enum class Hist : int {
  PfsReadSize,   ///< bytes per storage read request
  PfsWriteSize,  ///< bytes per storage write request
  AioQueueDepth, ///< write-behind queue occupancy sampled at each submit
  RedistChunkBytes,  ///< bytes per peer per chunked-exchange round
  RtCollSkew,    ///< per-collective skew absorbed, in whole microseconds
  kCount
};

constexpr int kNumCounters = static_cast<int>(Counter::kCount);
constexpr int kNumTimers = static_cast<int>(Timer::kCount);
constexpr int kNumHists = static_cast<int>(Hist::kCount);

const char* counterName(Counter c);
const char* timerName(Timer t);
const char* histName(Hist h);

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Power-of-two bucket histogram: bucket 0 holds value 0, bucket i holds
/// [2^(i-1), 2^i). Owner-thread writes, any-thread reads (relaxed atomics).
class Histogram {
 public:
  static constexpr int kBuckets = 33;

  void record(std::uint64_t value);
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  std::uint64_t total() const;
  void reset();
  /// Smallest value belonging to bucket i.
  static std::uint64_t bucketLow(int i);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

// ---------------------------------------------------------------------------
// NodeMetrics / MetricsRegistry
// ---------------------------------------------------------------------------

/// Per-node metric slots. The owning node's thread is the only writer;
/// loads/stores are relaxed atomics so cross-thread snapshots are race-free
/// (TSan-clean) without fences on the hot path.
class NodeMetrics {
 public:
  explicit NodeMetrics(int nprocs);

  void add(Counter c, std::uint64_t delta) {
    auto& a = counters_[static_cast<size_t>(c)];
    a.store(a.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
  void addSeconds(Timer t, double delta) {
    auto& a = timers_[static_cast<size_t>(t)];
    a.store(a.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
  void record(Hist h, std::uint64_t value) {
    hists_[static_cast<size_t>(h)].record(value);
  }
  /// Bytes this node sent to `peer` during redistribution.
  void addPeerBytes(int peer, std::uint64_t bytes);

  std::uint64_t counter(Counter c) const {
    return counters_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }
  double seconds(Timer t) const {
    return timers_[static_cast<size_t>(t)].load(std::memory_order_relaxed);
  }
  const Histogram& hist(Hist h) const {
    return hists_[static_cast<size_t>(h)];
  }

 private:
  friend class MetricsRegistry;
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters_{};
  std::array<std::atomic<double>, kNumTimers> timers_{};
  std::array<Histogram, kNumHists> hists_{};
  std::vector<std::atomic<std::uint64_t>> peerBytes_;  // size nprocs
};

/// Plain-data copy of one node's metrics (or a cross-node merge).
struct NodeSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<double, kNumTimers> seconds{};
  std::array<std::array<std::uint64_t, Histogram::kBuckets>, kNumHists>
      hists{};
  std::vector<std::uint64_t> peerBytes;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<size_t>(c)];
  }
  double timer(Timer t) const { return seconds[static_cast<size_t>(t)]; }
};

struct MetricsSnapshot {
  std::vector<NodeSnapshot> perNode;
  NodeSnapshot merged;  ///< element-wise sums over all nodes
};

/// One NodeMetrics per node, plus the merged cross-node snapshot.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int nnodes);

  int nnodes() const { return static_cast<int>(nodes_.size()); }
  NodeMetrics& node(int i) { return *nodes_[static_cast<size_t>(i)]; }
  const NodeMetrics& node(int i) const { return *nodes_[static_cast<size_t>(i)]; }

  MetricsSnapshot snapshot() const;
  void reset();

 private:
  std::vector<std::unique_ptr<NodeMetrics>> nodes_;
};

/// Write a snapshot's non-zero metrics ("merged" and "per_node" counters,
/// seconds, histograms, peer-byte matrix) as one JSON object: the generic
/// `--metrics-json` dump of benches without a phase report.
void writeSnapshot(json::Writer& w, const MetricsSnapshot& s);
std::string snapshotJson(const MetricsSnapshot& s);  ///< as a document
/// Write the "counters" and "seconds" members (non-zero entries only) of
/// `n` into the object `w` has open.
void writeCountersAndSeconds(json::Writer& w, const NodeSnapshot& n);

// ---------------------------------------------------------------------------
// TraceSession — Chrome trace_event JSON
// ---------------------------------------------------------------------------

/// Collects trace events on per-node tracks. Each node's events are
/// appended only by that node's thread; toJson()/writeJson() are called
/// after the SPMD region ends (Machine::run joins its threads).
///
/// Besides the `nnodes` primary tracks there are two auxiliary tracks per
/// node — "aio flusher N" and "aio prefetch N" — addressed via
/// flusherTrack()/prefetchTrack(). The aio pipelines emit their background
/// activity there with *modeled* timestamps, pushed by the owning node's
/// thread (never by the helper thread), so the single-writer-per-track
/// rule holds even with several streams open on one node. Aux tracks that
/// stay empty are omitted from the JSON.
///
/// Span names must be string literals (or otherwise outlive the session).
class TraceSession {
 public:
  explicit TraceSession(int nnodes);

  /// Auxiliary track ids for node `node`'s background pipelines. Valid as
  /// the `node` argument of begin/end/counter/instant.
  int flusherTrack(int node) const { return nnodes_ + node; }
  int prefetchTrack(int node) const { return 2 * nnodes_ + node; }

  void begin(int node, const char* name, double tsSeconds) {
    push(node, Event{name, tsSeconds, 0.0, 'B'});
  }
  void end(int node, const char* name, double tsSeconds) {
    push(node, Event{name, tsSeconds, 0.0, 'E'});
  }
  /// A counter track sample (e.g. buffer occupancy in bytes).
  void counter(int node, const char* name, double value, double tsSeconds) {
    push(node, Event{name, tsSeconds, value, 'C'});
  }
  void instant(int node, const char* name, double tsSeconds) {
    push(node, Event{name, tsSeconds, 0.0, 'i'});
  }

  /// Flow events ("ph":"s"/"t"/"f" sharing a correlation `id`): Perfetto
  /// draws an arrow along each same-id chain in timestamp order, binding
  /// every event to its enclosing slice ("bp":"e" on the terminator). The
  /// id space is partitioned by the issuer (rt::Machine::nextFlowId plus
  /// tag bits for p2p/collective edges) so chains never collide.
  void flowStart(int node, const char* name, double tsSeconds,
                 std::uint64_t id) {
    push(node, Event{name, tsSeconds, 0.0, 's', id});
  }
  void flowStep(int node, const char* name, double tsSeconds,
                std::uint64_t id) {
    push(node, Event{name, tsSeconds, 0.0, 't', id});
  }
  void flowEnd(int node, const char* name, double tsSeconds,
               std::uint64_t id) {
    push(node, Event{name, tsSeconds, 0.0, 'f', id});
  }

  int nnodes() const { return nnodes_; }
  std::size_t eventCount() const;

  /// Chrome trace_event JSON ("traceEvents" array; ts in microseconds,
  /// pid 0, tid = node id, one event per line). Loads in Perfetto.
  std::string toJson() const;
  /// Writes toJson() to a sibling temp file, then renames it over `path`,
  /// so a crash mid-dump never leaves a truncated/unparseable artifact.
  void writeJson(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    double tsSeconds;
    double value;
    char phase;
    std::uint64_t id = 0;  ///< correlation id (flow events only)
  };
  void push(int node, Event e) {
    perNode_[static_cast<size_t>(node)].push_back(e);
  }
  int nnodes_ = 0;
  std::vector<std::vector<Event>> perNode_;  // nnodes_ primary + 2x aux
};

// ---------------------------------------------------------------------------
// Observer attachment (used by rt::Machine)
// ---------------------------------------------------------------------------

/// What to observe and which time base to stamp events with.
struct Observer {
  enum class TimeMode {
    Virtual,  ///< per-node virtual clocks (simulation mode)
    Wall,     ///< wall seconds since attach
  };
  MetricsRegistry* metrics = nullptr;  ///< not owned; may be null
  TraceSession* trace = nullptr;       ///< not owned; may be null
  TimeMode timeMode = TimeMode::Virtual;
};

/// Per-node observation handle, installed by the runtime. `clock` is an
/// opaque pointer the runtime-provided `nowFn` knows how to read, so obs
/// stays independent of the runtime layer.
struct NodeObs {
  NodeMetrics* metrics = nullptr;
  TraceSession* trace = nullptr;
  int nodeId = 0;
  double (*nowFn)(const NodeObs&) = nullptr;
  const void* clock = nullptr;
  double wallEpoch = 0.0;
  /// True when timestamps are wall seconds (Observer::TimeMode::Wall); the
  /// aio pipelines skip their modeled background-track spans in that mode.
  bool wallTime = false;

  double now() const { return nowFn != nullptr ? nowFn(*this) : 0.0; }
};

/// RAII span: emits a B/E trace pair and (optionally) accumulates the
/// elapsed seconds into a phase timer. Null `o` makes it a no-op.
class PhaseScope {
 public:
  PhaseScope(NodeObs* o, const char* name, Timer timer = Timer::kCount)
      : o_(o), name_(name), timer_(timer) {
    if (o_ == nullptr) return;
    t0_ = o_->now();
    if (o_->trace != nullptr) o_->trace->begin(o_->nodeId, name_, t0_);
  }
  ~PhaseScope() {
    if (o_ == nullptr) return;
    const double t1 = o_->now();
    if (o_->trace != nullptr) o_->trace->end(o_->nodeId, name_, t1);
    if (o_->metrics != nullptr && timer_ != Timer::kCount) {
      o_->metrics->addSeconds(timer_, t1 - t0_);
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  NodeObs* o_;
  const char* name_;
  Timer timer_;
  double t0_ = 0.0;
};

}  // namespace pcxx::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. `obsExpr` is a (possibly null) obs::NodeObs*,
// typically `node.obs()`. With PCXX_OBS_ENABLED=0 the argument expressions
// are never evaluated and the macros contribute zero code.
// ---------------------------------------------------------------------------

#if PCXX_OBS_ENABLED

#define PCXX_OBS_CONCAT_IMPL_(a, b) a##b
#define PCXX_OBS_CONCAT_(a, b) PCXX_OBS_CONCAT_IMPL_(a, b)

/// Trace span + phase timer for the enclosing scope.
#define PCXX_OBS_PHASE(obsExpr, name, timerId)                       \
  ::pcxx::obs::PhaseScope PCXX_OBS_CONCAT_(pcxxObsPhase_, __LINE__)( \
      (obsExpr), (name), ::pcxx::obs::Timer::timerId)

/// Trace span (no timer) for the enclosing scope.
#define PCXX_OBS_SPAN(obsExpr, name)                                \
  ::pcxx::obs::PhaseScope PCXX_OBS_CONCAT_(pcxxObsSpan_, __LINE__)( \
      (obsExpr), (name))

#define PCXX_OBS_COUNT(obsExpr, counterId, delta)                      \
  do {                                                                 \
    ::pcxx::obs::NodeObs* pcxxObs_ = (obsExpr);                        \
    if (pcxxObs_ != nullptr && pcxxObs_->metrics != nullptr) {         \
      pcxxObs_->metrics->add(::pcxx::obs::Counter::counterId,          \
                             static_cast<std::uint64_t>(delta));       \
    }                                                                  \
  } while (0)

#define PCXX_OBS_SECONDS(obsExpr, timerId, delta)                      \
  do {                                                                 \
    ::pcxx::obs::NodeObs* pcxxObs_ = (obsExpr);                        \
    if (pcxxObs_ != nullptr && pcxxObs_->metrics != nullptr) {         \
      pcxxObs_->metrics->addSeconds(::pcxx::obs::Timer::timerId,       \
                                    (delta));                          \
    }                                                                  \
  } while (0)

#define PCXX_OBS_HIST(obsExpr, histId, value)                          \
  do {                                                                 \
    ::pcxx::obs::NodeObs* pcxxObs_ = (obsExpr);                        \
    if (pcxxObs_ != nullptr && pcxxObs_->metrics != nullptr) {         \
      pcxxObs_->metrics->record(::pcxx::obs::Hist::histId,             \
                                static_cast<std::uint64_t>(value));    \
    }                                                                  \
  } while (0)

#define PCXX_OBS_PEER_BYTES(obsExpr, peer, bytes)                      \
  do {                                                                 \
    ::pcxx::obs::NodeObs* pcxxObs_ = (obsExpr);                        \
    if (pcxxObs_ != nullptr && pcxxObs_->metrics != nullptr) {         \
      pcxxObs_->metrics->addPeerBytes(                                 \
          (peer), static_cast<std::uint64_t>(bytes));                  \
    }                                                                  \
  } while (0)

#define PCXX_OBS_TRACE_COUNTER(obsExpr, name, value)                   \
  do {                                                                 \
    ::pcxx::obs::NodeObs* pcxxObs_ = (obsExpr);                        \
    if (pcxxObs_ != nullptr && pcxxObs_->trace != nullptr) {           \
      pcxxObs_->trace->counter(pcxxObs_->nodeId, (name),               \
                               static_cast<double>(value),             \
                               pcxxObs_->now());                       \
    }                                                                  \
  } while (0)

#else  // !PCXX_OBS_ENABLED

#define PCXX_OBS_PHASE(obsExpr, name, timerId) do { } while (0)
#define PCXX_OBS_SPAN(obsExpr, name) do { } while (0)
#define PCXX_OBS_COUNT(obsExpr, counterId, delta) do { } while (0)
#define PCXX_OBS_SECONDS(obsExpr, timerId, delta) do { } while (0)
#define PCXX_OBS_HIST(obsExpr, histId, value) do { } while (0)
#define PCXX_OBS_PEER_BYTES(obsExpr, peer, bytes) do { } while (0)
#define PCXX_OBS_TRACE_COUNTER(obsExpr, name, value) do { } while (0)

#endif  // PCXX_OBS_ENABLED
