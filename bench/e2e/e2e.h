// End-to-end benchmark harness shared by pcxx_e2e's main and its workloads.
//
// A workload times two kinds of collective op, a write and a read. Every
// timed op runs between two barriers and node 0 books the wall time between
// them, so a latency is what the slowest node saw. After the window each
// node checks its result element-exact and the failures are summed. The
// harness also keeps the benchmark's own spans around calls into the
// library (traced runs only) and books the collectives the benchmark itself
// issues, so per-layer numbers can exclude them.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/runtime/machine.h"
#include "src/util/bytes.h"

namespace pcxx::e2e {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Op { Write = 0, Read = 1 };
constexpr int kOps = 2;

/// Benchmark spans around calls into the library.
enum class Span {
  Insert,
  Write,
  Open,
  Seek,
  Read,
  Extract,
  Save,
  Restore,
  kCount
};
constexpr int kSpans = static_cast<int>(Span::kCount);

/// Sizes and paths a workload is built from.
struct Config {
  std::uint64_t seed = 1;
  bool smoke = false;    ///< tiny shapes for a quick pass over every path
  bool model = false;    ///< paragon virtual-time file system, no warm-up
  std::string outDir;    ///< directory for traces and posix-backed files
};

/// One node's span accounting, plus the collectives the benchmark itself
/// issued (so the library's collective count can be isolated). A span's
/// self time is its seconds minus its child spans and minus the disjoint
/// library phases (obs timers) that ran inside it.
struct NodeLedger {
  std::array<double, kSpans> seconds{};
  std::array<std::uint64_t, kSpans> count{};
  std::array<double, kSpans> childSeconds{};
  std::array<double, kSpans> phaseSeconds{};
  int open = -1;  ///< innermost open span, -1 = none
  std::uint64_t benchCollectives = 0;
};

/// State of one timed phase (or of the virtual-time replay).
class Run {
 public:
  /// A timed run keeps going past `seconds` until each op kind has run
  /// `minOps` times.
  Run(bool traced, bool replay, double seconds, std::uint64_t minOps = 0);

  bool traced() const { return traced_; }
  bool replay() const { return replay_; }

  /// What a traced run or a replay attaches to a region (untraced timed
  /// runs attach nothing).
  enum class Observe { Trace, Metrics, None };

  /// Runs `fn` on every node of `m`. Traced runs and replays attach the
  /// machine's metrics registry (wall time; the model's virtual time in
  /// replays); traced runs add a fresh trace session for Observe::Trace.
  /// Replays add the region's virtual makespan.
  void region(rt::Machine& m, Observe observe,
              const std::function<void(rt::Node&)>& fn);

  /// Collective. Timed runs: true while node 0 is before the deadline or
  /// short of the op floor. Replays: true for the first `replayRounds`
  /// rounds.
  bool more(rt::Node& node, int roundsDone, int replayRounds);

  /// One timed op on every node of the current region (see file comment).
  /// `check` returns this node's mismatch count. Replays run `op` alone.
  void timedOp(rt::Node& node, Op kind, std::uint64_t payloadBytes,
               const std::function<void()>& op,
               const std::function<std::int64_t()>& check);

  /// Node 0: book a failure found outside an op (e.g. a write that a later
  /// read-back proved wrong).
  void fail(const std::string& why);

  /// Node 0, replays: bytes the files written hold.
  void addStored(std::uint64_t bytes) { storedBytes_ += bytes; }

  // -- results (read after the phase) ---------------------------------------
  std::array<std::vector<double>, kOps> latency;  ///< passing ops, seconds
  std::array<std::uint64_t, kOps> payload{};  ///< user bytes of passing ops
  std::array<std::uint64_t, kOps> opCount{};  ///< attempted, per kind
  std::array<int, kOps> nodes{};              ///< node count per op kind
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failure reasons
  std::vector<NodeLedger> ledger;   ///< per node id (traced runs)
  double virtualSeconds = 0.0;      ///< replays: summed region makespans
  std::uint64_t storedBytes() const { return storedBytes_; }

  /// Metrics of every machine the phase ran on, merged over nodes.
  obs::NodeSnapshot mergedMetrics() const;
  /// One Chrome trace per traced region, in run order.
  const std::vector<std::unique_ptr<obs::TraceSession>>& traces() const {
    return traces_;
  }

 private:
  friend class SpanScope;
  /// A collective the benchmark issues: in traced runs its count goes to
  /// the node's ledger instead of the library's share.
  double benchCollective(rt::Node& node, double value, bool sum);

  bool traced_;
  bool replay_;
  Clock::time_point deadline_;
  std::uint64_t minOps_;
  std::uint64_t storedBytes_ = 0;
  std::map<const rt::Machine*, std::unique_ptr<obs::MetricsRegistry>>
      registries_;
  std::vector<std::unique_ptr<obs::TraceSession>> traces_;
};

/// RAII benchmark span: wall seconds into the node's ledger and, while a
/// trace session is attached, a B/E pair on the node's track. No-op in
/// untraced runs.
class SpanScope {
 public:
  SpanScope(Run& run, rt::Node& node, Span span);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Run* run_;
  rt::Node* node_;
  Span span_;
  int parent_ = -1;
  double phases0_ = 0.0;
  Clock::time_point t0_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Machines, file system, data, pre-written inputs and warm-up ops.
  virtual void setup() = 0;
  /// Timed ops until the run's deadline; the first round of ops runs in
  /// traced regions so the Chrome trace stays bounded. With a replay Run
  /// (Config::model) the first rounds run once, bare.
  virtual void timed(Run& run) = 0;
  /// Node 0's packed element bytes for one record (probe input).
  virtual ByteBuffer sampleBytes() = 0;
  /// Node count of the machine the workload's barrier probe should use.
  virtual int nodes() const = 0;
};

/// Workload names in the order the benchmark runs them.
const std::vector<std::string>& workloadNames();

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Config& config);

}  // namespace pcxx::e2e
