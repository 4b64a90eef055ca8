// pcxx::aio — per-node asynchronous I/O pipelines.
//
// The d/stream layer is collective and synchronous by construction: every
// record write is a header + a node-order collective transfer. This module
// adds overlap without changing the file format or the collective
// discipline. The split is:
//
//   * Everything *collective* (header exchange, cursor reservation, size
//     allgathers) stays synchronous on the node thread — see
//     pfs::ParallelFile::reserveOrdered, which advances the shared cursor
//     exactly like writeOrdered but performs no storage I/O.
//
//   * Everything *positional* (this node's block landing at its reserved
//     offset, the next record's chunks being fetched ahead of time) moves
//     to a per-node helper thread that uses only the thread-safe
//     pfs background entry points (writeAtBackground / readAtBackground).
//
// Timing is modeled deterministically: the helper threads never touch a
// VirtualClock. Instead the owning node maintains a modeled flusher
// timeline (Writer) from the transfer durations reserveOrdered returns,
// stalling its own clock only when the modeled queue is full — so
// simulated overlap results are identical regardless of how the OS
// schedules the real threads. Real (wall-clock) backpressure is separate:
// the bounded job queue blocks the producer when full. Every such wait
// registers with the machine's abort-waiter registry (AbortWaiterGuard),
// so Machine::abort() wakes it in O(1) and the wait rethrows the
// machine's typed abort error — no polling, no deadlock.
//
// Failure semantics: a background flush failure is captured and rethrown
// on the node thread at the next submit() or at drain()/close() — never
// swallowed. After a failure the remaining queued jobs are dropped (the
// file keeps its durable prefix, matching the synchronous torn-write
// story). Thread-ownership rules are in runtime/machine.h.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "pfs/parallel_file.h"
#include "runtime/machine.h"
#include "util/bytes.h"

namespace pcxx::aio {

/// Fixed-capacity staging-buffer pool. acquire() hands out an empty
/// ByteBuffer, allocating only until `capacity` buffers exist; after that it
/// blocks until release() returns one. Released buffers are cleared but keep
/// their heap allocation, so steady-state operation allocates nothing.
///
/// Chunk-codec note: staged buffers always hold LOGICAL record bytes — the
/// pfs codec stage compresses below the storage op, on this pipeline's own
/// background thread, into scratch space of its own — so codec settings
/// never change the pool's sizing or the steady-state-allocation-zero
/// property.
class BufferPool {
 public:
  explicit BufferPool(int capacity);

  /// Take a buffer, blocking up to `deadlineSeconds` (wall time) when the
  /// pool is exhausted; throws IoError when the deadline passes. When
  /// `machine` is non-null the wait registers as an abort-waiter: an abort
  /// wakes it immediately and rethrows the machine's typed abort error.
  ByteBuffer acquire(double deadlineSeconds, rt::Machine* machine);

  /// Return a buffer (cleared, capacity kept). Thread-safe.
  void release(ByteBuffer&& buf);

  /// Buffers ever allocated (for the steady-state-allocation-zero tests).
  int allocations() const;
  int capacity() const { return capacity_; }

 private:
  const int capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ByteBuffer> free_;
  int created_ = 0;
};

/// Write-behind pipeline for one node of one open file.
///
/// The owning node thread is the only caller of every public member; the
/// internal flusher thread touches only the job queue, the pool, and the
/// pfs background entry points. Lifecycle: construct with the stream's
/// file, submit() filled buffers at their reserved offsets, drain() at
/// close/collective points, destroy (the destructor drains best-effort and
/// never throws — call drain() first to observe failures).
class Writer {
 public:
  struct Options {
    int queueDepth = 1;       ///< max buffers in flight (>= 1)
    int poolBuffers = 0;      ///< staging buffers (0 => queueDepth + 2)
    double drainDeadlineSeconds = 30.0;  ///< wall-clock bound on waits
  };

  Writer(rt::Node& node, pfs::ParallelFilePtr file, Options opts);
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Take a staging buffer from the pool (blocks when all are in flight).
  ByteBuffer acquireBuffer();

  /// Hand back a buffer that will not be submitted after all.
  void releaseBuffer(ByteBuffer&& buf) { pool_.release(std::move(buf)); }

  /// Queue `buf` (obtained from acquireBuffer) for a background positional
  /// write at `offset`. `transferSeconds` is the modeled duration of this
  /// block's share of the transfer (OrderedReservation::transferSeconds or
  /// an independent-op estimate); it drives the modeled overlap timeline.
  /// `syncAfter` flushes the storage backend after this block lands
  /// (StreamOptions::syncOnWrite). A nonzero `flowId` terminates that trace
  /// flow chain inside the modeled flush span on the flusher track, linking
  /// the record's node-track span to its background write. Rethrows a
  /// pending background failure.
  void submit(std::uint64_t offset, ByteBuffer&& buf, double transferSeconds,
              bool syncAfter = false, std::uint64_t flowId = 0);

  /// Wait until every queued block is durable in storage; advance the
  /// node's virtual clock to the modeled flusher-idle time; fold the
  /// background accounting into the node's metrics; rethrow any captured
  /// failure. Collective callers must drain *before* their collective.
  void drain();

  /// Rethrow a captured background failure, if any (sticky).
  void rethrowPending();

  /// True once a background flush has failed (subsequent jobs are dropped).
  bool failed() const;

  /// Modeled time at which the flusher goes idle (virtual-time mode only).
  double modeledReadySeconds() const { return flusherReady_; }

  int bufferAllocations() const { return pool_.allocations(); }

 private:
  struct Job {
    std::uint64_t offset = 0;
    ByteBuffer buf;
    bool syncAfter = false;
  };

  void flusherLoop();
  void foldStatsLocked();  // caller holds mu_; node thread only

  rt::Node& node_;
  pfs::ParallelFilePtr file_;
  const Options opts_;
  BufferPool pool_;

  // Modeled flusher timeline — node thread only, no locking.
  double flusherReady_ = 0.0;
  std::deque<double> completions_;  // modeled end time per in-flight job

  // Real queue shared with the flusher thread.
  mutable std::mutex mu_;
  std::condition_variable cvProducer_;
  std::condition_variable cvFlusher_;
  std::deque<Job> queue_;
  bool busy_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
  pfs::BgIoStats stats_;       // written by flusher under mu_
  pfs::BgIoStats folded_;      // portion already folded into node metrics
  std::thread flusher_;
};

/// One prefetched record: the raw sections a stream read needs, fetched by
/// the background thread. `start`/`next` are file offsets delimiting the
/// record (trailer included); the buffers hold the full encoded header and
/// this node's size-table and data chunks.
struct PrefetchedRecord {
  std::uint64_t start = 0;
  std::uint64_t next = 0;
  ByteBuffer headerBytes;
  ByteBuffer sizeChunk;
  ByteBuffer dataChunk;
  std::uint64_t bytesRead = 0;  ///< background bytes fetched
  int readOps = 0;              ///< background read ops issued
};

/// Parses-and-fetches one record starting at `offset` into `out` using only
/// thread-safe operations (readAtBackground + pure header decoding).
/// Returns false when no complete record starts there (EOF, damage): the
/// chain stops and the stream falls back to its synchronous path. Must not
/// touch any Node. Supplied by ds::IStream so aio stays below dstream.
using PlanFn = std::function<bool(std::uint64_t offset, PrefetchedRecord& out,
                                  pfs::BgIoStats& stats)>;

/// Read-ahead pipeline for one node of one open stream.
///
/// The background thread speculatively chains up to `depth` records from
/// the last start()/consume() point. consume(offset) returns the record at
/// `offset` when the chain has it (waiting briefly if the fetch is in
/// flight), or nullopt — a miss — when the chain is elsewhere; the caller
/// then reads synchronously and restarts the chain with start().
class Prefetcher {
 public:
  struct Options {
    int depth = 1;  ///< records fetched ahead (>= 1)
    double waitDeadlineSeconds = 30.0;  ///< wall-clock bound on waits
  };

  Prefetcher(rt::Machine& machine, PlanFn plan, Options opts);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// (Re)start the chain at `offset`, discarding other prefetched state.
  void start(std::uint64_t offset);

  /// Take the record at `offset` if prefetched (or actively being fetched,
  /// in which case this waits). nullopt = miss; the chain is stopped and
  /// must be restarted with start(). Rethrows a background failure (e.g.
  /// an injected crash) captured by the fetch thread.
  std::optional<PrefetchedRecord> consume(std::uint64_t offset);

  /// Stop the chain and discard prefetched records (rewind/skip/salvage).
  void invalidate();

  /// Fold the background accounting accrued since the previous call into
  /// the node's metrics `o` (node thread).
  void foldStats(obs::NodeObs* o);

 private:
  void fetchLoop();

  rt::Machine& machine_;
  PlanFn plan_;
  const Options opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PrefetchedRecord> slots_;
  bool active_ = false;           ///< chain running (stops at EOF/miss)
  std::uint64_t nextOffset_ = 0;  ///< next record start to fetch
  std::uint64_t fetching_ = 0;    ///< offset the fetch thread is working on
  bool fetchingValid_ = false;
  std::uint64_t generation_ = 0;  ///< bumped by start()/invalidate()
  bool stop_ = false;
  std::exception_ptr error_;
  pfs::BgIoStats stats_;
  pfs::BgIoStats folded_;
  std::thread fetcher_;
};

}  // namespace pcxx::aio
