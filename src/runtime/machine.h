// The node runtime: an SPMD "machine" of N nodes simulated by threads.
//
// This is the stand-in for the pC++ runtime layer the paper's library sits
// on (message passing on the Paragon/CM-5, shared memory on the SGI
// Challenge). A Machine owns `nprocs` logical nodes; Machine::run() executes
// a function on every node concurrently (one thread per node), giving the
// same SPMD execution + collectives model the d/stream implementation needs:
//
//   Machine m(8);
//   m.run([&](Node& node) { ... node.barrier(); ... });
//
// Each node has a private mailbox for tagged point-to-point messages and a
// virtual clock used by the simulation-mode performance model. Collectives
// (barrier, broadcast, gather, allgather, alltoallv, reductions, scans)
// synchronize all nodes and, in simulation mode, advance every virtual clock
// to the maximum plus a modeled communication cost.
//
// If a node function throws, the machine aborts: blocked peers are woken
// with a typed PeerAbortError (origin node + collective op id) and run()
// rethrows the original exception, so failure injection tests never
// deadlock. MachineOptions adds the rest of the robustness layer: a
// collective/recv watchdog (deadlines turn indefinite waits into
// CollectiveTimeoutError / RecvTimeoutError on every node) and an
// rt::ChaosPlan hook injecting deterministic transport faults
// (see runtime/chaos_plan.h and docs/FAULTS.md "Runtime faults").
//
// Thread-ownership rules (enforced where cheap, relied on everywhere):
//
//   * Only the thread run() spawned for a node may call that Node's
//     non-const members — collectives, send/recv, clock mutation, obs
//     writes. Entering a collective from any other thread throws
//     UsageError instead of corrupting the rendezvous.
//   * Helper threads (e.g. the pcxx::aio flusher/prefetcher a node owns)
//     may touch only explicitly thread-safe lower layers
//     (pfs::ParallelFile::{write,read}AtBackground, storage backends) and
//     their own synchronization state. They must never block a node
//     indefinitely: any node-side wait on a helper registers its
//     (mutex, condvar) pair via AbortWaiterGuard so abort() delivers an
//     O(1) wake — no polling — and the woken wait rethrows the machine's
//     typed abort error (Machine::throwAbortError).
//   * A node must join or detach its helper threads before its SPMD
//     function returns; run() joins only node threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "runtime/clock.h"
#include "runtime/mailbox.h"
#include "runtime/message.h"
#include "runtime/rt_errors.h"
#include "util/bytes.h"
#include "util/error.h"

namespace pcxx::rt {

class Machine;
class ChaosPlan;

/// Communication cost model applied to collectives and p2p messages in
/// simulation mode. All-zero (the default) disables modeling.
struct CommModel {
  double latency = 0.0;  ///< startup cost per operation hop (seconds)
  double perByte = 0.0;  ///< transfer cost per byte (seconds)

  bool enabled() const { return latency > 0.0 || perByte > 0.0; }
};

/// Robustness knobs for a Machine. All default to "off" — a Machine with
/// default options behaves exactly like the pre-chaos runtime.
struct MachineOptions {
  /// Watchdog deadline (wall seconds) for a collective rendezvous: when a
  /// node waits this long without the collective completing, the machine
  /// aborts and *every* node observes CollectiveTimeoutError naming the
  /// stalled op and the missing node(s). 0 disables the watchdog.
  double collectiveDeadlineSeconds = 0.0;

  /// Watchdog deadline (wall seconds) for recv(): no matching message
  /// within the deadline aborts the machine with RecvTimeoutError.
  /// 0 disables the watchdog.
  double recvDeadlineSeconds = 0.0;

  /// Deterministic transport-fault schedule consulted on every send/recv/
  /// collective arrival. Borrowed — must outlive the machine (or be
  /// cleared with setChaosPlan(nullptr)). run() re-binds the plan, so the
  /// same plan replays the same schedule every region. nullptr = off.
  ChaosPlan* chaos = nullptr;
};

/// One logical node of the machine. Only the owning thread may call
/// non-const members; a reference is passed to the SPMD function by run().
class Node {
 public:
  int id() const { return id_; }
  int nprocs() const;
  Machine& machine() const { return *machine_; }
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }

  /// This node's observation handle, or nullptr when no observer is
  /// attached (Machine::attachObserver). Intended for the PCXX_OBS_*
  /// macros, which tolerate null.
  obs::NodeObs* obs() { return obsAttached_ ? &obs_ : nullptr; }

  // -- point-to-point ------------------------------------------------------

  /// Send bytes to node `dest` with a tag. Never blocks.
  void send(int dest, int tag, std::span<const Byte> data);

  /// Block until a message matching (src, tag) arrives.
  Message recv(int src = kAnySource, int tag = kAnyTag);

  /// Non-blocking: is a matching message queued?
  bool probe(int src = kAnySource, int tag = kAnyTag);

  /// Send a single trivially copyable value.
  template <typename T>
  void sendValue(int dest, int tag, const T& v) {
    send(dest, tag, asBytes(v));
  }

  /// Receive a single trivially copyable value from (src, tag).
  template <typename T>
  T recvValue(int src, int tag) {
    Message m = recv(src, tag);
    if (m.payload.size() != sizeof(T)) {
      throw Error("recvValue: payload size mismatch");
    }
    T out;
    std::memcpy(&out, m.payload.data(), sizeof(T));
    return out;
  }

  // -- collectives (all nodes must call with matching arguments) -----------

  void barrier();
  std::vector<std::uint64_t> allgatherU64(std::uint64_t v);
  std::vector<ByteBuffer> allgatherBytes(std::span<const Byte> mine);
  /// Gather to `root`; non-root nodes get an empty vector.
  std::vector<ByteBuffer> gatherBytes(int root, std::span<const Byte> mine);
  /// Scatter from `root`: root passes one buffer per node; every node
  /// (including root) returns the buffer addressed to it. Non-root nodes
  /// pass an empty vector.
  ByteBuffer scatterBytes(int root, const std::vector<ByteBuffer>& toEach);
  /// Broadcast `data` from `root`; on other nodes `data` is replaced.
  void broadcastBytes(int root, ByteBuffer& data);
  /// Each node passes one buffer per destination; returns one buffer per
  /// source (buffers addressed to this node).
  std::vector<ByteBuffer> alltoallv(const std::vector<ByteBuffer>& sendTo);
  /// alltoallv variant that deposits into caller-owned buffers: `recv` is
  /// resized to nprocs and each slot is overwritten via assign(), so the
  /// buffers' capacity is reused across calls. This is what lets the
  /// chunked redistribution exchange run with zero steady-state
  /// allocation — round k reuses round k-1's receive storage.
  void alltoallvInto(const std::vector<ByteBuffer>& sendTo,
                     std::vector<ByteBuffer>& recv);
  double allreduceMax(double v);
  double allreduceSum(double v);
  std::uint64_t allreduceSumU64(std::uint64_t v);
  /// Exclusive prefix sum across node ids (node 0 receives 0).
  std::uint64_t exclusiveScanU64(std::uint64_t v);

 private:
  friend class Machine;
  Node() = default;

  /// Deliver the sender-side deferred message (ChaosPlan reorder clause).
  /// Called before every send/recv/collective and when the SPMD function
  /// returns, so a stashed message is delayed by at most one op.
  void flushDeferredSend();

  /// The nprocs slots of `stage` this value collective stages into: the
  /// bank named by valueBank_, which the call then flips (see the staging
  /// comment in Machine).
  template <typename T>
  std::span<T> nextValueBank(std::vector<T>& stage);

  Machine* machine_ = nullptr;
  int id_ = -1;
  VirtualClock clock_;
  Mailbox mailbox_;
  obs::NodeObs obs_;
  bool obsAttached_ = false;

  // Reorder-in-flight slot: a send a ChaosPlan reorder clause held back so
  // the *next* send overtakes it. Owned by the node's thread only.
  bool deferredValid_ = false;
  int deferredDest_ = -1;
  Message deferredMsg_;

  // Which of the two value-collective staging banks the next value
  // collective uses. Owned by the node's thread; run() resets it, and every
  // node flips it at the same collectives, so all nodes agree on the bank.
  bool valueBank_ = false;
};

/// A simulated distributed-memory machine of `nprocs` nodes.
class Machine {
 public:
  explicit Machine(int nprocs, CommModel comm = {}, MachineOptions options = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int nprocs() const { return nprocs_; }
  const CommModel& commModel() const { return comm_; }

  const MachineOptions& options() const { return opts_; }
  /// Replace the robustness options. Not thread-safe against a running
  /// SPMD region — set between run() calls.
  void setOptions(MachineOptions options) { opts_ = options; }
  /// Attach/detach a chaos plan (nullptr = off). Borrowed; re-bound to
  /// nprocs at every run() entry so schedules replay per region.
  void setChaosPlan(ChaosPlan* plan) { opts_.chaos = plan; }

  /// Run `fn` on every node concurrently; returns when all nodes finish.
  /// Virtual clocks and mailboxes are reset at entry. If any node throws,
  /// the machine aborts the others and rethrows the first exception.
  void run(const std::function<void(Node&)>& fn);

  /// Abort: wake everything blocked in recv()/collectives/aio waits with
  /// a typed error (see throwAbortError).
  void abort();
  /// Lock-free: helper waits call this inside their wait predicates.
  bool aborted() const;

  /// Throw the typed error describing why this machine aborted:
  /// PeerAbortError / CollectiveTimeoutError / CollectiveMismatchError /
  /// RecvTimeoutError when a cause was recorded, otherwise
  /// Error(genericMessage). Call only after aborted() turned true.
  [[noreturn]] void throwAbortError(const char* genericMessage) const;

  // -- abort-waiter registry -------------------------------------------------
  //
  // Helper-layer waits (aio buffer pool, writer queue, prefetcher) register
  // their (mutex, condvar) pair here so abort() can deliver an O(1)
  // notify_all instead of the waiters polling aborted() on a timeout.
  // Lock order: abortWaitersMu_ -> waiter mutex (abort side). Registration
  // takes only abortWaitersMu_, so callers MUST construct the guard
  // *before* locking their own wait mutex.

  /// One registered helper-side wait.
  struct AbortWaiter {
    std::mutex* mu;
    std::condition_variable* cv;
  };

  void registerAbortWaiter(AbortWaiter* w);
  void unregisterAbortWaiter(AbortWaiter* w);

  /// Direct node access (e.g. to inspect clocks after run()).
  Node& node(int i) { return *nodes_[static_cast<size_t>(i)]; }

  /// Maximum virtual time over all nodes (the simulated makespan).
  double maxVirtualTime() const;

  /// Attach metrics/trace sinks: each node i observes into
  /// observer.metrics->node(i) (when non-null) and observer.trace tracks
  /// pid 0 / tid i. Time stamps come from the node's virtual clock
  /// (TimeMode::Virtual) or wall seconds since attach (TimeMode::Wall).
  /// The sinks are borrowed and must outlive the machine or a
  /// detachObserver() call. Attach before run(); not thread-safe against
  /// a concurrently running SPMD region.
  void attachObserver(const obs::Observer& observer);
  void detachObserver();

  // -- trace correlation ids ------------------------------------------------
  //
  // Flow edges in the trace share a 64-bit id space, partitioned by issuer
  // so chains never collide: record-scoped ids are raw nextFlowId() values,
  // p2p message edges set kFlowP2P, and per-collective edges are derived
  // from the collective op id with kFlowColl set.

  /// High bit tagging p2p message flow ids.
  static constexpr std::uint64_t kFlowP2P = std::uint64_t{1} << 62;
  /// High bit tagging collective arrival/release flow ids.
  static constexpr std::uint64_t kFlowColl = std::uint64_t{1} << 63;

  /// Monotonically-issued correlation id (1, 2, ...). Thread-safe; ids are
  /// unique within one run() region (the counter resets at entry).
  std::uint64_t nextFlowId() {
    return flowIdCounter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  friend class Node;

  /// Why the machine aborted; drives which typed error blocked peers see.
  enum class AbortKind { None, Generic, Peer, CollTimeout, CollMismatch, RecvTimeout };

  /// First-abort-wins context recorded by abortWith() (guarded by
  /// barrierMu_). Every wait that wakes to aborted_==true converts this
  /// into the matching typed exception via throwAbortError().
  struct AbortInfo {
    AbortKind kind = AbortKind::None;
    int origin = -1;
    std::uint64_t opId = 0;
    std::string opName;
    std::string reason;
    std::vector<int> arrived;
    std::vector<int> missing;
    int src = kAnySource;
    int tag = kAnyTag;
  };

  // The collective rendezvous. Every node records its arrival under
  // barrierMu_; the last arriver runs `completion` (which may set
  // pendingCommBytes_ for the cost model), syncs the clocks and publishes
  // the next barrierGeneration_ with a release store. The other nodes drop
  // the mutex and spin-then-park: they poll the generation (acquire load,
  // one pause and one yield per poll) for kSpinBudget, then retake the
  // mutex, count themselves in barrierParked_ and sleep on barrierCv_. The
  // last arriver notifies only when that count is nonzero. The count
  // changes only under barrierMu_, and a parked waiter takes itself off it
  // before it returns or throws, so a parked waiter is never missed.
  // aborted_ is atomic, so a spinning node leaves at once on abort.
  //
  // The value collectives (allgatherU64, allreduce*, exclusiveScanU64)
  // take this one rendezvous: each stages into a machine-owned bank (see
  // stageU64_) and copies its result out after the release. The
  // collectives that stage caller memory by reference (allgatherBytes,
  // gatherBytes, broadcastBytes, scatterBytes, alltoallv[Into]) take a
  // second, release-only rendezvous (applyCost=false: no cost, no op id,
  // not counted) so no node returns, and frees or reuses its buffers,
  // while a peer still reads them. `opName` is a static string naming
  // the collective for the watchdog / mismatch check; the watchdog
  // deadline runs from arrival, so time spent spinning counts.
  void barrierSync(const char* opName, const std::function<void()>& completion,
                   bool applyCost);

  void syncClocksLocked(bool applyCost);

  /// Record the abort cause (first caller wins), set aborted_, and wake
  /// every blocked wait: barrier cv, node mailboxes, registered
  /// abort-waiters.
  void abortWith(AbortInfo info);

  /// Abort on behalf of a node whose SPMD function threw.
  void abortPeer(int originNode, const std::string& why);

  [[noreturn]] void throwAbortErrorHavingLock(
      std::unique_lock<std::mutex>& lock, const char* genericMessage) const;

  int nprocs_;
  CommModel comm_;
  MachineOptions opts_;
  std::vector<std::unique_ptr<Node>> nodes_;

  // Generation-counting barrier. barrierArrived_ and barrierParked_ are
  // guarded by barrierMu_; barrierGeneration_ and aborted_ are written only
  // under it but read lock-free by spinning waiters and by aborted().
  mutable std::mutex barrierMu_;
  std::condition_variable barrierCv_;
  int barrierArrived_ = 0;
  int barrierParked_ = 0;  // waiters asleep on barrierCv_
  std::atomic<std::uint64_t> barrierGeneration_{0};
  std::atomic<bool> aborted_{false};
  AbortInfo abortInfo_;  // guarded by barrierMu_

  // Watchdog bookkeeping for the in-progress rendezvous (guarded by
  // barrierMu_): which nodes have arrived and what op they entered.
  std::vector<char> arrivedGen_;
  const char* genOpName_ = nullptr;

  // Helper-side waits wakeable by abort() (see AbortWaiter above).
  std::mutex abortWaitersMu_;
  std::vector<AbortWaiter*> abortWaiters_;

  // Collective staging. stageSpans_ and stageVecs_ point into caller
  // memory and are valid until the release rendezvous. stageU64_ and
  // stageF64_ hold two banks of nprocs slots each: a value collective
  // writes the bank its node's valueBank_ names, reads it after the one
  // rendezvous, and flips the bit. Two banks are enough: a node writes
  // bank b again only two value collectives later, and to get there it
  // completes the rendezvous in between, which every node reaches only
  // after it has finished reading bank b.
  std::vector<std::span<const Byte>> stageSpans_;
  std::vector<std::uint64_t> stageU64_;
  std::vector<double> stageF64_;
  std::vector<const std::vector<ByteBuffer>*> stageVecs_;
  std::uint64_t pendingCommBytes_ = 0;
  double clockTarget_ = 0.0;

  // Collective stamping (written under barrierMu_): the last-arriving
  // thread of a costed rendezvous issues the op id and records which node
  // it was; every node reads both, and clockTarget_, once released. They
  // stay put until the next rendezvous, which needs this node to arrive.
  std::uint64_t collOpCount_ = 0;
  std::uint64_t collOpId_ = 0;
  int collStraggler_ = 0;

  std::atomic<std::uint64_t> flowIdCounter_{0};
};

/// RAII registration of a (mutex, condvar) wait with the machine's abort
/// registry. Construct BEFORE locking the wait mutex (the registry lock
/// order is abortWaitersMu_ -> wait mutex); destruction deregisters.
/// While registered, abort() notifies `cv` under `mu`, so a
/// `cv.wait_until(lock, ..., pred-or-machine.aborted())` wakes in O(1)
/// instead of polling.
class AbortWaiterGuard {
 public:
  AbortWaiterGuard(Machine& machine, std::mutex& mu,
                   std::condition_variable& cv)
      : machine_(machine), waiter_{&mu, &cv} {
    machine_.registerAbortWaiter(&waiter_);
  }
  ~AbortWaiterGuard() { machine_.unregisterAbortWaiter(&waiter_); }

  AbortWaiterGuard(const AbortWaiterGuard&) = delete;
  AbortWaiterGuard& operator=(const AbortWaiterGuard&) = delete;

 private:
  Machine& machine_;
  Machine::AbortWaiter waiter_;
};

/// The node bound to the calling thread. Throws if the caller is not inside
/// Machine::run(). This is how implicitly contextual constructors (e.g.
/// Distribution, d/stream open) locate the runtime, mirroring pC++'s
/// implicit runtime context.
Node& thisNode();

/// True when the calling thread is executing inside Machine::run().
bool inNodeContext();

}  // namespace pcxx::rt
