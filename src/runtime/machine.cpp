#include "runtime/machine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "runtime/chaos_plan.h"
#include "util/log.h"

namespace pcxx::rt {
namespace {

thread_local Node* g_currentNode = nullptr;

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double obsVirtualNow(const obs::NodeObs& o) {
  return static_cast<const VirtualClock*>(o.clock)->now();
}

double obsWallNow(const obs::NodeObs& o) {
  return wallSeconds() - o.wallEpoch;
}

/// ceil(log2(p)) hop count used for tree-shaped collective cost.
int collectiveHops(int nprocs) {
  int hops = 0;
  int span = 1;
  while (span < nprocs) {
    span *= 2;
    ++hops;
  }
  return std::max(hops, 1);
}

/// How long a waiter polls for the rendezvous to complete before it parks
/// on the condition variable. Most of the library's rendezvous complete
/// well inside this budget, so their waiters never pay for a futex sleep
/// and wake-up; the yield in each poll keeps oversubscribed hosts moving.
/// Chosen from a 0 / 5 / 20 / 100 / 500 us sweep (EXPERIMENTS.md): 5 us
/// is shorter than most waits, and 100 us beat 20 us on frame writes.
constexpr auto kSpinBudget = std::chrono::microseconds(100);

/// Spin-wait hint: tells the core this is a poll loop (x86 `pause`).
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

int Node::nprocs() const { return machine_->nprocs(); }

void Node::send(int dest, int tag, std::span<const Byte> data) {
  PCXX_REQUIRE(dest >= 0 && dest < nprocs(), "send: bad destination node");
  ChaosPlan::SendVerdict verdict{};
  if (ChaosPlan* chaos = machine_->options().chaos) {
    verdict = chaos->onSend(id_);  // may throw ChaosCrashError
  }
  const CommModel& comm = machine_->commModel();
  Message msg;
  msg.src = id_;
  msg.tag = tag;
  msg.payload.assign(data.begin(), data.end());
  if (comm.enabled()) {
    // Sender pays the startup latency; the payload arrives after the
    // transfer completes.
    clock_.advance(comm.latency);
    msg.arrivalTime =
        clock_.now() + comm.perByte * static_cast<double>(data.size());
  } else {
    msg.arrivalTime = 0.0;
  }
  if (verdict.drop) {
    // The message vanishes on the wire: the sender still paid the modeled
    // cost, but nothing reaches the destination mailbox.
    PCXX_OBS_COUNT(obs(), RtChaosDropped, 1);
    flushDeferredSend();
    return;
  }
  if (verdict.delaySeconds > 0.0) {
    // Charge the delay to the virtual arrival time, never wall time, so
    // delayed schedules replay exactly.
    msg.arrivalTime =
        std::max(msg.arrivalTime, clock_.now()) + verdict.delaySeconds;
    PCXX_OBS_COUNT(obs(), RtChaosDelayed, 1);
  }
  PCXX_OBS_COUNT(obs(), RtMessagesSent, 1);
  PCXX_OBS_COUNT(obs(), RtMessageBytes, data.size());
#if PCXX_OBS_ENABLED
  // Stamp the message with a correlation id and open the flow edge on the
  // sender track; the receiver closes it in recv(), so Perfetto draws the
  // actual sender→receiver causality arrow.
  if (obs::NodeObs* o = obs(); o != nullptr && o->trace != nullptr) {
    msg.flowId = Machine::kFlowP2P | machine_->nextFlowId();
    o->trace->flowStart(id_, "rt.msg", o->now(), msg.flowId);
  }
#endif
  if (verdict.reorder) {
    // Stash this message on the sender; the next runtime op (send, recv,
    // collective, or function return) delivers it, so a later send
    // overtakes it deterministically.
    flushDeferredSend();  // at most one deferred message in flight
    PCXX_OBS_COUNT(obs(), RtChaosReordered, 1);
    deferredValid_ = true;
    deferredDest_ = dest;
    deferredMsg_ = std::move(msg);
    return;
  }
  Message dupCopy;
  if (verdict.duplicate) {
    dupCopy = msg;
    dupCopy.flowId = 0;  // the duplicate is not part of the trace flow
  }
  machine_->node(dest).mailbox_.push(std::move(msg));
  if (verdict.duplicate) {
    PCXX_OBS_COUNT(obs(), RtChaosDuplicated, 1);
    machine_->node(dest).mailbox_.push(std::move(dupCopy));
  }
  flushDeferredSend();
}

void Node::flushDeferredSend() {
  if (!deferredValid_) return;
  deferredValid_ = false;
  machine_->node(deferredDest_).mailbox_.push(std::move(deferredMsg_));
}

Message Node::recv(int src, int tag) {
  flushDeferredSend();
  if (ChaosPlan* chaos = machine_->options().chaos) {
    chaos->onRecv(id_);  // may throw ChaosCrashError
  }
  Message msg;
  const Mailbox::WaitStatus status = mailbox_.waitPopFor(
      src, tag, machine_->options().recvDeadlineSeconds, msg);
  if (status == Mailbox::WaitStatus::Aborted) {
    machine_->throwAbortError(
        "machine aborted while node was waiting in recv()");
  }
  if (status == Mailbox::WaitStatus::TimedOut) {
    PCXX_OBS_COUNT(obs(), RtWatchdogTrips, 1);
    Machine::AbortInfo info;
    info.kind = Machine::AbortKind::RecvTimeout;
    info.origin = id_;
    info.src = src;
    info.tag = tag;
    machine_->abortWith(std::move(info));
    throw RecvTimeoutError(id_, src, tag);
  }
  clock_.syncTo(msg.arrivalTime);
#if PCXX_OBS_ENABLED
  if (obs::NodeObs* o = obs();
      o != nullptr && o->trace != nullptr && msg.flowId != 0) {
    o->trace->flowEnd(id_, "rt.msg", o->now(), msg.flowId);
  }
#endif
  return msg;
}

bool Node::probe(int src, int tag) { return mailbox_.probe(src, tag); }

void Node::barrier() {
  machine_->barrierSync("barrier", nullptr, /*applyCost=*/true);
}

template <typename T>
std::span<T> Node::nextValueBank(std::vector<T>& stage) {
  const size_t n = static_cast<size_t>(nprocs());
  const std::span<T> bank(stage.data() + (valueBank_ ? n : 0), n);
  valueBank_ = !valueBank_;
  return bank;
}

std::vector<std::uint64_t> Node::allgatherU64(std::uint64_t v) {
  Machine& m = *machine_;
  const std::span<std::uint64_t> bank = nextValueBank(m.stageU64_);
  bank[static_cast<size_t>(id_)] = v;
  m.barrierSync("allgatherU64",
      [&m, n = nprocs()] {
        m.pendingCommBytes_ = 8ull * static_cast<std::uint64_t>(n);
      },
      /*applyCost=*/true);
  return {bank.begin(), bank.end()};
}

std::vector<ByteBuffer> Node::allgatherBytes(std::span<const Byte> mine) {
  Machine& m = *machine_;
  m.stageSpans_[static_cast<size_t>(id_)] = mine;
  m.barrierSync("allgatherBytes", 
      [&m] {
        for (const auto& s : m.stageSpans_) m.pendingCommBytes_ += s.size();
      },
      /*applyCost=*/true);
  std::vector<ByteBuffer> out(static_cast<size_t>(nprocs()));
  for (int i = 0; i < nprocs(); ++i) {
    const auto& s = m.stageSpans_[static_cast<size_t>(i)];
    out[static_cast<size_t>(i)].assign(s.begin(), s.end());
  }
  m.barrierSync("allgatherBytes", nullptr, /*applyCost=*/false);
  return out;
}

std::vector<ByteBuffer> Node::gatherBytes(int root, std::span<const Byte> mine) {
  PCXX_REQUIRE(root >= 0 && root < nprocs(), "gatherBytes: bad root");
  Machine& m = *machine_;
  m.stageSpans_[static_cast<size_t>(id_)] = mine;
  m.barrierSync("gatherBytes", 
      [&m] {
        for (const auto& s : m.stageSpans_) m.pendingCommBytes_ += s.size();
      },
      /*applyCost=*/true);
  std::vector<ByteBuffer> out;
  if (id_ == root) {
    out.resize(static_cast<size_t>(nprocs()));
    for (int i = 0; i < nprocs(); ++i) {
      const auto& s = m.stageSpans_[static_cast<size_t>(i)];
      out[static_cast<size_t>(i)].assign(s.begin(), s.end());
    }
  }
  m.barrierSync("gatherBytes", nullptr, /*applyCost=*/false);
  return out;
}

ByteBuffer Node::scatterBytes(int root,
                              const std::vector<ByteBuffer>& toEach) {
  PCXX_REQUIRE(root >= 0 && root < nprocs(), "scatterBytes: bad root");
  PCXX_REQUIRE(id_ != root ||
                   static_cast<int>(toEach.size()) == nprocs(),
               "scatterBytes: root must pass one buffer per node");
  Machine& m = *machine_;
  if (id_ == root) {
    m.stageVecs_[static_cast<size_t>(root)] = &toEach;
  }
  m.barrierSync("scatterBytes", 
      [&m, root] {
        for (const auto& buf : *m.stageVecs_[static_cast<size_t>(root)]) {
          m.pendingCommBytes_ += buf.size();
        }
      },
      /*applyCost=*/true);
  ByteBuffer out =
      (*m.stageVecs_[static_cast<size_t>(root)])[static_cast<size_t>(id_)];
  m.barrierSync("scatterBytes", nullptr, /*applyCost=*/false);
  return out;
}

void Node::broadcastBytes(int root, ByteBuffer& data) {
  PCXX_REQUIRE(root >= 0 && root < nprocs(), "broadcastBytes: bad root");
  Machine& m = *machine_;
  if (id_ == root) {
    m.stageSpans_[static_cast<size_t>(root)] = data;
  }
  m.barrierSync("broadcastBytes", 
      [&m, root] {
        m.pendingCommBytes_ = m.stageSpans_[static_cast<size_t>(root)].size();
      },
      /*applyCost=*/true);
  const auto& src = m.stageSpans_[static_cast<size_t>(root)];
  if (id_ != root) {
    data.assign(src.begin(), src.end());
  }
  m.barrierSync("broadcastBytes", nullptr, /*applyCost=*/false);
}

std::vector<ByteBuffer> Node::alltoallv(
    const std::vector<ByteBuffer>& sendTo) {
  std::vector<ByteBuffer> out;
  alltoallvInto(sendTo, out);
  return out;
}

void Node::alltoallvInto(const std::vector<ByteBuffer>& sendTo,
                         std::vector<ByteBuffer>& recv) {
  PCXX_REQUIRE(static_cast<int>(sendTo.size()) == nprocs(),
               "alltoallv: need one buffer per destination node");
  PCXX_REQUIRE(&sendTo != &recv,
               "alltoallvInto: send and receive vectors must be distinct");
  Machine& m = *machine_;
  m.stageVecs_[static_cast<size_t>(id_)] = &sendTo;
  m.barrierSync("alltoallv", 
      [&m, n = nprocs()] {
        for (int s = 0; s < n; ++s) {
          for (const auto& buf : *m.stageVecs_[static_cast<size_t>(s)]) {
            m.pendingCommBytes_ += buf.size();
          }
        }
      },
      /*applyCost=*/true);
  recv.resize(static_cast<size_t>(nprocs()));
  for (int s = 0; s < nprocs(); ++s) {
    const ByteBuffer& src =
        (*m.stageVecs_[static_cast<size_t>(s)])[static_cast<size_t>(id_)];
    // assign() never shrinks capacity: repeated exchanges into the same
    // vector settle into steady-state zero allocation.
    recv[static_cast<size_t>(s)].assign(src.begin(), src.end());
  }
  m.barrierSync("alltoallv", nullptr, /*applyCost=*/false);
}

double Node::allreduceMax(double v) {
  Machine& m = *machine_;
  const std::span<double> bank = nextValueBank(m.stageF64_);
  bank[static_cast<size_t>(id_)] = v;
  m.barrierSync("allreduceMax", nullptr, /*applyCost=*/true);
  return *std::max_element(bank.begin(), bank.end());
}

double Node::allreduceSum(double v) {
  Machine& m = *machine_;
  const std::span<double> bank = nextValueBank(m.stageF64_);
  bank[static_cast<size_t>(id_)] = v;
  m.barrierSync("allreduceSum", nullptr, /*applyCost=*/true);
  double sum = 0.0;
  for (double x : bank) sum += x;
  return sum;
}

std::uint64_t Node::allreduceSumU64(std::uint64_t v) {
  Machine& m = *machine_;
  const std::span<std::uint64_t> bank = nextValueBank(m.stageU64_);
  bank[static_cast<size_t>(id_)] = v;
  m.barrierSync("allreduceSumU64", nullptr, /*applyCost=*/true);
  std::uint64_t sum = 0;
  for (std::uint64_t x : bank) sum += x;
  return sum;
}

std::uint64_t Node::exclusiveScanU64(std::uint64_t v) {
  Machine& m = *machine_;
  const std::span<std::uint64_t> bank = nextValueBank(m.stageU64_);
  bank[static_cast<size_t>(id_)] = v;
  m.barrierSync("exclusiveScanU64", nullptr, /*applyCost=*/true);
  std::uint64_t prefix = 0;
  for (int i = 0; i < id_; ++i) prefix += bank[static_cast<size_t>(i)];
  return prefix;
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(int nprocs, CommModel comm, MachineOptions options)
    : nprocs_(nprocs), comm_(comm), opts_(options) {
  PCXX_REQUIRE(nprocs >= 1, "Machine requires at least one node");
  nodes_.reserve(static_cast<size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    auto node = std::unique_ptr<Node>(new Node());
    node->machine_ = this;
    node->id_ = i;
    nodes_.push_back(std::move(node));
  }
  stageSpans_.resize(static_cast<size_t>(nprocs));
  stageU64_.resize(2 * static_cast<size_t>(nprocs));
  stageF64_.resize(2 * static_cast<size_t>(nprocs));
  stageVecs_.resize(static_cast<size_t>(nprocs));
  arrivedGen_.assign(static_cast<size_t>(nprocs), 0);
}

Machine::~Machine() = default;

void Machine::run(const std::function<void(Node&)>& fn) {
  // Fresh SPMD region: clear abort state, mailboxes, clocks, trace ids.
  {
    std::lock_guard<std::mutex> lock(barrierMu_);
    aborted_.store(false, std::memory_order_release);
    abortInfo_ = AbortInfo{};
    barrierArrived_ = 0;
    collOpCount_ = 0;
    collOpId_ = 0;
    collStraggler_ = 0;
    std::fill(arrivedGen_.begin(), arrivedGen_.end(), 0);
    genOpName_ = nullptr;
  }
  flowIdCounter_.store(0, std::memory_order_relaxed);
  if (opts_.chaos != nullptr) opts_.chaos->bind(nprocs_);
  for (auto& node : nodes_) {
    node->mailbox_.reset();
    node->clock_.reset();
    node->deferredValid_ = false;
    node->valueBank_ = false;
  }

  // First-exception bookkeeping: a PeerAbortError is only the *echo* of a
  // peer's failure, so a later real exception displaces a stored echo —
  // run() deterministically rethrows the origin's exception regardless of
  // which thread reached the recording lock first.
  std::exception_ptr firstException;
  bool firstIsEcho = false;
  std::mutex exceptionMu;
  const auto record = [&](bool echo) {
    std::lock_guard<std::mutex> lock(exceptionMu);
    if (!firstException || (firstIsEcho && !echo)) {
      firstException = std::current_exception();
      firstIsEcho = echo;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (auto& nodePtr : nodes_) {
    Node* node = nodePtr.get();
    threads.emplace_back([this, node, &fn, &record] {
      g_currentNode = node;
      try {
        fn(*node);
        node->flushDeferredSend();
      } catch (const PeerAbortError&) {
        // Echo of a peer's abort: the machine is already unwinding.
        record(/*echo=*/true);
      } catch (const std::exception& e) {
        record(/*echo=*/false);
        abortPeer(node->id_, e.what());
      } catch (...) {
        record(/*echo=*/false);
        abortPeer(node->id_, "unknown exception");
      }
      g_currentNode = nullptr;
    });
  }
  for (auto& t : threads) t.join();
  if (firstException) std::rethrow_exception(firstException);
}

void Machine::abort() {
  AbortInfo info;
  info.kind = AbortKind::Generic;
  abortWith(std::move(info));
}

void Machine::abortPeer(int originNode, const std::string& why) {
  AbortInfo info;
  info.kind = AbortKind::Peer;
  info.origin = originNode;
  info.reason = why;
  {
    std::lock_guard<std::mutex> lock(barrierMu_);
    info.opId = collOpCount_;
  }
  abortWith(std::move(info));
}

void Machine::abortWith(AbortInfo info) {
  {
    std::lock_guard<std::mutex> lock(barrierMu_);
    // First abort wins: later causes are consequences of the first.
    if (abortInfo_.kind == AbortKind::None && info.kind != AbortKind::None) {
      abortInfo_ = std::move(info);
    }
    aborted_.store(true, std::memory_order_release);
  }
  // Wake every way a node (or its helper) can block: the collective
  // rendezvous, each mailbox, and registered aio-style abort-waiters.
  barrierCv_.notify_all();
  for (auto& node : nodes_) node->mailbox_.abort();
  {
    std::lock_guard<std::mutex> lock(abortWaitersMu_);
    for (AbortWaiter* w : abortWaiters_) {
      // Briefly hold the waiter's mutex so the notify cannot slip between
      // its predicate check and its wait. aborted_ is already set, and
      // aborted() reads it without barrierMu_, so a predicate evaluated
      // after this lock sees it.
      std::lock_guard<std::mutex> g(*w->mu);
      w->cv->notify_all();
    }
  }
}

void Machine::registerAbortWaiter(AbortWaiter* w) {
  std::lock_guard<std::mutex> lock(abortWaitersMu_);
  abortWaiters_.push_back(w);
}

void Machine::unregisterAbortWaiter(AbortWaiter* w) {
  std::lock_guard<std::mutex> lock(abortWaitersMu_);
  std::erase(abortWaiters_, w);
}

void Machine::throwAbortError(const char* genericMessage) const {
  std::unique_lock<std::mutex> lock(barrierMu_);
  throwAbortErrorHavingLock(lock, genericMessage);
}

void Machine::throwAbortErrorHavingLock(std::unique_lock<std::mutex>& lock,
                                        const char* genericMessage) const {
  const AbortInfo info = abortInfo_;  // copy out, then drop the lock
  lock.unlock();
  switch (info.kind) {
    case AbortKind::Peer:
      throw PeerAbortError(info.origin, info.opId, info.reason);
    case AbortKind::CollTimeout:
      throw CollectiveTimeoutError(info.opName, info.opId, info.arrived,
                                   info.missing);
    case AbortKind::CollMismatch:
      throw CollectiveMismatchError(info.opName, info.reason, info.origin);
    case AbortKind::RecvTimeout:
      throw RecvTimeoutError(info.origin, info.src, info.tag);
    case AbortKind::Generic:
    case AbortKind::None:
      break;
  }
  throw Error(genericMessage);
}

bool Machine::aborted() const {
  return aborted_.load(std::memory_order_acquire);
}

double Machine::maxVirtualTime() const {
  double t = 0.0;
  for (const auto& node : nodes_) t = std::max(t, node->clock().now());
  return t;
}

void Machine::syncClocksLocked(bool applyCost) {
  double maxClock = 0.0;
  int straggler = 0;
  for (const auto& node : nodes_) {
    if (node->clock().now() > maxClock) {
      maxClock = node->clock().now();
      straggler = node->id_;
    }
  }
  double cost = 0.0;
  if (comm_.enabled() && applyCost) {
    cost = comm_.latency * collectiveHops(nprocs_) +
           comm_.perByte * static_cast<double>(pendingCommBytes_);
  }
  pendingCommBytes_ = 0;
  clockTarget_ = maxClock + cost;
  if (applyCost) {
    // Costed rendezvous of a collective: issue the op id and record who
    // arrived last (ties break to the lowest node id, deterministically).
    collOpId_ = ++collOpCount_;
    collStraggler_ = straggler;
  }
}

void Machine::barrierSync(const char* opName,
                          const std::function<void()>& completion,
                          bool applyCost) {
  // Thread-ownership rule: collectives may only be entered by the thread
  // that owns a node of THIS machine. Helper threads (pcxx::aio flushers
  // and prefetchers) would otherwise corrupt the rendezvous count silently;
  // turn that race into a typed error instead.
  if (g_currentNode == nullptr || g_currentNode->machine_ != this) {
    throw UsageError(
        "collective entered from a thread that is not a node of this "
        "machine (background/helper threads must not use Node collectives "
        "or mutate node state; see the threading rules in machine.h)");
  }
  Node& self = *g_currentNode;
  if (applyCost) {
    // Costed arrival only: deliver any deferred (reordered) send before
    // the rendezvous, and let the chaos plan inject straggler skew. The
    // skew is charged to the virtual clock, so the collective's absorbed
    // skew shows up in rt.coll_skew_seconds like any real straggler.
    self.flushDeferredSend();
    if (opts_.chaos != nullptr) {
      const double skew = opts_.chaos->onCollectiveArrival(self.id_);
      if (skew > 0.0) {
        self.clock_.advance(skew);
        PCXX_OBS_COUNT(self.obs(), RtChaosSkewed, 1);
      }
    }
  }
#if PCXX_OBS_ENABLED
  // A traced rt.coll span begins at arrival, so that it covers the wait.
  obs::NodeObs* traced = applyCost ? self.obs() : nullptr;
  if (traced != nullptr && traced->trace == nullptr) traced = nullptr;
  const double tArr = traced != nullptr ? traced->now() : 0.0;
#endif
  {
    std::unique_lock<std::mutex> lock(barrierMu_);
    if (aborted_.load(std::memory_order_relaxed)) {
      throwAbortErrorHavingLock(
          lock, "machine aborted while node was waiting at a barrier");
    }
    // Divergence check: every node joining an in-progress rendezvous must
    // be entering the same collective as the first arriver. A mismatch is
    // a protocol bug (e.g. one node skipped a collective) that the central
    // barrier would otherwise "complete" with mixed staging.
    if (genOpName_ != nullptr && opName != nullptr &&
        std::strcmp(genOpName_, opName) != 0) {
      const std::string expected = genOpName_;
      const std::string actual = opName;
      AbortInfo info;
      info.kind = AbortKind::CollMismatch;
      info.origin = self.id_;
      info.opId = collOpCount_ + 1;
      info.opName = expected;
      info.reason = actual;
      lock.unlock();
      abortWith(std::move(info));
      throw CollectiveMismatchError(expected, actual, self.id_);
    }
    if (barrierArrived_ == 0) genOpName_ = opName;
    arrivedGen_[static_cast<size_t>(self.id_)] = 1;
    ++barrierArrived_;
    const std::uint64_t gen =
        barrierGeneration_.load(std::memory_order_relaxed);
    if (barrierArrived_ == nprocs_) {
      if (completion) completion();
      syncClocksLocked(applyCost);
      barrierArrived_ = 0;
      std::fill(arrivedGen_.begin(), arrivedGen_.end(), 0);
      genOpName_ = nullptr;
      // Publishes the staging, clockTarget_ and the op stamp to spinners.
      barrierGeneration_.store(gen + 1, std::memory_order_release);
      if (barrierParked_ > 0) barrierCv_.notify_all();
    } else {
      // The watchdog deadline runs from arrival, so spinning counts.
      const bool watchdog = opts_.collectiveDeadlineSeconds > 0.0;
      std::chrono::steady_clock::time_point deadline{};
      if (watchdog) {
        deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    opts_.collectiveDeadlineSeconds));
      }
      const auto released = [this, gen] {
        return barrierGeneration_.load(std::memory_order_acquire) != gen ||
               aborted_.load(std::memory_order_acquire);
      };
      lock.unlock();
      const auto spinEnd = std::chrono::steady_clock::now() + kSpinBudget;
      while (!released() && std::chrono::steady_clock::now() < spinEnd) {
        cpuRelax();
        std::this_thread::yield();
      }
      if (barrierGeneration_.load(std::memory_order_acquire) == gen) {
        // Still pending after the spin budget, or aborted: finish under the
        // mutex, parking if need be.
        lock.lock();
        if (!released()) {
          ++barrierParked_;
          bool inTime = true;
          if (watchdog) {
            inTime = barrierCv_.wait_until(lock, deadline, released);
          } else {
            barrierCv_.wait(lock, released);
          }
          --barrierParked_;
          if (!inTime) {
            // Watchdog trip: the rendezvous stalled past the deadline.
            // Record who made it and who is missing, then unwind everyone.
            PCXX_OBS_COUNT(self.obs(), RtWatchdogTrips, 1);
            AbortInfo info;
            info.kind = AbortKind::CollTimeout;
            info.origin = self.id_;
            info.opId = applyCost ? collOpCount_ + 1 : collOpId_;
            info.opName = opName != nullptr ? opName : "collective";
            for (int i = 0; i < nprocs_; ++i) {
              if (arrivedGen_[static_cast<size_t>(i)]) {
                info.arrived.push_back(i);
              } else {
                info.missing.push_back(i);
              }
            }
            const AbortInfo mine = info;
            lock.unlock();
            abortWith(std::move(info));
            throw CollectiveTimeoutError(mine.opName, mine.opId, mine.arrived,
                                         mine.missing);
          }
        }
        // Only treat the abort as fatal if the barrier did NOT complete:
        // when all nodes arrived, every node gets the collective's result
        // even if a peer aborted immediately afterwards — this keeps error
        // propagation through collectives deterministic.
        if (barrierGeneration_.load(std::memory_order_relaxed) == gen) {
          throwAbortErrorHavingLock(
              lock, "machine aborted while node was waiting at a barrier");
        }
      }
    }
  }
  // Written by the last arriver before its release store; no later
  // rendezvous can overwrite them until this node arrives there.
  const double target = clockTarget_;
  const std::uint64_t opId = collOpId_;
  const int straggler = collStraggler_;
  if (g_currentNode != nullptr && g_currentNode->machine_ == this) {
    Node& n = *g_currentNode;
    if (applyCost) {
      // The costed rendezvous of a collective (a release-only one is not
      // counted): count it once and attribute the absorbed skew to sync
      // wait.
      PCXX_OBS_COUNT(n.obs(), RtCollectives, 1);
      const double skew = target - n.clock_.now();
      if (skew > 0) {
        PCXX_OBS_SECONDS(n.obs(), RtSyncWaitSeconds, skew);
      }
      PCXX_OBS_HIST(n.obs(), RtCollSkew,
                    skew > 0 ? skew * 1e6 : 0.0);  // whole microseconds
      if (n.id_ == straggler) {
        PCXX_OBS_COUNT(n.obs(), RtCollStragglerOps, 1);
      }
#if PCXX_OBS_ENABLED
      if (obs::NodeObs* o = traced; o != nullptr) {
        // Per-node arrival/release span plus the straggler's flow edges:
        // the last-arriving node opens one edge per peer at its release
        // point; every other node terminates its own edge inside its
        // rt.coll span, so Perfetto draws straggler→waiter causality for
        // every collective. Edge ids derive from the op id and receiver so
        // chains never collide across collectives.
        n.clock_.syncTo(target);
        const double tRel = o->now();
        o->trace->begin(n.id_, "rt.coll", tArr);
        if (n.id_ == straggler) {
          o->trace->instant(n.id_, "rt.coll_last_arrival", tArr);
          for (int r = 0; r < nprocs_; ++r) {
            if (r == n.id_) continue;
            o->trace->flowStart(
                n.id_, "rt.coll", tRel,
                kFlowColl | (opId * static_cast<std::uint64_t>(nprocs_) +
                             static_cast<std::uint64_t>(r)));
          }
        } else {
          o->trace->flowEnd(
              n.id_, "rt.coll", tRel,
              kFlowColl | (opId * static_cast<std::uint64_t>(nprocs_) +
                           static_cast<std::uint64_t>(n.id_)));
        }
        o->trace->end(n.id_, "rt.coll", tRel);
        return;
      }
#endif
    }
#if !PCXX_OBS_ENABLED
    (void)opId;
    (void)straggler;
#endif
    n.clock_.syncTo(target);
  }
}

void Machine::attachObserver(const obs::Observer& observer) {
  PCXX_REQUIRE(observer.metrics == nullptr ||
                   observer.metrics->nnodes() >= nprocs_,
               "attachObserver: metrics registry smaller than the machine");
  const double epoch = wallSeconds();
  for (auto& node : nodes_) {
    obs::NodeObs& o = node->obs_;
    o.metrics = observer.metrics != nullptr
                    ? &observer.metrics->node(node->id_)
                    : nullptr;
    o.trace = observer.trace;
    o.nodeId = node->id_;
    if (observer.timeMode == obs::Observer::TimeMode::Virtual) {
      o.clock = &node->clock_;
      o.nowFn = &obsVirtualNow;
    } else {
      o.wallEpoch = epoch;
      o.nowFn = &obsWallNow;
      o.wallTime = true;
    }
    node->obsAttached_ = true;
  }
}

void Machine::detachObserver() {
  for (auto& node : nodes_) {
    node->obsAttached_ = false;
    node->obs_ = obs::NodeObs{};
  }
}

Node& thisNode() {
  if (g_currentNode == nullptr) {
    throw UsageError(
        "thisNode(): the calling thread is not inside Machine::run()");
  }
  return *g_currentNode;
}

bool inNodeContext() { return g_currentNode != nullptr; }

}  // namespace pcxx::rt
