#include "aio/aio.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

#include "util/error.h"

namespace pcxx::aio {

namespace {

void addStats(pfs::BgIoStats& into, const pfs::BgIoStats& delta) {
  into.writeOps += delta.writeOps;
  into.readOps += delta.readOps;
  into.bytesWritten += delta.bytesWritten;
  into.bytesRead += delta.bytesRead;
  into.retries += delta.retries;
  into.giveUps += delta.giveUps;
  into.backoffSeconds += delta.backoffSeconds;
  into.codecRawBytes += delta.codecRawBytes;
  into.codecStoredBytes += delta.codecStoredBytes;
  into.codecDedupHits += delta.codecDedupHits;
  into.codecDamagedChunks += delta.codecDamagedChunks;
  into.codecSeconds += delta.codecSeconds;
}

pfs::BgIoStats subStats(const pfs::BgIoStats& a, const pfs::BgIoStats& b) {
  pfs::BgIoStats d;
  d.writeOps = a.writeOps - b.writeOps;
  d.readOps = a.readOps - b.readOps;
  d.bytesWritten = a.bytesWritten - b.bytesWritten;
  d.bytesRead = a.bytesRead - b.bytesRead;
  d.retries = a.retries - b.retries;
  d.giveUps = a.giveUps - b.giveUps;
  d.backoffSeconds = a.backoffSeconds - b.backoffSeconds;
  d.codecRawBytes = a.codecRawBytes - b.codecRawBytes;
  d.codecStoredBytes = a.codecStoredBytes - b.codecStoredBytes;
  d.codecDedupHits = a.codecDedupHits - b.codecDedupHits;
  d.codecDamagedChunks = a.codecDamagedChunks - b.codecDamagedChunks;
  d.codecSeconds = a.codecSeconds - b.codecSeconds;
  return d;
}

/// Fold background-thread accounting into the node's metrics.
void foldIntoObs(obs::NodeObs* o, const pfs::BgIoStats& d) {
  PCXX_OBS_COUNT(o, PfsRetries, d.retries);
  PCXX_OBS_COUNT(o, PfsGiveUps, d.giveUps);
  PCXX_OBS_SECONDS(o, PfsBackoffSeconds, d.backoffSeconds);
  PCXX_OBS_COUNT(o, AioBgWriteBytes, d.bytesWritten);
  PCXX_OBS_COUNT(o, AioBgReadBytes, d.bytesRead);
  PCXX_OBS_COUNT(o, PfsCodecRawBytes, d.codecRawBytes);
  PCXX_OBS_COUNT(o, PfsCodecStoredBytes, d.codecStoredBytes);
  PCXX_OBS_COUNT(o, PfsCodecDedupHits, d.codecDedupHits);
  PCXX_OBS_COUNT(o, PfsCodecDamagedChunks, d.codecDamagedChunks);
  PCXX_OBS_SECONDS(o, PfsCodecSeconds, d.codecSeconds);
#if !PCXX_OBS_ENABLED
  (void)o;
  (void)d;
#endif
}

constexpr const char* kAioAbortMessage =
    "machine aborted while a node was waiting on its aio pipeline";

/// Wait on `cv` until pred() holds. The caller must have registered
/// (lk's mutex, cv) with `machine` via AbortWaiterGuard BEFORE locking, so
/// Machine::abort() delivers an O(1) wake here; an abort rethrows the
/// machine's typed abort error. Returns false when `deadlineSeconds` of
/// wall time elapse first.
template <typename Pred>
bool boundedWait(std::condition_variable& cv,
                 std::unique_lock<std::mutex>& lk, double deadlineSeconds,
                 rt::Machine* machine, Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(deadlineSeconds));
  while (!pred()) {
    if (machine != nullptr && machine->aborted()) {
      machine->throwAbortError(kAioAbortMessage);
    }
    if (cv.wait_until(lk, deadline) == std::cv_status::timeout) {
      if (pred()) return true;
      if (machine != nullptr && machine->aborted()) {
        machine->throwAbortError(kAioAbortMessage);
      }
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool(int capacity) : capacity_(capacity) {
  PCXX_REQUIRE(capacity >= 1, "BufferPool needs at least one buffer");
}

ByteBuffer BufferPool::acquire(double deadlineSeconds, rt::Machine* machine) {
  // Register with the abort registry before taking mu_ (lock order:
  // registry mutex, then the wait mutex).
  std::optional<rt::AbortWaiterGuard> guard;
  if (machine != nullptr) guard.emplace(*machine, mu_, cv_);
  std::unique_lock<std::mutex> lk(mu_);
  if (free_.empty() && created_ < capacity_) {
    ++created_;
    return ByteBuffer{};
  }
  if (!boundedWait(cv_, lk, deadlineSeconds, machine,
                   [&] { return !free_.empty(); })) {
    throw IoError("aio: staging-buffer pool exhausted past the drain "
                  "deadline (flusher stuck?)");
  }
  ByteBuffer buf = std::move(free_.front());
  free_.pop_front();
  return buf;
}

void BufferPool::release(ByteBuffer&& buf) {
  buf.clear();  // keeps capacity: steady state allocates nothing
  {
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(std::move(buf));
  }
  cv_.notify_one();
}

int BufferPool::allocations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return created_;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

Writer::Writer(rt::Node& node, pfs::ParallelFilePtr file, Options opts)
    : node_(node),
      file_(std::move(file)),
      opts_(opts),
      pool_(opts.poolBuffers > 0 ? opts.poolBuffers : opts.queueDepth + 2) {
  PCXX_REQUIRE(opts_.queueDepth >= 1, "aio::Writer queue depth must be >= 1");
  PCXX_REQUIRE(file_ != nullptr, "aio::Writer needs an open file");
  flusher_ = std::thread([this] { flusherLoop(); });
}

Writer::~Writer() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cvFlusher_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // A failure still pending here was never observed by the node (close()
  // not called / unwound early). The file keeps its durable prefix; the
  // error cannot be thrown from a destructor.
}

ByteBuffer Writer::acquireBuffer() {
  return pool_.acquire(opts_.drainDeadlineSeconds, &node_.machine());
}

void Writer::submit(std::uint64_t offset, ByteBuffer&& buf,
                    double transferSeconds, bool syncAfter,
                    std::uint64_t flowId) {
  rethrowPending();
  obs::NodeObs* o = node_.obs();
#if !PCXX_OBS_ENABLED
  (void)o;
  (void)flowId;
#endif
  rt::VirtualClock& clock = node_.clock();

  // Modeled overlap timeline (deterministic; real scheduling irrelevant):
  // the flusher starts this block when it finishes the previous one, and
  // the producer stalls only when all queueDepth modeled slots are busy.
  const double now = clock.now();
  while (!completions_.empty() && completions_.front() <= now) {
    completions_.pop_front();
  }
  if (static_cast<int>(completions_.size()) >= opts_.queueDepth) {
    const double readyAt = completions_.front();
    completions_.pop_front();
    if (readyAt > now) {
      PCXX_OBS_SECONDS(o, AioStallSeconds, readyAt - now);
      clock.stallTo(readyAt);
    }
  }
  const double start = std::max(flusherReady_, clock.now());
  const double end = start + transferSeconds;
  flusherReady_ = end;
  completions_.push_back(end);
#if PCXX_OBS_ENABLED
  if (o != nullptr && o->trace != nullptr && !o->wallTime) {
    const int track = o->trace->flusherTrack(o->nodeId);
    o->trace->begin(track, "aio.flush", start);
    if (flowId != 0) {
      // Terminate the record's flow chain inside the modeled flush span:
      // the arrow lands on the background write that carried its bytes.
      o->trace->flowEnd(track, "ds.record", start, flowId);
    }
    o->trace->end(track, "aio.flush", end);
  }
#endif
  PCXX_OBS_COUNT(o, AioSubmits, 1);

  // Real handoff: bounded queue gives wall-clock backpressure. Whatever
  // way the wait ends short of enqueueing — deadline, abort, pending
  // background failure — `buf` goes back to the pool first, so a failed
  // submit never strands a staging-pool slot.
  {
    rt::AbortWaiterGuard guard(node_.machine(), mu_, cvProducer_);
    std::unique_lock<std::mutex> lk(mu_);
    const auto outstanding = [&] {
      return queue_.size() + (busy_ ? 1u : 0u);
    };
    bool queueReady = false;
    try {
      queueReady = boundedWait(cvProducer_, lk, opts_.drainDeadlineSeconds,
                               &node_.machine(), [&] {
                                 return error_ != nullptr ||
                                        outstanding() <
                                            static_cast<size_t>(
                                                opts_.queueDepth);
                               });
    } catch (...) {
      lk.unlock();
      pool_.release(std::move(buf));
      throw;
    }
    if (!queueReady) {
      lk.unlock();
      pool_.release(std::move(buf));
      throw IoError("aio: write-behind queue full past the drain deadline "
                    "(flusher stuck?)");
    }
    if (error_ != nullptr) {
      pool_.release(std::move(buf));
      std::rethrow_exception(error_);
    }
    queue_.push_back(Job{offset, std::move(buf), syncAfter});
    PCXX_OBS_HIST(o, AioQueueDepth, outstanding());
  }
  cvFlusher_.notify_one();
}

void Writer::drain() {
  obs::NodeObs* o = node_.obs();
#if !PCXX_OBS_ENABLED
  (void)o;
#endif
  PCXX_OBS_COUNT(o, AioDrains, 1);
  rt::VirtualClock& clock = node_.clock();
  if (flusherReady_ > clock.now()) {
    PCXX_OBS_SECONDS(o, AioDrainSeconds, flusherReady_ - clock.now());
    // stallTo, not syncTo: drain time is already charged to
    // aio.drain_seconds; routing the jump through waitedSeconds() would
    // double-count it in the collective wait timers too.
    clock.stallTo(flusherReady_);
  }
  completions_.clear();
  {
    rt::AbortWaiterGuard guard(node_.machine(), mu_, cvProducer_);
    std::unique_lock<std::mutex> lk(mu_);
    if (!boundedWait(cvProducer_, lk, opts_.drainDeadlineSeconds,
                     &node_.machine(),
                     [&] { return queue_.empty() && !busy_; })) {
      throw IoError(
          "aio: write-behind drain exceeded its deadline (flusher stuck?)");
    }
    foldStatsLocked();
  }
  rethrowPending();
}

void Writer::rethrowPending() {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(mu_);
    err = error_;
  }
  if (err) std::rethrow_exception(err);
}

bool Writer::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return error_ != nullptr;
}

void Writer::foldStatsLocked() {
  foldIntoObs(node_.obs(), subStats(stats_, folded_));
  folded_ = stats_;
}

void Writer::flusherLoop() {
  const int nodeId = node_.id();
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cvFlusher_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;  // best-effort drain done
      continue;
    }
    Job job = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    const bool drop = (error_ != nullptr);
    lk.unlock();

    pfs::BgIoStats delta;
    std::exception_ptr err;
    if (!drop) {
      // After a failure the remaining jobs are dropped, not written: the
      // file keeps its durable prefix exactly like a synchronous torn
      // write, and producers blocked on the pool wake up promptly.
      try {
        file_->writeAtBackground(nodeId, job.offset,
                                 std::span<const Byte>(job.buf), delta);
        if (job.syncAfter) file_->syncStorage();
      } catch (...) {
        err = std::current_exception();
      }
    }
    pool_.release(std::move(job.buf));

    lk.lock();
    addStats(stats_, delta);
    if (err && error_ == nullptr) error_ = err;
    busy_ = false;
    cvProducer_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Prefetcher
// ---------------------------------------------------------------------------

Prefetcher::Prefetcher(rt::Machine& machine, PlanFn plan, Options opts)
    : machine_(machine), plan_(std::move(plan)), opts_(opts) {
  PCXX_REQUIRE(opts_.depth >= 1, "aio::Prefetcher depth must be >= 1");
  PCXX_REQUIRE(plan_ != nullptr, "aio::Prefetcher needs a plan function");
  fetcher_ = std::thread([this] { fetchLoop(); });
}

Prefetcher::~Prefetcher() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    ++generation_;  // discard an in-flight fetch
  }
  cv_.notify_all();
  if (fetcher_.joinable()) fetcher_.join();
}

void Prefetcher::start(std::uint64_t offset) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    slots_.clear();
    nextOffset_ = offset;
    active_ = true;
    ++generation_;
  }
  cv_.notify_all();
}

void Prefetcher::invalidate() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    slots_.clear();
    active_ = false;
    ++generation_;
  }
  cv_.notify_all();
}

std::optional<PrefetchedRecord> Prefetcher::consume(std::uint64_t offset) {
  rt::AbortWaiterGuard guard(machine_, mu_, cv_);
  std::unique_lock<std::mutex> lk(mu_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opts_.waitDeadlineSeconds));
  for (;;) {
    if (error_ != nullptr) {
      // A background failure (e.g. an injected crash surviving the retry
      // policy) belongs to the node thread; it must not be downgraded to
      // a silent miss.
      std::exception_ptr err = error_;
      error_ = nullptr;
      slots_.clear();
      active_ = false;
      ++generation_;
      std::rethrow_exception(err);
    }
    if (!slots_.empty()) {
      if (slots_.front().start == offset) {
        PrefetchedRecord rec = std::move(slots_.front());
        slots_.pop_front();
        cv_.notify_all();  // a slot freed: the chain may extend
        return rec;
      }
      break;  // chain points elsewhere (seek/rewind without invalidate)
    }
    // Wait while the fetch thread is working on (or has not yet picked up)
    // exactly this offset; anything else is a definitive miss.
    if (!(active_ &&
          (fetchingValid_ ? fetching_ == offset : nextOffset_ == offset))) {
      break;  // idle (EOF) or fetching a different chain
    }
    if (machine_.aborted()) {
      machine_.throwAbortError(kAioAbortMessage);
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    // The fetch thread notifies on every state change and abort() notifies
    // via the abort-waiter registration above, so a bare bounded wait
    // (no 50 ms polling) cannot miss a wake-up.
    cv_.wait_until(lk, deadline);
  }
  // Miss: stop the chain; the caller reads synchronously and restarts it.
  slots_.clear();
  active_ = false;
  ++generation_;
  return std::nullopt;
}

void Prefetcher::foldStats(obs::NodeObs* o) {
  std::lock_guard<std::mutex> lk(mu_);
  foldIntoObs(o, subStats(stats_, folded_));
  folded_ = stats_;
}

void Prefetcher::fetchLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] {
      return stop_ || (active_ && error_ == nullptr &&
                       slots_.size() < static_cast<size_t>(opts_.depth));
    });
    if (stop_) return;
    const std::uint64_t off = nextOffset_;
    const std::uint64_t gen = generation_;
    fetching_ = off;
    fetchingValid_ = true;
    lk.unlock();

    PrefetchedRecord rec;
    pfs::BgIoStats delta;
    std::exception_ptr err;
    bool ok = false;
    try {
      ok = plan_(off, rec, delta);
    } catch (...) {
      err = std::current_exception();
    }

    lk.lock();
    addStats(stats_, delta);
    fetchingValid_ = false;
    if (gen == generation_) {
      if (err != nullptr) {
        if (error_ == nullptr) error_ = err;
        active_ = false;
      } else if (!ok) {
        active_ = false;  // EOF / no complete record: chain parks here
      } else {
        nextOffset_ = rec.next;
        slots_.push_back(std::move(rec));
      }
    }
    cv_.notify_all();
  }
}

}  // namespace pcxx::aio
