// The aio drain-deadline paths: a stuck flusher turns every bounded wait
// (drain, queue-full submit, pool acquire) into a typed IoError instead of
// a hang, a failed submit returns its staging buffer to the pool (no slot
// leak), and Machine::abort() wakes a pool wait in O(1) via the
// abort-waiter registry rather than the wait running out its deadline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "src/aio/aio.h"
#include "src/dstream/dstream.h"
#include "src/runtime/machine.h"
#include "src/runtime/rt_errors.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

// A gate the pfs fault hook parks on: while closed, every hooked storage
// op blocks. Open it before any Writer/OStream is destroyed so the flusher
// can finish its in-flight job and join.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void openGate() {
    {
      std::lock_guard<std::mutex> lk(mu);
      open = true;
    }
    cv.notify_all();
  }
  void waitOpen() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return open; });
  }
};

pfs::FaultHook gateHook(Gate& gate) {
  return [&gate](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Write) gate.waitOpen();
  };
}

ByteBuffer filled(size_t n) { return ByteBuffer(n, Byte{0x5A}); }

TEST(AioDrainDeadline, StuckFlusherTurnsDrainIntoIoError) {
  pfs::Pfs fs = test::memFs();
  Gate gate;
  fs.setFaultHook(gateHook(gate));
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto file = fs.open(node, "stuck", pfs::OpenMode::Create);
    aio::Writer::Options wo;
    wo.queueDepth = 1;
    wo.drainDeadlineSeconds = 0.2;
    aio::Writer w(node, file, wo);
    ByteBuffer buf = w.acquireBuffer();
    buf = filled(64);
    w.submit(0, std::move(buf), 0.0);  // flusher takes it and parks on the gate
    try {
      w.drain();
      FAIL() << "expected the drain deadline to fire";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("drain exceeded its deadline"),
                std::string::npos);
    }
    gate.openGate();
    w.drain();  // flusher finishes the parked job; now the queue is empty
    EXPECT_FALSE(w.failed());
  });
}

TEST(AioDrainDeadline, QueueFullSubmitTimesOutWithoutLeakingItsBuffer) {
  pfs::Pfs fs = test::memFs();
  Gate gate;
  fs.setFaultHook(gateHook(gate));
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto file = fs.open(node, "full", pfs::OpenMode::Create);
    aio::Writer::Options wo;
    wo.queueDepth = 1;
    wo.poolBuffers = 3;
    wo.drainDeadlineSeconds = 0.2;
    aio::Writer w(node, file, wo);

    ByteBuffer a = w.acquireBuffer();
    a = filled(64);
    w.submit(0, std::move(a), 0.0);  // in flight, parked on the gate

    ByteBuffer b = w.acquireBuffer();
    b = filled(64);
    try {
      w.submit(64, std::move(b), 0.0);  // queue full: must time out
      FAIL() << "expected the queue-full deadline to fire";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("queue full past the drain"),
                std::string::npos);
    }

    gate.openGate();
    w.drain();
    // The timed-out submit released its buffer: all three pool slots are
    // acquirable again. A leaked slot would make the last acquire block
    // and throw.
    ByteBuffer b1 = w.acquireBuffer();
    ByteBuffer b2 = w.acquireBuffer();
    ByteBuffer b3 = w.acquireBuffer();
    w.releaseBuffer(std::move(b1));
    w.releaseBuffer(std::move(b2));
    w.releaseBuffer(std::move(b3));
  });
}

TEST(AioDrainDeadline, PoolExhaustionHitsTheAcquireDeadline) {
  aio::BufferPool pool(1);
  ByteBuffer only = pool.acquire(0.1, nullptr);
  EXPECT_THROW(pool.acquire(0.1, nullptr), IoError);
  pool.release(std::move(only));
  ByteBuffer again = pool.acquire(0.1, nullptr);  // slot is back
  pool.release(std::move(again));
}

// StreamOptions::aioDrainDeadlineSeconds reaches the stream's writer: with
// the flusher slowed past the deadline, close() surfaces the IoError on
// the node thread instead of hanging.
TEST(AioDrainDeadline, StreamDrainDeadlineFiresThroughStreamOptions) {
  pfs::Pfs fs = test::memFs();
  std::atomic<bool> slow{false};
  fs.setFaultHook([&slow](const pfs::OpContext& op) {
    if (slow.load() && op.kind == pfs::OpKind::Write) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  });
  rt::Machine m(1);
  std::atomic<int> deadlineErrors{0};
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(64, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    data.forEachLocal(
        [](double& v, std::int64_t g) { v = static_cast<double>(g); });
    ds::StreamOptions so;
    so.aioQueueDepth = 1;
    so.aioDrainDeadlineSeconds = 0.1;
    ds::OStream s(fs, &d, "slow", so);
    slow = true;  // header writes are done; stall the data flushes now
    try {
      s << data;
      s.write();
      s << data;
      s.write();
      s.close();
    } catch (const IoError&) {
      deadlineErrors.fetch_add(1);
    }
    slow = false;  // let in-flight jobs finish so the dtor's join returns
  });
  EXPECT_GE(deadlineErrors.load(), 1);
}

// The pool wait registers as an abort-waiter: a peer failing ~100 ms in
// wakes it immediately, not after the 30 s acquire deadline.
TEST(AioDrainDeadline, AbortWakesAPoolWaitInsteadOfItsDeadline) {
  rt::Machine m(2);
  std::atomic<bool> sawPeerAbort{false};
  const auto start = std::chrono::steady_clock::now();
  try {
    m.run([&](rt::Node& node) {
      if (node.id() == 0) {
        aio::BufferPool pool(1);
        ByteBuffer only = pool.acquire(0.1, nullptr);
        try {
          pool.acquire(30.0, &node.machine());  // blocks until the abort
        } catch (const rt::PeerAbortError& e) {
          sawPeerAbort = true;
          EXPECT_EQ(e.originNode, 1);
          pool.release(std::move(only));
          throw;
        }
        pool.release(std::move(only));
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        throw Error("boom");
      }
    });
    FAIL() << "expected the peer's exception to surface";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(sawPeerAbort.load());
  EXPECT_LT(elapsed, 5.0);  // O(1) wake, nowhere near the 30 s deadline
}

}  // namespace
