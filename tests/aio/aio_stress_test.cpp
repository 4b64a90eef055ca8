// Concurrency stress for the pcxx::aio pipelines, meant to run under
// ThreadSanitizer (the CI tsan leg builds every test with
// -fsanitize=thread): producer-vs-flusher contention at depth 1 and 8,
// drain-at-close races, prefetch chains torn down mid-flight, and a
// FaultPlan crash landing inside a background flush. The pass criterion is
// simply: correct data, typed errors, no deadlock, no TSan report.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "src/dstream/dstream.h"
#include "src/pfs/fault.h"
#include "src/pfs/fault_plan.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr std::int64_t kElems = 24;

void fill(coll::Collection<std::int64_t>& c, int rec) {
  c.forEachLocal([rec](std::int64_t& v, std::int64_t g) {
    v = static_cast<std::int64_t>(rec) * 100000 + g;
  });
}

/// Write `records` records at `queueDepth`, read them back at
/// `prefetchDepth`, verify. The tight write loop keeps the producer ahead
/// of the flusher, so the bounded queue and staging pool see real
/// contention (blocking acquire/release on both sides).
void hammer(int nprocs, int queueDepth, int prefetchDepth, int records) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(nprocs);
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Cyclic);
    coll::Collection<std::int64_t> data(&d);

    ds::StreamOptions so;
    so.aioQueueDepth = queueDepth;
    {
      ds::OStream s(fs, &d, "hammer", so);
      for (int rec = 0; rec < records; ++rec) {
        fill(data, rec);
        s << data;
        s.write();
      }
      s.close();
    }

    coll::Collection<std::int64_t> back(&d);
    ds::StreamOptions ro;
    ro.aioPrefetchDepth = prefetchDepth;
    ds::IStream is(fs, &d, "hammer", ro);
    for (int rec = 0; rec < records; ++rec) {
      is.read();
      is >> back;
      back.forEachLocal([&](std::int64_t& v, std::int64_t g) {
        if (v != static_cast<std::int64_t>(rec) * 100000 + g) {
          bad.fetch_add(1);
        }
      });
    }
    is.close();
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(AioStress, ProducerVsFlusherDepth1) { hammer(2, 1, 1, 40); }

TEST(AioStress, ProducerVsFlusherDepth8) { hammer(2, 8, 8, 40); }

TEST(AioStress, ManyNodesModestDepth) { hammer(4, 2, 2, 16); }

TEST(AioStress, DrainAtCloseRaces) {
  // Close (and destroy) streams immediately after submitting work, over
  // and over: the drain handshake races the flusher finishing its last
  // job, and the prefetch chain is torn down while a fetch is in flight.
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<std::int64_t> data(&d);
    for (int round = 0; round < 12; ++round) {
      ds::StreamOptions so;
      so.aioQueueDepth = 1 + round % 4;
      {
        ds::OStream s(fs, &d, "race", so);
        fill(data, round);
        s << data;
        s.write();
        if (round % 2 == 0) {
          s.close();  // explicit drain...
        }
      }  // ...or destructor drain, alternating

      // Open a prefetching reader and abandon it after one record (or
      // before any, every third round) so the chain dies mid-flight.
      ds::StreamOptions ro;
      ro.aioPrefetchDepth = 1 + round % 3;
      ds::IStream is(fs, &d, "race", ro);
      if (round % 3 != 0) {
        coll::Collection<std::int64_t> back(&d);
        is.read();
        is >> back;
      }
    }
  });
}

TEST(AioStress, CrashMidBackgroundFlushSurfacesAndUnwinds) {
  // Crash injected into data-region writes only (offsets past the header
  // area): with write-behind on, these run on the flusher thread. The
  // sticky error must resurface on the node thread as a typed Error — from
  // write() or close() — and the whole machine must unwind without
  // deadlocking, repeatedly.
  for (int round = 0; round < 6; ++round) {
    pfs::Pfs fs = test::memFs();
    std::atomic<std::uint64_t> dataWrites{0};
    const std::uint64_t crashOn = 1 + static_cast<std::uint64_t>(round) % 3;
    fs.setFaultHook([&](const pfs::OpContext& op) {
      if (op.kind == pfs::OpKind::Write && op.offset >= 1u << 15) {
        if (dataWrites.fetch_add(1) + 1 == crashOn) {
          throw pfs::CrashInjected("mid background flush");
        }
      }
    });
    rt::Machine m(2);
    bool caught = false;
    try {
      m.run([&](rt::Node&) {
        coll::Processors P;
        coll::Distribution d(kElems, &P, coll::DistKind::Block);
        coll::Collection<std::int64_t> data(&d);
        // Fat payload via many records so data offsets pass the threshold.
        ds::StreamOptions so;
        so.aioQueueDepth = 2;
        ds::OStream s(fs, &d, "crashy", so);
        for (int rec = 0; rec < 400; ++rec) {
          fill(data, rec);
          s << data;
          s.write();
        }
        s.close();
      });
    } catch (const Error&) {
      caught = true;
    }
    EXPECT_TRUE(caught) << "round " << round;
  }
}

TEST(AioStress, TransientFaultsAreRetriedInTheBackground) {
  // A FaultPlan that fails 10% of ops transiently: the background retry
  // policy must absorb them (same policy as the synchronous path) and the
  // round trip must still verify.
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 8;  // the default (1) would fail permanently
  fs.setRetryPolicy(rp);
  pfs::FaultPlan plan(/*seed=*/7);
  plan.failWithProbability(0.1);
  fs.setFaultHook(plan.hook());
  rt::Machine m(2);
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<std::int64_t> data(&d);
    ds::StreamOptions so;
    so.aioQueueDepth = 3;
    {
      ds::OStream s(fs, &d, "flaky", so);
      for (int rec = 0; rec < 10; ++rec) {
        fill(data, rec);
        s << data;
        s.write();
      }
      s.close();
    }
    coll::Collection<std::int64_t> back(&d);
    ds::StreamOptions ro;
    ro.aioPrefetchDepth = 2;
    ds::IStream is(fs, &d, "flaky", ro);
    for (int rec = 0; rec < 10; ++rec) {
      is.read();
      is >> back;
      back.forEachLocal([&](std::int64_t& v, std::int64_t g) {
        if (v != static_cast<std::int64_t>(rec) * 100000 + g) {
          bad.fetch_add(1);
        }
      });
    }
    is.close();
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(plan.firedCount(), 0u);
}

}  // namespace
