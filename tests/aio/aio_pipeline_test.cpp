// Unit tests for the pcxx::aio pipeline wiring: depth-0 passthrough, the
// fixed-capacity staging pool (steady-state allocation zero), the
// helper-thread collective guard, and error surfacing at drain.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/pfs/fault.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr std::int64_t kElems = 12;

struct Fat {
  std::vector<double> v;
};
declareStreamInserter(Fat& e) { s << e.v; }
declareStreamExtractor(Fat& e) { s >> e.v; }

void fill(coll::Collection<double>& c, int rec) {
  c.forEachLocal([rec](double& v, std::int64_t g) {
    v = static_cast<double>(rec * 1000 + g);
  });
}

TEST(AioPipeline, DepthZeroIsTheSynchronousPath) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    fill(data, 0);

    ds::OStream s(fs, &d, "sync");  // default options: both depths 0
    EXPECT_FALSE(s.asyncActive());
    EXPECT_EQ(s.asyncBufferAllocations(), 0);
    s << data;
    s.write();
    s.close();

    coll::Collection<double> back(&d);
    ds::IStream is(fs, &d, "sync");
    EXPECT_FALSE(is.asyncActive());
    is.read();
    is >> back;
    back.forEachLocal([](double& v, std::int64_t g) {
      EXPECT_EQ(v, static_cast<double>(g));
    });
  });
}

TEST(AioPipeline, SteadyStateAllocationIsZero) {
  // Writing many records through a depth-2 pipeline must never allocate
  // beyond the fixed staging pool (queueDepth + 2 buffers by default): the
  // pool recycles, it does not grow.
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  std::atomic<int> maxAllocations{0};
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);

    ds::StreamOptions so;
    so.aioQueueDepth = 2;
    ds::OStream s(fs, &d, "steady", so);
    ASSERT_TRUE(s.asyncActive());
    for (int rec = 0; rec < 24; ++rec) {
      fill(data, rec);
      s << data;
      s.write();
    }
    // Sample before close(): close tears the pipeline (and its pool) down.
    int seen = s.asyncBufferAllocations();
    s.close();
    EXPECT_GT(seen, 0);
    int prev = maxAllocations.load();
    while (seen > prev &&
           !maxAllocations.compare_exchange_weak(prev, seen)) {
    }
  });
  EXPECT_LE(maxAllocations.load(), 2 + 2);
}

TEST(AioPipeline, PoolBuffersOptionCapsTheStagingPool) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);

    ds::StreamOptions so;
    so.aioQueueDepth = 4;
    so.aioPoolBuffers = 2;  // tighter than queueDepth + 2
    ds::OStream s(fs, &d, "capped", so);
    for (int rec = 0; rec < 16; ++rec) {
      fill(data, rec);
      s << data;
      s.write();
    }
    const int seen = s.asyncBufferAllocations();
    s.close();
    EXPECT_LE(seen, 2);
    EXPECT_GT(seen, 0);
  });
}

TEST(AioPipeline, BackgroundFlushFailureSurfacesAsATypedError) {
  // Crash every data-region write (the header and size table of this small
  // record live in the first bytes of the file; the element data starts
  // well past the threshold thanks to a fat payload). With write-behind
  // enabled those are exactly the flusher's ops, so the failure is captured
  // on the helper thread and must resurface as a typed Error on the node
  // thread — at the next write() or at close(), never silently.
  pfs::Pfs fs = test::memFs();
  fs.setFaultHook([](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Write && op.offset >= 1u << 16) {
      throw pfs::CrashInjected("background flush");
    }
  });
  rt::Machine m(2);
  bool caught = false;
  try {
    m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(kElems, &P, coll::DistKind::Block);
      // ~12 KiB per element: the record's data section dwarfs the 64 KiB
      // fault threshold, so at least one flushed chunk lands past it.
      coll::Collection<Fat> data(&d);
      data.forEachLocal([](Fat& e, std::int64_t g) {
        e.v.assign(1536, static_cast<double>(g));
      });
      ds::StreamOptions so;
      so.aioQueueDepth = 2;
      ds::OStream s(fs, &d, "doomed", so);
      for (int rec = 0; rec < 6; ++rec) {
        s << data;
        s.write();
      }
      s.close();
    });
  } catch (const Error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
}

TEST(AioPipeline, HelperThreadsMayNotEnterCollectives) {
  // aio helper threads (and any other non-node thread) must be rejected by
  // the runtime's collectives with a typed UsageError instead of hanging
  // the barrier protocol.
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  std::atomic<int> rejected{0};
  m.run([&](rt::Node& node) {
    std::thread helper([&] {
      try {
        node.barrier();
      } catch (const UsageError&) {
        rejected.fetch_add(1);
      }
    });
    helper.join();
    node.barrier();  // the node thread itself is still welcome
  });
  EXPECT_EQ(rejected.load(), 2);
}

}  // namespace
