// Golden byte-identity tests for the overlap pipeline: a file written with
// write-behind enabled (any queue depth) must be byte-for-byte identical to
// the one the synchronous path writes — the pipeline may only change WHEN
// bytes move, never WHERE — and reading it back through read-ahead must not
// disturb it. The same must hold with an observer attached (metrics +
// trace), since observation must never perturb the data path.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/pfs/parallel_file.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr int kNodes = 3;
constexpr std::int64_t kElems = 17;
constexpr int kRecords = 5;

struct Particle {
  int n = 0;
  double* data = nullptr;
  ~Particle() { delete[] data; }
  Particle() = default;
  Particle(const Particle&) = delete;
  Particle& operator=(const Particle&) = delete;
};

declareStreamInserter(Particle& e) {
  s << e.n;
  s << pcxx::ds::array(e.data, e.n);
}
declareStreamExtractor(Particle& e) {
  int n = 0;
  s >> n;
  if (n != e.n) {
    delete[] e.data;
    e.data = n > 0 ? new double[static_cast<size_t>(n)] : nullptr;
    e.n = n;
  }
  s >> pcxx::ds::array(e.data, e.n);
}

void fill(coll::Collection<Particle>& c, int rec) {
  c.forEachLocal([rec](Particle& e, std::int64_t g) {
    e.n = static_cast<int>((g * 5 + rec * 3 + 1) % 11);
    delete[] e.data;
    e.data = e.n > 0 ? new double[static_cast<size_t>(e.n)] : nullptr;
    for (int k = 0; k < e.n; ++k) {
      e.data[k] = static_cast<double>(rec * 100000 + g * 100 + k);
    }
  });
}

struct WriteCfg {
  int queueDepth = 0;
  bool checksum = false;
  int headerPolicy = 0;  // StreamOptions::HeaderPolicy
  bool observe = false;  // attach metrics + trace during the write
};

/// Write kRecords records of the fixed workload under `cfg`, then return
/// the finished file's bytes.
ByteBuffer writeAndSnapshot(const WriteCfg& cfg) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(kNodes);

#if PCXX_OBS_ENABLED
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::TraceSession> trace;
  if (cfg.observe) {
    registry = std::make_unique<obs::MetricsRegistry>(kNodes);
    trace = std::make_unique<obs::TraceSession>(kNodes);
    obs::Observer observer;
    observer.metrics = registry.get();
    observer.trace = trace.get();
    observer.timeMode = obs::Observer::TimeMode::Wall;  // no perf model here
    m.attachObserver(observer);
  }
#endif

  ByteBuffer bytes;
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Cyclic);
    coll::Collection<Particle> data(&d);

    ds::StreamOptions so;
    so.aioQueueDepth = cfg.queueDepth;
    so.checksumData = cfg.checksum;
    so.headerPolicy =
        static_cast<ds::StreamOptions::HeaderPolicy>(cfg.headerPolicy);
    ds::OStream s(fs, &d, "golden", so);
    EXPECT_EQ(s.asyncActive(), cfg.queueDepth > 0);
    for (int rec = 0; rec < kRecords; ++rec) {
      fill(data, rec);
      s << data;
      s.write();
    }
    s.close();

    auto f = fs.open(node, "golden", pfs::OpenMode::Read);
    if (node.id() == 0) {
      bytes.resize(static_cast<size_t>(f->size()));
      if (f->readAt(node, 0, bytes) != bytes.size()) {
        throw IoError("byte_identity: short read of the finished file");
      }
    }
    node.barrier();
  });
  return bytes;
}

/// Read the golden file back through a prefetching stream and assert the
/// contents round-trip; returns the file bytes afterwards (reads must not
/// disturb the file).
ByteBuffer readBackAndSnapshot(pfs::Pfs& fs, int prefetchDepth) {
  rt::Machine m(kNodes);
  ByteBuffer bytes;
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Cyclic);
    coll::Collection<Particle> back(&d);
    ds::StreamOptions ro;
    ro.aioPrefetchDepth = prefetchDepth;
    ds::IStream is(fs, &d, "golden", ro);
    for (int rec = 0; rec < kRecords; ++rec) {
      is.read();
      is >> back;
      back.forEachLocal([&](Particle& e, std::int64_t g) {
        if (e.n != static_cast<int>((g * 5 + rec * 3 + 1) % 11)) {
          bad.fetch_add(1);
          return;
        }
        for (int k = 0; k < e.n; ++k) {
          if (e.data[k] != static_cast<double>(rec * 100000 + g * 100 + k)) {
            bad.fetch_add(1);
          }
        }
      });
    }
    is.close();
    auto f = fs.open(node, "golden", pfs::OpenMode::Read);
    if (node.id() == 0) {
      bytes.resize(static_cast<size_t>(f->size()));
      f->readAt(node, 0, bytes);
    }
    node.barrier();
  });
  EXPECT_EQ(bad.load(), 0);
  return bytes;
}

TEST(ByteIdentity, AsyncFilesMatchSyncAtEveryDepth) {
  const ByteBuffer golden = writeAndSnapshot(WriteCfg{});
  ASSERT_FALSE(golden.empty());
  for (const int depth : {1, 2, 4, 8}) {
    WriteCfg cfg;
    cfg.queueDepth = depth;
    EXPECT_EQ(writeAndSnapshot(cfg), golden) << "queue depth " << depth;
  }
}

TEST(ByteIdentity, ChecksummedRecordsAlsoMatch) {
  WriteCfg sync;
  sync.checksum = true;
  const ByteBuffer golden = writeAndSnapshot(sync);
  for (const int depth : {1, 4}) {
    WriteCfg cfg;
    cfg.checksum = true;
    cfg.queueDepth = depth;
    EXPECT_EQ(writeAndSnapshot(cfg), golden) << "queue depth " << depth;
  }
}

TEST(ByteIdentity, BothHeaderModesMatchTheirSyncCounterpart) {
  // 1 = ForceGathered, 2 = ForceParallel.
  for (const int policy : {1, 2}) {
    WriteCfg sync;
    sync.headerPolicy = policy;
    const ByteBuffer golden = writeAndSnapshot(sync);
    WriteCfg cfg;
    cfg.headerPolicy = policy;
    cfg.queueDepth = 3;
    EXPECT_EQ(writeAndSnapshot(cfg), golden) << "header policy " << policy;
  }
}

#if PCXX_OBS_ENABLED
TEST(ByteIdentity, ObserverDoesNotPerturbTheBytes) {
  const ByteBuffer golden = writeAndSnapshot(WriteCfg{});
  WriteCfg cfg;
  cfg.queueDepth = 4;
  cfg.observe = true;
  EXPECT_EQ(writeAndSnapshot(cfg), golden);
}
#endif

TEST(ByteIdentity, PrefetchReadsLeaveTheFileUntouchedAndRoundTrip) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(kNodes);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Cyclic);
    coll::Collection<Particle> data(&d);
    ds::StreamOptions so;
    so.aioQueueDepth = 2;
    ds::OStream s(fs, &d, "golden", so);
    for (int rec = 0; rec < kRecords; ++rec) {
      fill(data, rec);
      s << data;
      s.write();
    }
    s.close();
  });
  const ByteBuffer before = readBackAndSnapshot(fs, /*prefetchDepth=*/0);
  for (const int depth : {1, 2, 4}) {
    EXPECT_EQ(readBackAndSnapshot(fs, depth), before)
        << "prefetch depth " << depth;
  }
}

}  // namespace
