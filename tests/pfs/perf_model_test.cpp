// Tests for the virtual-time performance model: the mechanisms DESIGN.md §6
// documents (small-op latency cliff, serialized I/O queues, bulk cache knee,
// collective sync scaling, bookkeeping charges).
#include <gtest/gtest.h>

#include "src/pfs/parallel_file.h"
#include "src/pfs/perf_model.h"
#include "src/runtime/machine.h"

namespace {

using namespace pcxx;
using namespace pcxx::pfs;

PerfParams tinyModel() {
  PerfParams p;
  p.enabled = true;
  p.name = "test";
  p.smallOpLatencyCached = 1e-3;
  p.smallOpLatencyDisk = 10e-3;
  p.smallOpCacheBytes = 1000;
  p.smallOpThreshold = 100;
  p.smallOpsSerialize = true;
  p.bulkBwCached = 1e6;
  p.bulkBwDisk = 1e5;
  p.bulkCachePerNode = 10'000;
  p.collectiveSyncBase = 0.5;
  p.collectiveSyncPerNode = 0.25;
  return p;
}

TEST(PerfModel, DisabledModelChargesNothing) {
  Pfs fs{PfsConfig{}};
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer(50));
    EXPECT_DOUBLE_EQ(node.clock().now(), 0.0);
  });
}

TEST(PerfModel, SmallOpsPayCachedLatencyWithinCache) {
  PfsConfig cfg;
  cfg.perf = tinyModel();
  Pfs fs(cfg);
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    const double t0 = node.clock().now();
    f->writeAt(node, 0, ByteBuffer(50));  // 50 bytes, cum 50 <= 1000
    EXPECT_NEAR(node.clock().now() - t0, 1e-3, 1e-9);
  });
}

TEST(PerfModel, SmallOpsHitDiskLatencyPastCache) {
  PfsConfig cfg;
  cfg.perf = tinyModel();
  Pfs fs(cfg);
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    // 30 writes of 50 bytes: first 20 stay under the 1000-byte cache
    // (cumWritten <= 1000), the remaining 10 pay disk latency.
    for (int i = 0; i < 30; ++i) {
      f->writeAt(node, static_cast<std::uint64_t>(i) * 50, ByteBuffer(50));
    }
    const double opensCost = fs.model().params().collectiveSync(1);
    const double expected = 20 * 1e-3 + 10 * 10e-3;
    EXPECT_NEAR(node.clock().now() - opensCost, expected, 1e-6);
  });
}

TEST(PerfModel, SerializedSmallOpsQueueAcrossNodes) {
  PfsConfig cfg;
  cfg.perf = tinyModel();
  cfg.perf.collectiveSyncBase = 0.0;
  cfg.perf.collectiveSyncPerNode = 0.0;
  Pfs fs(cfg);
  rt::Machine m(4);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    // Each node issues 5 small cached ops concurrently; they serialize
    // through one queue, so the makespan is 20 ops * 1 ms.
    for (int i = 0; i < 5; ++i) {
      f->writeAt(node,
                 static_cast<std::uint64_t>(node.id() * 5 + i) * 10,
                 ByteBuffer(10));
    }
    const double makespan = node.allreduceMax(node.clock().now());
    EXPECT_NEAR(makespan, 20e-3, 1e-6);
  });
}

TEST(PerfModel, ParallelSmallOpsWhenNotSerialized) {
  PfsConfig cfg;
  cfg.perf = tinyModel();
  cfg.perf.smallOpsSerialize = false;
  cfg.perf.collectiveSyncBase = 0.0;
  cfg.perf.collectiveSyncPerNode = 0.0;
  cfg.perf.bulkBwCached = 1e18;  // isolate latency
  cfg.perf.bulkBwDisk = 1e18;
  Pfs fs(cfg);
  rt::Machine m(4);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    for (int i = 0; i < 5; ++i) {
      f->writeAt(node,
                 static_cast<std::uint64_t>(node.id() * 5 + i) * 10,
                 ByteBuffer(10));
    }
    // SMP path: each node pays only its own 5 ops.
    const double makespan = node.allreduceMax(node.clock().now());
    EXPECT_NEAR(makespan, 5e-3, 1e-6);
  });
}

TEST(PerfModel, BulkWriteSplitsAtCacheBoundary) {
  PfsConfig cfg;
  cfg.perf = tinyModel();
  Pfs fs(cfg);
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    const double t0 = node.clock().now();
    // 2 nodes x 15000 bytes = 30000 total; cache = 2 * 10000 = 20000.
    // 20000 at 1e6 B/s + 10000 at 1e5 B/s, plus one collective sync (1.0s).
    ByteBuffer mine(15000);
    f->writeOrdered(node, mine);
    const double expected = 1.0 + 20000 / 1e6 + 10000 / 1e5;
    EXPECT_NEAR(node.clock().now() - t0, expected, 1e-6);
  });
}

TEST(PerfModel, BulkReadCachedIffFileFits) {
  PfsConfig cfg;
  cfg.perf = tinyModel();
  Pfs fs(cfg);
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    // Small file: cached read.
    {
      auto f = fs.open(node, "small", OpenMode::Create);
      f->writeOrdered(node, ByteBuffer(5000));
      f->seekShared(node, 0);
      const double t0 = node.clock().now();
      f->readOrdered(node, 5000, 10000);
      EXPECT_NEAR(node.clock().now() - t0, 1.0 + 10000 / 1e6, 1e-6);
    }
    // Large file (> 20000): disk read.
    {
      auto f = fs.open(node, "large", OpenMode::Create);
      f->writeOrdered(node, ByteBuffer(15000));
      f->seekShared(node, 0);
      const double t0 = node.clock().now();
      f->readOrdered(node, 15000, 30000);
      EXPECT_NEAR(node.clock().now() - t0, 1.0 + 30000 / 1e5, 1e-6);
    }
  });
}

TEST(PerfModel, CollectiveSyncScalesWithNodes) {
  EXPECT_DOUBLE_EQ(tinyModel().collectiveSync(4), 0.5 + 0.25 * 4);
  EXPECT_DOUBLE_EQ(tinyModel().collectiveSync(8), 0.5 + 0.25 * 8);
}

TEST(PerfModel, IoNodeScalingMultipliesBandwidth) {
  for (int ioNodes : {1, 4}) {
    PfsConfig cfg;
    cfg.perf = tinyModel();
    cfg.perf.collectiveSyncBase = 0.0;
    cfg.perf.collectiveSyncPerNode = 0.0;
    cfg.nIoNodes = ioNodes;
    Pfs fs(cfg);
    rt::Machine m(2);
    double elapsed = 0.0;
    m.run([&](rt::Node& node) {
      auto f = fs.open(node, "f", OpenMode::Create);
      ByteBuffer mine(5000);
      const double t0 = node.clock().now();
      f->writeOrdered(node, mine);
      if (node.id() == 0) elapsed = node.clock().now() - t0;
    });
    EXPECT_NEAR(elapsed, 10000.0 / (1e6 * ioNodes), 1e-9)
        << "ioNodes=" << ioNodes;
  }
}

TEST(PerfModel, LopsidedCollectiveLimitedByNodeBandwidth) {
  PfsConfig cfg;
  cfg.perf = tinyModel();
  cfg.perf.collectiveSyncBase = 0.0;
  cfg.perf.collectiveSyncPerNode = 0.0;
  cfg.perf.bulkCachePerNode = 1u << 30;  // all cached
  Pfs fs(cfg);
  rt::Machine m(4);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    // Node 0 writes everything: per-node cap is half the aggregate, so the
    // duration is 8000/(1e6*0.5), not 8000/1e6.
    ByteBuffer mine(node.id() == 0 ? 8000 : 0);
    const double t0 = node.clock().now();
    f->writeOrdered(node, mine);
    EXPECT_NEAR(node.clock().now() - t0, 8000 / (1e6 * 0.5), 1e-9);
  });
}

TEST(PerfModel, BookkeepingChargesPerElementAndRecord) {
  PerfParams p = tinyModel();
  p.bookkeepingPerElement = 1e-4;
  p.bookkeepingPerRecord = 0.2;
  PerfModel model(p);
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    model.chargeBookkeeping(node, 100);
    EXPECT_NEAR(node.clock().now(), 0.2 + 100 * 1e-4, 1e-12);
  });
}

TEST(PerfModel, PresetsExistAndLookupWorks) {
  EXPECT_TRUE(paragonParams().enabled);
  EXPECT_TRUE(sgiParams(1).enabled);
  EXPECT_TRUE(sgiParams(8).enabled);
  EXPECT_FALSE(noModel().enabled);
  EXPECT_EQ(paramsByName("paragon", 4).name, "paragon");
  EXPECT_EQ(paramsByName("sgi", 8).name, "sgi");
  EXPECT_FALSE(paramsByName("none", 1).enabled);
  EXPECT_THROW(paramsByName("cray", 4), UsageError);
}

TEST(PerfModel, SgiUniAndMultiDiffer) {
  // The uniprocessor and 8-way presets are distinct calibrations.
  EXPECT_NE(sgiParams(1).bulkBwCached, sgiParams(8).bulkBwCached);
  EXPECT_FALSE(sgiParams(8).smallOpsSerialize);
}

TEST(PerfModel, ResetClearsQueues) {
  PfsConfig cfg;
  cfg.perf = tinyModel();
  cfg.perf.collectiveSyncBase = 0.0;
  cfg.perf.collectiveSyncPerNode = 0.0;
  Pfs fs(cfg);
  {
    rt::Machine m(1);
    m.run([&](rt::Node& node) {
      auto f = fs.open(node, "f", OpenMode::Create);
      f->writeAt(node, 0, ByteBuffer(10));
    });
  }
  fs.model().reset();
  {
    rt::Machine m(1);
    m.run([&](rt::Node& node) {
      auto f = fs.open(node, "f2", OpenMode::Create);
      f->writeAt(node, 0, ByteBuffer(10));
      // Without reset the queue would start at the previous op's end.
      EXPECT_NEAR(node.clock().now(), 1e-3, 1e-9);
    });
  }
}

}  // namespace
