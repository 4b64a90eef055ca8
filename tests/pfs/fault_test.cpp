// Fault-injection tests: storage failures surface as typed IoError without
// deadlocking the machine, and the hook observes real access patterns.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/pfs/parallel_file.h"
#include "src/runtime/machine.h"
#include "src/util/error.h"

namespace {

using namespace pcxx;
using namespace pcxx::pfs;

TEST(Fault, HookSeesEveryAccess) {
  Pfs fs{PfsConfig{}};
  std::atomic<int> writes{0};
  std::atomic<int> reads{0};
  fs.setFaultHook([&](const OpContext& op) {
    (op.kind == OpKind::Write ? writes : reads).fetch_add(1);
    EXPECT_EQ(op.file, "hooked");
  });
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "hooked", OpenMode::Create);
    ByteBuffer mine(8, 1);
    f->writeOrdered(node, mine);  // one storage write per node
    f->seekShared(node, 0);
    f->readOrdered(node, 8, 16);
  });
  EXPECT_EQ(writes.load(), 2);
  EXPECT_EQ(reads.load(), 2);
}

TEST(Fault, InjectedWriteFailurePropagates) {
  Pfs fs{PfsConfig{}};
  fs.setFaultHook([](const OpContext& op) {
    if (op.kind == OpKind::Write) {
      throw IoError("injected: device full");
    }
  });
  rt::Machine m(4);
  EXPECT_THROW(m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    ByteBuffer mine(8, 1);
    f->writeOrdered(node, mine);
  }),
               IoError);
}

TEST(Fault, FailNthOperation) {
  Pfs fs{PfsConfig{}};
  fs.setFaultHook([](const OpContext& op) {
    if (op.opIndex == 3) {
      throw IoError("injected at op 3");
    }
  });
  rt::Machine m(1);
  EXPECT_THROW(m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    for (int i = 0; i < 10; ++i) {
      f->writeAt(node, static_cast<std::uint64_t>(i), ByteBuffer{1});
    }
  }),
               IoError);
  EXPECT_EQ(fs.opCount(), 4u);  // ops 0..3 attempted
}

TEST(Fault, SingleNodeFaultAbortsWholeMachine) {
  Pfs fs{PfsConfig{}};
  fs.setFaultHook([](const OpContext& op) {
    if (op.nodeId == 1 && op.kind == OpKind::Write) {
      throw IoError("node 1's disk died");
    }
  });
  rt::Machine m(4);
  EXPECT_THROW(m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    ByteBuffer mine(8, 1);
    f->writeOrdered(node, mine);
    // Unreached: the abort must wake nodes 0, 2, 3 out of the collective.
    node.barrier();
  }),
               Error);
  EXPECT_TRUE(m.aborted());
}

TEST(Fault, HookClearedStopsFiring) {
  Pfs fs{PfsConfig{}};
  std::atomic<int> calls{0};
  fs.setFaultHook([&](const OpContext&) { calls.fetch_add(1); });
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f", OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer{1});
  });
  EXPECT_EQ(calls.load(), 1);
  fs.setFaultHook(nullptr);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "f2", OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer{1});
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(Fault, CorruptByteAlters) {
  Pfs fs{PfsConfig{}};
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "c", OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer{1, 2, 3});
  });
  fs.corruptByte("c", 1, 0xFF);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "c", OpenMode::Read);
    ByteBuffer out(3);
    f->readAt(node, 0, out);
    EXPECT_EQ(out[1], 0xFF);
  });
}

TEST(Fault, TruncateFileShortensReads) {
  Pfs fs{PfsConfig{}};
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "t", OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer(100, 5));
  });
  fs.truncateFile("t", 10);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "t", OpenMode::Read);
    EXPECT_EQ(f->size(), 10u);
  });
}

TEST(OpRecorder, CapturesAccessPatternAsAFaultHook) {
  Pfs fs{PfsConfig{}};
  OpRecorder rec;
  fs.setFaultHook(rec.hook());
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "rec", OpenMode::Create);
    f->writeAt(node, static_cast<std::uint64_t>(node.id()) * 32,
               ByteBuffer(32, 9));
    ByteBuffer back(32);
    f->readAt(node, 0, back);
  });
  EXPECT_EQ(rec.count(), 4u);
  EXPECT_EQ(rec.totalBytes(OpKind::Write), 64u);
  EXPECT_EQ(rec.totalBytes(OpKind::Read), 64u);
  // Fault hooks run before the access: duration is never filled in.
  for (const OpContext& op : rec.ops()) {
    EXPECT_EQ(op.opDurationSeconds, 0.0);
    EXPECT_EQ(op.file, "rec");
  }
  rec.clear();
  EXPECT_EQ(rec.count(), 0u);
}

TEST(ObserveHook, RecordsModeledDurationsAfterEachAccess) {
  PfsConfig cfg;
  cfg.perf = paragonParams();
  Pfs fs(cfg);
  OpRecorder rec;
  fs.setObserveHook(rec.hook());
  rt::Machine m(2, rt::CommModel{100e-6, 1.25e-8});
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "obs", OpenMode::Create);
    ByteBuffer mine(4096, 7);
    f->writeOrdered(node, mine);
    f->seekShared(node, 0);
    f->readOrdered(node, 4096, 8192);
  });
  // One write and one read context per node.
  EXPECT_EQ(rec.count(), 4u);
  EXPECT_EQ(rec.totalBytes(OpKind::Write), 8192u);
  EXPECT_EQ(rec.totalBytes(OpKind::Read), 8192u);
  EXPECT_GT(rec.totalSeconds(), 0.0);
  for (const OpContext& op : rec.ops()) {
    EXPECT_GT(op.opDurationSeconds, 0.0) << "op " << op.opIndex;
  }
  // Observe hooks must not fire once cleared.
  fs.setObserveHook(nullptr);
  rec.clear();
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "obs2", OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer(8, 1));
  });
  EXPECT_EQ(rec.count(), 0u);
}

TEST(ObserveHook, RunsEvenWhenNoFaultHookIsInstalled) {
  Pfs fs{PfsConfig{}};
  OpRecorder rec;
  fs.setObserveHook(rec.hook());
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "solo", OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer(16, 3));
  });
  ASSERT_EQ(rec.count(), 1u);
  EXPECT_EQ(rec.ops()[0].kind, OpKind::Write);
  EXPECT_EQ(rec.ops()[0].bytes, 16u);
  EXPECT_EQ(rec.ops()[0].nodeId, 0);
}

}  // namespace
