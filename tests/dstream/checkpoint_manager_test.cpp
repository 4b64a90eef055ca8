// Tests for the CheckpointManager extension: epoch rotation, marker
// discipline, damaged-epoch fallback, and cross-node-count restore.
#include <gtest/gtest.h>

#include <array>
#include <functional>

#include "src/dstream/checkpoint.h"
#include "src/dstream/dstream.h"
#include "src/util/log.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

void fill(coll::Collection<double>& c, int epoch) {
  c.forEachLocal([epoch](double& v, std::int64_t g) {
    v = static_cast<double>(epoch * 1000 + g);
  });
}

std::int64_t countWrong(coll::Collection<double>& c, int epoch) {
  std::int64_t bad = 0;
  c.forEachLocal([&](double& v, std::int64_t g) {
    if (v != static_cast<double>(epoch * 1000 + g)) ++bad;
  });
  return bad;
}

TEST(CheckpointManager, SaveRestoreLatest) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(3);
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(12, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    EXPECT_EQ(mgr.latestEpoch(node), -1);

    fill(data, 0);
    EXPECT_EQ(mgr.save(data), 0u);
    fill(data, 1);
    EXPECT_EQ(mgr.save(data), 1u);
    EXPECT_EQ(mgr.latestEpoch(node), 1);

    coll::Collection<double> back(&d);
    EXPECT_EQ(mgr.restoreLatest(back), 1);
    EXPECT_EQ(countWrong(back, 1), 0);
  });
}

TEST(CheckpointManager, PrunesBeyondKeepLast) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointOptions opts;
    opts.keepLast = 2;
    ds::CheckpointManager mgr(fs, opts);
    for (int e = 0; e < 5; ++e) {
      fill(data, e);
      mgr.save(data);
    }
    EXPECT_FALSE(fs.exists(mgr.epochFileName(0)));
    EXPECT_FALSE(fs.exists(mgr.epochFileName(2)));
    EXPECT_TRUE(fs.exists(mgr.epochFileName(3)));
    EXPECT_TRUE(fs.exists(mgr.epochFileName(4)));
  });
}

TEST(CheckpointManager, FallsBackWhenMarkedEpochDamaged) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  // Save epochs 0 and 1.
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    fill(data, 0);
    mgr.save(data);
    fill(data, 1);
    mgr.save(data);
  });
  // Corrupt epoch 1's data (the marker still points at it).
  fs.corruptByte("checkpoint.1", 200, 0x00);
  fs.corruptByte("checkpoint.1", 201, 0x00);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    // Restores epoch 0 instead (epoch 1 fails its data checksum or
    // structural validation, depending on which byte was hit).
    EXPECT_EQ(mgr.restoreLatest(back), 0);
    EXPECT_EQ(countWrong(back, 0), 0);
  });
}

TEST(CheckpointManager, CrashBeforeMarkerKeepsPreviousEpoch) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    fill(data, 0);
    mgr.save(data);
  });
  // Simulated crash mid-save of epoch 1: fail writes to the epoch file
  // after a few operations; the marker write never happens.
  std::atomic<int> epochWrites{0};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.file == "checkpoint.1" && op.kind == pfs::OpKind::Write &&
        epochWrites.fetch_add(1) >= 2) {
      throw IoError("injected: power loss");
    }
  });
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    fill(data, 1);
    mgr.save(data);
  }),
               Error);
  fs.setFaultHook(nullptr);
  // Restore still lands on the intact epoch 0.
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    EXPECT_EQ(mgr.latestEpoch(node), 0);
    EXPECT_EQ(mgr.restoreLatest(back), 0);
    EXPECT_EQ(countWrong(back, 0), 0);
  });
}

TEST(CheckpointManager, RestoreOnDifferentNodeCountAndDistribution) {
  pfs::Pfs fs = test::memFs();
  {
    rt::Machine m(4);
    m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(10, &P, coll::DistKind::Cyclic);
      coll::Collection<double> data(&d);
      ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
      fill(data, 7);
      mgr.save(data);
    });
  }
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(10, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    EXPECT_EQ(mgr.restoreLatest(back), 0);
    EXPECT_EQ(countWrong(back, 7), 0);
  });
}

TEST(CheckpointManager, NumberingResumesAfterRestart) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    {
      ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
      fill(data, 0);
      mgr.save(data);
      fill(data, 1);
      mgr.save(data);
    }
    // A fresh manager (restarted process) continues the epoch sequence.
    ds::CheckpointManager mgr2(fs, ds::CheckpointOptions{});
    fill(data, 2);
    EXPECT_EQ(mgr2.save(data), 2u);
  });
}

TEST(CheckpointManager, MultiCollectionEpochViaSaveWith) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<double> a(&d);
    coll::Collection<int> b(&d);
    fill(a, 3);
    b.forEachLocal([](int& v, std::int64_t g) { v = static_cast<int>(g); });

    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    mgr.saveWith(node, a.layout(), [&](ds::OStream& s) {
      s << a;
      s << b;
    });

    coll::Collection<double> a2(&d);
    coll::Collection<int> b2(&d);
    EXPECT_EQ(mgr.restoreWith(node, a2.layout(),
                              [&](ds::IStream& s) {
                                s >> a2;
                                s >> b2;
                              }),
              0);
    EXPECT_EQ(countWrong(a2, 3), 0);
    b2.forEachLocal([](int& v, std::int64_t g) {
      EXPECT_EQ(v, static_cast<int>(g));
    });
  });
}

TEST(CheckpointManager, FallsBackTwoEpochsWhenNewestTwoAreDamaged) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  ds::CheckpointOptions opts;
  opts.keepLast = 3;
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, opts);
    for (int e = 0; e < 3; ++e) {
      fill(data, e);
      mgr.save(data);
    }
  });
  // Corrupt BOTH the newest and the second-newest epoch.
  for (const char* name : {"checkpoint.2", "checkpoint.1"}) {
    fs.corruptByte(name, 200, 0x00);
    fs.corruptByte(name, 201, 0x00);
  }
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, opts);
    EXPECT_EQ(mgr.restoreLatest(back), 0);
    EXPECT_EQ(countWrong(back, 0), 0);
  });
}

TEST(CheckpointManager, NothingRecoverableIsATypedErrorListingRejects) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    fill(data, 0);
    mgr.save(data);
    fill(data, 1);
    mgr.save(data);
  });
  // 0xFF rather than 0x00: epoch 0's small double values are mostly zero
  // bytes already, and a no-op "corruption" would leave it restorable.
  fs.corruptByte("checkpoint.0", 200, 0xFF);
  fs.corruptByte("checkpoint.0", 201, 0xFF);
  fs.corruptByte("checkpoint.1", 200, 0xFF);
  fs.corruptByte("checkpoint.1", 201, 0xFF);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    // The marker promises a checkpoint; losing every retained epoch must
    // not masquerade as "no checkpoint exists".
    try {
      mgr.restoreLatest(back);
      ADD_FAILURE() << "expected CheckpointError";
    } catch (const ds::CheckpointError& e) {
      EXPECT_EQ(e.rejectedEpochs, (std::vector<std::uint64_t>{1, 0}));
      EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos);
    }
  });
}

TEST(CheckpointManager, TornMarkerFallsBackToScanningEpochFiles) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    fill(data, 0);
    mgr.save(data);
    fill(data, 1);
    mgr.save(data);
  });
  // A crash between the marker's truncation and its 8-byte write leaves an
  // empty marker file; both epoch files are durable.
  fs.truncateFile("checkpoint.latest", 0);
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    EXPECT_EQ(mgr.latestEpoch(node), -1);  // the marker itself is useless
    EXPECT_EQ(mgr.restoreLatest(back), 1);  // but the epochs are found
    EXPECT_EQ(countWrong(back, 1), 0);
  });
}

TEST(CheckpointManager, LostMarkerAlsoFallsBackToScan) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    fill(data, 0);
    mgr.save(data);
    fs.remove(node, mgr.markerFileName());

    coll::Collection<double> back(&d);
    EXPECT_EQ(mgr.restoreLatest(back), 0);
    EXPECT_EQ(countWrong(back, 0), 0);
  });
}

TEST(CheckpointManager, EmptyDirectoryRestoresNothingSilently) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    EXPECT_EQ(mgr.restoreLatest(back), -1);
  });
}

TEST(CheckpointManager, SaveAfterScanRestoreDoesNotCollideWithLeftovers) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    fill(data, 0);
    mgr.save(data);
    fill(data, 1);
    mgr.save(data);
  });
  // Torn marker + damaged newest epoch: restore falls back to epoch 0 but
  // epoch 1's file is still on disk; the next save must not reuse its id.
  fs.truncateFile("checkpoint.latest", 0);
  fs.corruptByte("checkpoint.1", 200, 0x00);
  fs.corruptByte("checkpoint.1", 201, 0x00);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    EXPECT_EQ(mgr.restoreLatest(back), 0);
    fill(back, 5);
    EXPECT_EQ(mgr.save(back), 2u);  // numbering resumes past the leftover
  });
}

TEST(CheckpointManager, InvalidOptionsRejected) {
  pfs::Pfs fs = test::memFs();
  ds::CheckpointOptions bad;
  bad.keepLast = 0;
  EXPECT_THROW(ds::CheckpointManager(fs, bad), UsageError);
  ds::CheckpointOptions noName;
  noName.baseName = "";
  EXPECT_THROW(ds::CheckpointManager(fs, noName), UsageError);
}

// ---- damage sweep over the marked epoch -----------------------------------
// Every truncation length and every single-byte overwrite of epoch 1 (the
// one the marker names) must restore epoch 1 or fall back to epoch 0, with
// exact data and the same verdict on every node. The watchdog deadlines turn
// a divergent collective (one node rejecting the epoch while the other reads
// on) into a failure instead of a hang.

rt::MachineOptions sweepMachineOptions() {
  rt::MachineOptions mo;
  mo.collectiveDeadlineSeconds = 10.0;
  mo.recvDeadlineSeconds = 10.0;
  return mo;
}

/// Saves epochs 0 and 1 of 8 Block-distributed doubles; returns the size of
/// epoch 1.
std::uint64_t saveTwoEpochs(pfs::Pfs& fs, rt::Machine& m, bool checksumData) {
  std::uint64_t epochBytes = 0;
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointOptions opts;
    opts.checksumData = checksumData;
    ds::CheckpointManager mgr(fs, opts);
    fill(data, 0);
    mgr.save(data);
    fill(data, 1);
    mgr.save(data);
    auto f = fs.open(node, mgr.epochFileName(1), pfs::OpenMode::Read);
    if (node.id() == 0) epochBytes = f->size();
  });
  return epochBytes;
}

TEST(CheckpointManager, DamagedFooterOverIntactRecordsStillRestores) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  const std::uint64_t epochBytes = saveTwoEpochs(fs, m, /*checksumData=*/true);
  // The last byte belongs to the index footer's self-checksummed trailer.
  fs.corruptByte("checkpoint.1", epochBytes - 1, 0xFF);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
    // The read replays the record chain; its header CRC and data checksum
    // still vouch for the record, so the marked epoch restores.
    EXPECT_EQ(mgr.restoreLatest(back), 1);
    EXPECT_EQ(countWrong(back, 1), 0);
  });
}

/// Restores on `m`; empty when every node restored the same epoch (0 or 1)
/// with exact data, otherwise what went wrong.
std::string restoreVerdict(pfs::Pfs& fs, rt::Machine& m) {
  std::array<std::int64_t, 2> epoch{-2, -2};
  std::array<std::int64_t, 2> wrong{0, 0};
  try {
    m.run([&](rt::Node& node) {
      coll::Processors P;
      coll::Distribution d(8, &P, coll::DistKind::Block);
      coll::Collection<double> back(&d);
      ds::CheckpointManager mgr(fs, ds::CheckpointOptions{});
      const std::int64_t e = mgr.restoreLatest(back);
      epoch[static_cast<size_t>(node.id())] = e;
      wrong[static_cast<size_t>(node.id())] =
          countWrong(back, static_cast<int>(e));
    });
  } catch (const std::exception& e) {
    return std::string("restore threw: ").append(e.what());
  }
  if (epoch[0] != epoch[1]) return "nodes restored different epochs";
  if (epoch[0] != 0 && epoch[0] != 1) {
    return "restored epoch " + std::to_string(epoch[0]);
  }
  if (wrong[0] + wrong[1] != 0) {
    return "wrong data in epoch " + std::to_string(epoch[0]);
  }
  return "";
}

/// Runs one sweep point per `damage(fs, k)`, k in [0, points(epochBytes)),
/// each on a fresh file system, and reports every failing point.
void sweepEpochDamage(
    bool checksumData,
    const std::function<void(pfs::Pfs&, std::uint64_t)>& damage) {
  rt::Machine m(2, {}, sweepMachineOptions());
  std::uint64_t epochBytes = 0;
  {
    pfs::Pfs fs = test::memFs();
    epochBytes = saveTwoEpochs(fs, m, checksumData);
  }
  ASSERT_GT(epochBytes, ds::kFileHeaderBytes);
  // Each rejected epoch logs a warning; hundreds of them are noise here.
  Logger& log = Logger::instance();
  const LogLevel before = log.level();
  log.setLevel(LogLevel::Off);
  int failures = 0;
  std::string first;
  for (std::uint64_t k = 0; k < epochBytes; ++k) {
    pfs::Pfs fs = test::memFs();
    saveTwoEpochs(fs, m, checksumData);
    damage(fs, k);
    const std::string verdict = restoreVerdict(fs, m);
    if (verdict.empty()) continue;
    if (failures++ == 0) {
      first = "at " + std::to_string(k) + ": " + verdict;
    }
  }
  log.setLevel(before);
  EXPECT_EQ(failures, 0) << "of " << epochBytes << " points; first " << first;
}

TEST(CheckpointManager, DamageSweepTruncatedMarkedEpoch) {
  for (const bool checksumData : {true, false}) {
    SCOPED_TRACE(checksumData ? "checksumData on" : "checksumData off");
    sweepEpochDamage(checksumData, [](pfs::Pfs& fs, std::uint64_t k) {
      fs.truncateFile("checkpoint.1", k);
    });
  }
}

TEST(CheckpointManager, DamageSweepOverwrittenByteInMarkedEpoch) {
  sweepEpochDamage(/*checksumData=*/true, [](pfs::Pfs& fs, std::uint64_t k) {
    fs.corruptByte("checkpoint.1", k, Byte{0xFF});
  });
}

}  // namespace
