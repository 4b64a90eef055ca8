// Crash-point sweep: replay CheckpointManager::save() with a crash
// injected at EVERY storage op index the save issues (plus mid-op torn
// variants that leave half an op's bytes durable) and assert that
// restoreLatest() still recovers a consistent epoch at every crash point.
//
// This is the paper's checkpointing application (§2) driven to its
// durability contract: "a crash mid-checkpoint always leaves the previous
// epoch recoverable" must hold not just for the crash points a test author
// happened to think of, but for all of them.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/dstream/checkpoint.h"
#include "src/dstream/dstream.h"
#include "src/pfs/fault_plan.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr int kNodes = 2;
constexpr std::int64_t kElems = 8;

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

void saveEpoch(rt::Machine& m, pfs::Pfs& fs, int epoch,
               const ds::CheckpointOptions& co = {}) {
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    fill(data, epoch);
    ds::CheckpointManager mgr(fs, co);
    mgr.save(data);
  });
}

/// Count the storage ops one save of epoch 1 issues (after a clean epoch 0
/// exists, so the op sequence matches the sweep runs).
std::uint64_t opsPerSave(const ds::CheckpointOptions& co = {}) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(kNodes);
  saveEpoch(m, fs, 0, co);
  const std::uint64_t before = fs.opCount();
  saveEpoch(m, fs, 1, co);
  return fs.opCount() - before;
}

/// One sweep point: crash at the k-th storage op of the epoch-1 save
/// (`durableFraction` of that op's request applied first), then restore.
/// With co.aioQueueDepth > 0 the data flushes run on background threads,
/// so WHICH logical access is the k-th op varies run to run — the
/// durability contract must hold for all interleavings, which is exactly
/// what the sweep then exercises.
void sweepPoint(std::uint64_t k, std::uint64_t totalOps, bool halfDurable,
                const ds::CheckpointOptions& co = {}) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(kNodes);
  saveEpoch(m, fs, 0, co);
  const std::uint64_t base = fs.opCount();

  bool crashed = false;
  if (k < totalOps) {
    // durableBytes is clamped per-op by pfs, so "half of a large request"
    // approximated as a fixed small prefix exercises torn mid-op states
    // across op sizes.
    pfs::FaultPlan plan;
    plan.crashAtOp(base + k, halfDurable ? 4 : 0);
    fs.setFaultHook(plan.hook());
    try {
      saveEpoch(m, fs, 1, co);
    } catch (const Error&) {
      crashed = true;  // CrashInjected (possibly wrapped by peer aborts)
    }
    fs.setFaultHook(nullptr);
    EXPECT_TRUE(crashed) << "crash point " << k << " never fired";
  } else {
    saveEpoch(m, fs, 1, co);  // the no-crash end of the sweep
  }

  // Whatever the crash point, restore must land on a consistent epoch:
  // either the completed epoch 1 or the prior epoch 0 — never garbage,
  // never "no checkpoint".
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    ds::CheckpointManager mgr(fs, co);
    const std::int64_t epoch = mgr.restoreLatest(back);
    EXPECT_TRUE(epoch == 0 || epoch == 1)
        << "crash point " << k << " restored epoch " << epoch;
    if (epoch == 0 || epoch == 1) {
      EXPECT_EQ(countWrong(back, static_cast<int>(epoch)), 0)
          << "crash point " << k << " restored inconsistent data for epoch "
          << epoch;
    }
    if (k >= totalOps) {
      EXPECT_EQ(epoch, 1) << "clean save must restore the new epoch";
    }
  });
}

TEST(CrashSweep, EveryCrashPointLeavesARecoverableEpoch) {
  const std::uint64_t total = opsPerSave();
  ASSERT_GT(total, 0u);
  // k == total is the no-crash control point: K + 1 points in all.
  for (std::uint64_t k = 0; k <= total; ++k) {
    SCOPED_TRACE("crash at save op " + std::to_string(k));
    sweepPoint(k, total, /*halfDurable=*/false);
  }
}

TEST(CrashSweep, TornMidOpCrashesAlsoRecover) {
  const std::uint64_t total = opsPerSave();
  ASSERT_GT(total, 0u);
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE("torn crash at save op " + std::to_string(k));
    sweepPoint(k, total, /*halfDurable=*/true);
  }
}

/// The overlap configuration under sweep: epoch data flushed write-behind,
/// restores prefetching. saveWith drains the stream (explicit close) before
/// the marker moves, so a crash inside a background flush must still leave
/// the previous epoch recoverable.
ds::CheckpointOptions asyncOptions() {
  ds::CheckpointOptions co;
  co.aioQueueDepth = 2;
  co.aioPrefetchDepth = 1;
  return co;
}

TEST(CrashSweep, AsyncEveryCrashPointLeavesARecoverableEpoch) {
  const ds::CheckpointOptions co = asyncOptions();
  const std::uint64_t total = opsPerSave(co);
  ASSERT_GT(total, 0u);
  for (std::uint64_t k = 0; k <= total; ++k) {
    SCOPED_TRACE("async: crash at save op " + std::to_string(k));
    sweepPoint(k, total, /*halfDurable=*/false, co);
  }
}

TEST(CrashSweep, AsyncTornMidOpCrashesAlsoRecover) {
  const ds::CheckpointOptions co = asyncOptions();
  const std::uint64_t total = opsPerSave(co);
  ASSERT_GT(total, 0u);
  for (std::uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE("async: torn crash at save op " + std::to_string(k));
    sweepPoint(k, total, /*halfDurable=*/true, co);
  }
}

}  // namespace
