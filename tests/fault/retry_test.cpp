// RetryPolicy: bounded retries with modeled backoff for transient storage
// faults — success after transients, prefix resumption after short writes,
// give-up semantics, crash fatality, and the no-fault golden guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/pfs/fault_plan.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

TEST(RetryPolicy, BackoffIsDeterministicAndBounded) {
  pfs::RetryPolicy rp;
  rp.backoffBase = 1e-3;
  rp.backoffFactor = 2.0;
  rp.backoffMax = 0.1;
  rp.jitter = 0.2;
  rp.seed = 99;
  for (int k = 1; k <= 12; ++k) {
    const double b1 = rp.backoffFor(k, 42, 1);
    const double b2 = rp.backoffFor(k, 42, 1);
    EXPECT_DOUBLE_EQ(b1, b2);  // pure function of (policy, k, op, node)
    EXPECT_GE(b1, rp.backoffBase * (1.0 - rp.jitter));
    EXPECT_LE(b1, rp.backoffMax * (1.0 + rp.jitter));
  }
  // Different ops jitter differently (the whole point of jitter).
  EXPECT_NE(rp.backoffFor(1, 42, 1), rp.backoffFor(1, 43, 1));
}

// Regression: the cap used to be applied BEFORE jitter, so once the
// exponential curve saturated, positive jitter pushed the returned delay up
// to backoffMax * (1 + jitter) — the documented hard bound was violated on
// every deep retry. The cap is a bound on the RETURNED value.
TEST(RetryPolicy, BackoffNeverExceedsMaxForAnySeedOrAttempt) {
  for (const std::uint64_t seed : {0ull, 1ull, 99ull, 0xDEADBEEFull}) {
    for (const double jitter : {0.0, 0.2, 0.5, 0.99}) {
      pfs::RetryPolicy rp;
      rp.backoffBase = 1e-3;
      rp.backoffFactor = 3.0;
      rp.backoffMax = 0.05;
      rp.jitter = jitter;
      rp.seed = seed;
      for (int attempt = 1; attempt <= 20; ++attempt) {
        for (std::uint64_t op = 0; op < 16; ++op) {
          for (int node = 0; node < 3; ++node) {
            const double b = rp.backoffFor(attempt, op, node);
            EXPECT_LE(b, rp.backoffMax)
                << "seed " << seed << " jitter " << jitter << " attempt "
                << attempt << " op " << op << " node " << node;
            EXPECT_GE(b, 0.0);
          }
        }
      }
    }
  }
}

TEST(RetryPolicy, TransientWriteFailuresRetriedToSuccess) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 5;
  rp.backoffBase = 0.25;
  rp.backoffFactor = 2.0;
  rp.backoffMax = 10.0;
  rp.jitter = 0.0;  // exact backoff arithmetic below
  fs.setRetryPolicy(rp);

  std::atomic<int> failuresLeft{2};
  std::mutex mu;
  std::vector<std::uint64_t> failedOps;
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind != pfs::OpKind::Write) return;
    int left = failuresLeft.load();
    while (left > 0 && !failuresLeft.compare_exchange_weak(left, left - 1)) {
    }
    if (left > 0) {
      std::lock_guard<std::mutex> lock(mu);
      failedOps.push_back(op.opIndex);
      throw IoError("injected transient");
    }
  });

  double clockAfter = 0.0;
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    const ByteBuffer data(64, Byte{0x5A});
    f->writeAt(node, 0, data);  // succeeds on the third attempt
    ByteBuffer back(64);
    EXPECT_EQ(f->readAt(node, 0, back), 64u);
    EXPECT_EQ(back, data);
    clockAfter = node.clock().now();
  });
  fs.setFaultHook(nullptr);

  // Two failed attempts => two backoffs, charged to the virtual clock:
  // retry 1 waits base, retry 2 waits base*factor (no jitter, no perf
  // model, so the clock holds exactly the backoff).
  ASSERT_EQ(failedOps.size(), 2u);
  EXPECT_DOUBLE_EQ(clockAfter, 0.25 + 0.5);
}

#if PCXX_OBS_ENABLED
TEST(RetryPolicy, RetriesAndBackoffShowUpInMetrics) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 4;
  rp.backoffBase = 0.125;
  rp.jitter = 0.0;
  fs.setRetryPolicy(rp);

  std::atomic<int> failuresLeft{1};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Write && failuresLeft.fetch_sub(1) > 0) {
      throw IoError("injected transient");
    }
  });

  rt::Machine m(1);
  obs::MetricsRegistry reg(1);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer(16, Byte{1}));
  });
  m.detachObserver();
  fs.setFaultHook(nullptr);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.merged.counter(obs::Counter::PfsRetries), 1u);
  EXPECT_EQ(snap.merged.counter(obs::Counter::PfsGiveUps), 0u);
  EXPECT_DOUBLE_EQ(snap.merged.timer(obs::Timer::PfsBackoffSeconds), 0.125);
}
#endif  // PCXX_OBS_ENABLED

TEST(RetryPolicy, ShortWriteResumesFromCompletedPrefix) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 3;
  rp.backoffBase = 1e-6;
  fs.setRetryPolicy(rp);

  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    ByteBuffer data(64);
    for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<Byte>(i);

    pfs::FaultPlan plan;
    plan.shortCompletionAtOp(fs.opCount(), 24);
    pfs::OpRecorder rec;
    fs.setFaultHook([&](const pfs::OpContext& op) {
      rec.record(op);
      plan.apply(op);
    });
    f->writeAt(node, 0, data);
    fs.setFaultHook(nullptr);

    // Attempt 1 asked for all 64 at offset 0; the retry asked only for the
    // remaining 40 at offset 24 — the durable prefix is not re-sent.
    const auto ops = rec.ops();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].offset, 0u);
    EXPECT_EQ(ops[0].bytes, 64u);
    EXPECT_EQ(ops[1].offset, 24u);
    EXPECT_EQ(ops[1].bytes, 40u);

    ByteBuffer back(64);
    EXPECT_EQ(f->readAt(node, 0, back), 64u);
    EXPECT_EQ(back, data);
  });
}

TEST(RetryPolicy, ExhaustedAttemptsRethrowTheOriginalError) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 3;
  rp.backoffBase = 1e-6;
  fs.setRetryPolicy(rp);

  std::atomic<int> fires{0};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Write) {
      fires.fetch_add(1);
      throw IoError("device on fire");
    }
  });
  EXPECT_THROW(
      test::runSpmd(1,
                    [&](rt::Node& node) {
                      auto f =
                          fs.open(node, "t.bin", pfs::OpenMode::Create);
                      try {
                        f->writeAt(node, 0, ByteBuffer(8, Byte{1}));
                      } catch (const IoError& e) {
                        // The give-up rethrows the hook's error verbatim
                        // (no re-wrapping, no doubled prefix).
                        EXPECT_STREQ(e.what(), "io error: device on fire");
                        throw;
                      }
                    }),
      IoError);
  fs.setFaultHook(nullptr);
  EXPECT_EQ(fires.load(), 3);  // maxAttempts, no more
}

TEST(RetryPolicy, DeadlineBoundsTheAttempts) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 100;
  rp.backoffBase = 1.0;
  rp.backoffFactor = 1.0;
  rp.backoffMax = 1.0;
  rp.jitter = 0.0;
  rp.opDeadlineSeconds = 1.5;  // room for two 1 s backoffs, not three
  fs.setRetryPolicy(rp);

  std::atomic<int> fires{0};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Write) {
      fires.fetch_add(1);
      throw IoError("still broken");
    }
  });
  EXPECT_THROW(test::runSpmd(1,
                             [&](rt::Node& node) {
                               auto f = fs.open(node, "t.bin",
                                                pfs::OpenMode::Create);
                               f->writeAt(node, 0, ByteBuffer(8, Byte{1}));
                             }),
               IoError);
  fs.setFaultHook(nullptr);
  // Attempts at t = 0 and t = 1 back off; the attempt at t = 2 finds the
  // deadline spent and gives up instead of backing off again.
  EXPECT_EQ(fires.load(), 3);
}

TEST(RetryPolicy, CrashIsFatalAndNeverRetried) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 50;
  fs.setRetryPolicy(rp);

  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer(64, Byte{0xEE}));

    pfs::FaultPlan plan;
    plan.crashAtOp(fs.opCount(), 16);
    fs.setFaultHook(plan.hook());
    bool crashed = false;
    try {
      f->writeAt(node, 0, ByteBuffer(64, Byte{0x11}));
    } catch (const pfs::CrashInjected&) {
      crashed = true;
    }
    fs.setFaultHook(nullptr);
    EXPECT_TRUE(crashed);
    EXPECT_EQ(plan.firedCount(), 1u);  // one attempt, despite maxAttempts=50

    // Exactly the durable prefix was applied before the crash.
    ByteBuffer back(64);
    EXPECT_EQ(f->readAt(node, 0, back), 64u);
    for (size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(back[i], i < 16 ? Byte{0x11} : Byte{0xEE}) << i;
    }
  });
}

TEST(RetryPolicy, EndOfFileShortReadIsNotAFault) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 5;
  fs.setRetryPolicy(rp);
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer(10, Byte{7}));
    const std::uint64_t opsBefore = fs.opCount();
    ByteBuffer out(64);
    EXPECT_EQ(f->readAt(node, 0, out), 10u);  // EOF, not an error
    EXPECT_EQ(fs.opCount() - opsBefore, 1u);  // and not retried
    EXPECT_DOUBLE_EQ(node.clock().now(), 0.0);  // no backoff charged
  });
}

// The golden guarantee: with no faults injected, installing a retry policy
// changes nothing — the stream writes byte-identical files.
TEST(RetryPolicy, NoFaultsMeansByteIdenticalStreamFiles) {
  auto writeFile = [](pfs::Pfs& fs) {
    test::runSpmd(2, [&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(10, &P, coll::DistKind::Block);
      coll::Collection<double> g(&d);
      g.forEachLocal([](double& v, std::int64_t i) {
        v = static_cast<double>(i) * 1.5;
      });
      ds::OStream s(fs, &d, "golden.ds");
      s << g;
      s.write();
    });
  };
  auto fileBytes = [](pfs::Pfs& fs) {
    ByteBuffer bytes;
    test::runSpmd(1, [&](rt::Node& node) {
      auto f = fs.open(node, "golden.ds", pfs::OpenMode::Read);
      bytes.resize(static_cast<size_t>(f->size()));
      EXPECT_EQ(f->readAt(node, 0, bytes), bytes.size());
    });
    return bytes;
  };

  pfs::Pfs plain = test::memFs();
  writeFile(plain);

  pfs::Pfs retried = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 7;
  rp.backoffBase = 0.5;
  retried.setRetryPolicy(rp);
  writeFile(retried);

  EXPECT_EQ(fileBytes(plain), fileBytes(retried));
}

// Background ops (the pcxx::aio flusher and prefetcher entry points) follow
// the same retry rules, but charge a pipeline's BgIoStats instead of a node.
// They are issued here from the test thread, as a pipeline thread would.
pfs::ParallelFilePtr openForBackground(pfs::Pfs& fs) {
  pfs::ParallelFilePtr f;
  test::runSpmd(1, [&](rt::Node& node) {
    f = fs.open(node, "bg.bin", pfs::OpenMode::Create);
  });
  return f;
}

ByteBuffer ramp(size_t n) {
  ByteBuffer data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<Byte>(i);
  return data;
}

TEST(RetryPolicy, BackgroundShortCompletionsResumeFromTheCompletedPrefix) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 3;
  rp.backoffBase = 1e-6;
  fs.setRetryPolicy(rp);
  auto f = openForBackground(fs);
  const ByteBuffer data = ramp(64);
  for (const pfs::OpKind kind : {pfs::OpKind::Write, pfs::OpKind::Read}) {
    pfs::FaultPlan plan;
    plan.shortCompletionAtOp(fs.opCount(), 24);
    pfs::OpRecorder rec;
    fs.setFaultHook([&](const pfs::OpContext& op) {
      rec.record(op);
      plan.apply(op);
    });
    pfs::BgIoStats stats;
    ByteBuffer back(64);
    if (kind == pfs::OpKind::Write) {
      f->writeAtBackground(0, 0, data, stats);
    } else {
      EXPECT_EQ(f->readAtBackground(0, 0, back, stats), 64u);
    }
    fs.setFaultHook(nullptr);

    const auto ops = rec.ops();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].offset, 0u);
    EXPECT_EQ(ops[0].bytes, 64u);
    EXPECT_EQ(ops[1].offset, 24u);
    EXPECT_EQ(ops[1].bytes, 40u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.giveUps, 0u);
    if (kind == pfs::OpKind::Read) {
      EXPECT_EQ(back, data);
    }
  }
}

TEST(RetryPolicy, BackgroundGiveUpRethrowsTheOriginalErrorAndCountsIt) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 3;
  rp.backoffBase = 1e-6;
  fs.setRetryPolicy(rp);
  auto f = openForBackground(fs);
  for (const pfs::OpKind kind : {pfs::OpKind::Write, pfs::OpKind::Read}) {
    std::atomic<int> fires{0};
    fs.setFaultHook([&](const pfs::OpContext& op) {
      if (op.kind == kind) {
        fires.fetch_add(1);
        throw IoError("device on fire");
      }
    });
    pfs::BgIoStats stats;
    ByteBuffer buf(8, Byte{1});
    try {
      if (kind == pfs::OpKind::Write) {
        f->writeAtBackground(0, 0, buf, stats);
      } else {
        f->readAtBackground(0, 0, buf, stats);
      }
      ADD_FAILURE() << "the op did not give up";
    } catch (const IoError& e) {
      EXPECT_STREQ(e.what(), "io error: device on fire");
    }
    fs.setFaultHook(nullptr);
    EXPECT_EQ(fires.load(), 3);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.giveUps, 1u);
  }
}

TEST(RetryPolicy, BackgroundDeadlineCountsOnlyTheOpsOwnBackoff) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 100;
  rp.backoffBase = 1.0;
  rp.backoffFactor = 1.0;
  rp.backoffMax = 1.0;
  rp.jitter = 0.0;
  rp.opDeadlineSeconds = 1.5;  // room for two 1 s backoffs, not three
  fs.setRetryPolicy(rp);
  auto f = openForBackground(fs);
  std::atomic<int> fires{0};
  fs.setFaultHook([&](const pfs::OpContext&) {
    fires.fetch_add(1);
    throw IoError("still broken");
  });
  pfs::BgIoStats stats;
  stats.backoffSeconds = 1000.0;  // earlier ops' backoff is not this op's
  EXPECT_THROW(f->writeAtBackground(0, 0, ByteBuffer(8, Byte{1}), stats),
               IoError);
  fs.setFaultHook(nullptr);
  EXPECT_EQ(fires.load(), 3);
  EXPECT_DOUBLE_EQ(stats.backoffSeconds, 1002.0);
  EXPECT_EQ(stats.giveUps, 1u);
}

TEST(RetryPolicy, BackgroundCrashLeavesExactlyTheDurablePrefix) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 50;
  fs.setRetryPolicy(rp);
  auto f = openForBackground(fs);
  pfs::BgIoStats stats;
  f->writeAtBackground(0, 0, ByteBuffer(64, Byte{0xEE}), stats);

  pfs::FaultPlan plan;
  plan.crashAtOp(fs.opCount(), 16);
  fs.setFaultHook(plan.hook());
  EXPECT_THROW(f->writeAtBackground(0, 0, ByteBuffer(64, Byte{0x11}), stats),
               pfs::CrashInjected);
  fs.setFaultHook(nullptr);
  EXPECT_EQ(plan.firedCount(), 1u);  // one attempt, despite maxAttempts=50
  EXPECT_EQ(stats.retries, 0u);

  ByteBuffer back(64);
  EXPECT_EQ(f->readAtBackground(0, 0, back, stats), 64u);
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i], i < 16 ? Byte{0x11} : Byte{0xEE}) << i;
  }
}

TEST(RetryPolicy, BackgroundEndOfFileShortReadIsNotAFault) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 5;
  fs.setRetryPolicy(rp);
  auto f = openForBackground(fs);
  pfs::BgIoStats stats;
  f->writeAtBackground(0, 0, ByteBuffer(10, Byte{7}), stats);
  const std::uint64_t opsBefore = fs.opCount();
  ByteBuffer out(64);
  EXPECT_EQ(f->readAtBackground(0, 0, out, stats), 10u);  // EOF, not an error
  EXPECT_EQ(fs.opCount() - opsBefore, 1u);                 // and not retried
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_DOUBLE_EQ(stats.backoffSeconds, 0.0);
  EXPECT_EQ(stats.readOps, 1u);
  EXPECT_EQ(stats.bytesRead, 10u);
}

TEST(RetryPolicy, BackgroundRetriesLeaveEveryNodeClockUnchanged) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 5;
  rp.backoffBase = 0.25;
  rp.jitter = 0.0;
  fs.setRetryPolicy(rp);
  std::atomic<int> writeFailures{2};
  std::atomic<int> readFailures{2};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    auto& left = op.kind == pfs::OpKind::Write ? writeFailures : readFailures;
    if (left.fetch_sub(1) > 0) throw IoError("injected transient");
  });
  pfs::BgIoStats stats;
  test::runSpmd(2, [&](rt::Node& node) {
    auto f = fs.open(node, "bg.bin", pfs::OpenMode::Create);
    const double before = node.clock().now();
    if (node.id() == 0) {
      std::thread helper([&] {
        try {
          const ByteBuffer data = ramp(32);
          f->writeAtBackground(0, 0, data, stats);  // two failures
          ByteBuffer back(32);
          EXPECT_EQ(f->readAtBackground(0, 0, back, stats), 32u);  // two more
          EXPECT_EQ(back, data);
        } catch (const std::exception& e) {
          ADD_FAILURE() << e.what();
        }
      });
      helper.join();
    }
    node.barrier();
    EXPECT_DOUBLE_EQ(node.clock().now(), before) << "node " << node.id();
  });
  fs.setFaultHook(nullptr);
  EXPECT_EQ(stats.retries, 4u);
  EXPECT_DOUBLE_EQ(stats.backoffSeconds, 2 * (0.25 + 0.5));
}

TEST(RetryPolicy, RejectsZeroAttempts) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 0;
  EXPECT_THROW(fs.setRetryPolicy(rp), UsageError);
}

}  // namespace
