// Collective/recv watchdog + coordinated-abort tests: a mismatched or
// skipped collective must never hang — every node observes a typed error
// naming the stalled op and the missing node(s), and run() rethrows it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "src/runtime/machine.h"
#include "src/runtime/rt_errors.h"

#if PCXX_OBS_ENABLED
#include "src/obs/obs.h"
#endif

namespace {

using namespace pcxx;
using namespace pcxx::rt;

MachineOptions withCollectiveDeadline(double seconds) {
  MachineOptions opts;
  opts.collectiveDeadlineSeconds = seconds;
  return opts;
}

// A node that never shows up at a collective (a barrier, or a value
// collective that completes in one rendezvous): every *arriving* node gets
// a CollectiveTimeoutError naming the op and the missing node, and run()
// rethrows it.
TEST(Watchdog, SkippedCollectiveTimesOutOnEveryNode) {
  for (const std::string op : {"barrier", "allreduceSum"}) {
    Machine m(3, CommModel{}, withCollectiveDeadline(0.3));
    std::atomic<int> typedCatches{0};
    try {
      m.run([&](Node& node) {
        if (node.id() == 2) return;  // never arrives
        try {
          if (op == "barrier") {
            node.barrier();
          } else {
            node.allreduceSum(1.0);
          }
        } catch (const CollectiveTimeoutError& e) {
          EXPECT_EQ(e.opName, op);
          EXPECT_EQ(e.missing, std::vector<int>{2});
          EXPECT_EQ(e.arrived.size(), 2u);
          EXPECT_TRUE(std::count(e.arrived.begin(), e.arrived.end(), 0));
          EXPECT_TRUE(std::count(e.arrived.begin(), e.arrived.end(), 1));
          typedCatches.fetch_add(1);
          throw;
        }
      });
      FAIL() << "expected CollectiveTimeoutError from run() in " << op;
    } catch (const CollectiveTimeoutError& e) {
      EXPECT_EQ(e.opName, op);
      EXPECT_EQ(e.missing, std::vector<int>{2});
    }
    EXPECT_EQ(typedCatches.load(), 2) << op;
  }
}

// A peer blocked in recv() (not at the collective) is also unwound when
// the watchdog fires: the abort wakes its mailbox wait and it rethrows
// the machine's recorded timeout, so no thread is left behind.
TEST(Watchdog, RecvBlockedPeerIsUnwoundByCollectiveTimeout) {
  Machine m(3, CommModel{}, withCollectiveDeadline(0.3));
  std::atomic<bool> recvUnwound{false};
  try {
    m.run([&](Node& node) {
      if (node.id() == 2) {
        try {
          node.recv(0, /*tag=*/9);  // nobody sends: blocks until the abort
        } catch (const CollectiveTimeoutError&) {
          recvUnwound = true;
          throw;
        }
        return;
      }
      node.barrier();  // stalls: node 2 never arrives
    });
    FAIL() << "expected CollectiveTimeoutError from run()";
  } catch (const CollectiveTimeoutError& e) {
    EXPECT_EQ(e.missing, std::vector<int>{2});
  }
  EXPECT_TRUE(recvUnwound.load());
}

TEST(Watchdog, RecvDeadlineTurnsMissingMessageIntoTypedError) {
  MachineOptions opts;
  opts.recvDeadlineSeconds = 0.2;
  Machine m(1, CommModel{}, opts);
  try {
    m.run([](Node& node) { node.recv(kAnySource, /*tag=*/5); });
    FAIL() << "expected RecvTimeoutError";
  } catch (const RecvTimeoutError& e) {
    EXPECT_EQ(e.node, 0);
    EXPECT_EQ(e.src, kAnySource);
    EXPECT_EQ(e.tag, 5);
  }
}

// Divergent collectives (one node in barrier, another in allgatherU64) are
// detected at arrival by op name — no deadline needed — and both ops are
// named in the error.
TEST(Watchdog, MismatchedCollectivesAreDetectedAtArrival) {
  Machine m(2, CommModel{}, withCollectiveDeadline(5.0));
  try {
    m.run([](Node& node) {
      if (node.id() == 0) {
        node.barrier();
      } else {
        node.allgatherU64(1);
      }
    });
    FAIL() << "expected CollectiveMismatchError";
  } catch (const CollectiveMismatchError& e) {
    // Arrival order decides which op counts as "expected", so compare as
    // a set.
    const std::set<std::string> ops{e.expectedOp, e.actualOp};
    EXPECT_EQ(ops, (std::set<std::string>{"barrier", "allgatherU64"}));
    EXPECT_TRUE(e.divergingNode == 0 || e.divergingNode == 1);
  }
}

// With the watchdog armed, a healthy region behaves exactly as before.
TEST(Watchdog, ArmedDeadlineDoesNotPerturbHealthyCollectives) {
  MachineOptions opts;
  opts.collectiveDeadlineSeconds = 5.0;
  opts.recvDeadlineSeconds = 5.0;
  Machine m(4, CommModel{}, opts);
  m.run([](Node& node) {
    node.barrier();
    const auto all = node.allgatherU64(static_cast<std::uint64_t>(node.id()));
    ASSERT_EQ(all.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(all[static_cast<size_t>(i)], static_cast<std::uint64_t>(i));
    }
    const int next = (node.id() + 1) % node.nprocs();
    const int prev = (node.id() + node.nprocs() - 1) % node.nprocs();
    node.sendValue(next, /*tag=*/1, node.id());
    EXPECT_EQ(node.recvValue<int>(prev, 1), prev);
    node.barrier();
  });
}

// After a watchdog abort the machine is reusable: the next run() starts
// from a clean slate and completes.
TEST(Watchdog, MachineIsReusableAfterTimeoutAbort) {
  Machine m(2, CommModel{}, withCollectiveDeadline(0.25));
  EXPECT_THROW(m.run([](Node& node) {
                 if (node.id() == 0) node.barrier();
               }),
               CollectiveTimeoutError);
  std::atomic<int> completed{0};
  m.run([&](Node& node) {
    node.barrier();
    completed.fetch_add(1 + node.id() * 0);
  });
  EXPECT_EQ(completed.load(), 2);
}

#if PCXX_OBS_ENABLED
TEST(Watchdog, TripIsCounted) {
  obs::MetricsRegistry registry(2);
  obs::Observer observer;
  observer.metrics = &registry;
  observer.timeMode = obs::Observer::TimeMode::Wall;
  Machine m(2, CommModel{}, withCollectiveDeadline(0.25));
  m.attachObserver(observer);
  EXPECT_THROW(m.run([](Node& node) {
                 if (node.id() == 0) node.barrier();
               }),
               CollectiveTimeoutError);
  std::uint64_t trips = 0;
  for (int i = 0; i < 2; ++i) {
    trips += registry.node(i).counter(obs::Counter::RtWatchdogTrips);
  }
  EXPECT_GE(trips, 1u);
}
#endif

}  // namespace
