// Unit tests for the SPMD machine: node identity, p2p messaging, abort
// propagation, and reuse across runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>

#include "src/runtime/machine.h"
#include "src/util/error.h"

namespace {

using namespace pcxx;
using namespace pcxx::rt;

TEST(Machine, RunsEveryNodeExactlyOnce) {
  Machine m(6);
  std::atomic<int> count{0};
  std::atomic<int> idSum{0};
  m.run([&](Node& node) {
    count.fetch_add(1);
    idSum.fetch_add(node.id());
    EXPECT_EQ(node.nprocs(), 6);
  });
  EXPECT_EQ(count.load(), 6);
  EXPECT_EQ(idSum.load(), 0 + 1 + 2 + 3 + 4 + 5);
}

TEST(Machine, RequiresPositiveNodeCount) {
  EXPECT_THROW(Machine(0), UsageError);
  EXPECT_THROW(Machine(-3), UsageError);
}

TEST(Machine, ThisNodeBindsPerThread) {
  Machine m(4);
  m.run([&](Node& node) {
    EXPECT_EQ(&thisNode(), &node);
    EXPECT_TRUE(inNodeContext());
  });
  EXPECT_FALSE(inNodeContext());
  EXPECT_THROW(thisNode(), UsageError);
}

TEST(Machine, ReusableAcrossRuns) {
  Machine m(3);
  for (int iteration = 0; iteration < 5; ++iteration) {
    std::atomic<int> count{0};
    m.run([&](Node& node) {
      node.barrier();
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 3);
  }
}

TEST(Machine, SendRecvPointToPoint) {
  Machine m(2);
  m.run([](Node& node) {
    if (node.id() == 0) {
      const int v = 12345;
      node.sendValue(1, /*tag=*/7, v);
    } else {
      EXPECT_EQ(node.recvValue<int>(0, 7), 12345);
    }
  });
}

TEST(Machine, RecvMatchesByTag) {
  Machine m(2);
  m.run([](Node& node) {
    if (node.id() == 0) {
      node.sendValue(1, /*tag=*/1, 111);
      node.sendValue(1, /*tag=*/2, 222);
    } else {
      // Receive out of send order, selected by tag.
      EXPECT_EQ(node.recvValue<int>(0, 2), 222);
      EXPECT_EQ(node.recvValue<int>(0, 1), 111);
    }
  });
}

TEST(Machine, RecvAnySourceAnyTag) {
  Machine m(4);
  m.run([](Node& node) {
    if (node.id() != 0) {
      node.sendValue(0, node.id(), node.id() * 10);
    } else {
      int sum = 0;
      for (int i = 1; i < 4; ++i) {
        Message msg = node.recv(kAnySource, kAnyTag);
        int v = 0;
        std::memcpy(&v, msg.payload.data(), sizeof(int));
        EXPECT_EQ(v, msg.src * 10);
        EXPECT_EQ(msg.tag, msg.src);
        sum += v;
      }
      EXPECT_EQ(sum, 60);
    }
  });
}

TEST(Machine, FifoPerSourceAndTag) {
  Machine m(2);
  m.run([](Node& node) {
    if (node.id() == 0) {
      for (int i = 0; i < 50; ++i) node.sendValue(1, 0, i);
    } else {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(node.recvValue<int>(0, 0), i);
      }
    }
  });
}

TEST(Machine, ProbeSeesQueuedMessages) {
  Machine m(2);
  m.run([](Node& node) {
    if (node.id() == 0) {
      node.sendValue(1, 9, 1);
      node.barrier();
    } else {
      node.barrier();  // message definitely sent by now
      EXPECT_TRUE(node.probe(0, 9));
      EXPECT_FALSE(node.probe(0, 8));
      node.recvValue<int>(0, 9);
      EXPECT_FALSE(node.probe(0, 9));
    }
  });
}

TEST(Machine, SendToBadNodeThrows) {
  Machine m(2);
  EXPECT_THROW(m.run([](Node& node) {
    if (node.id() == 0) node.sendValue(5, 0, 1);
    node.barrier();
  }),
               UsageError);
}

TEST(Machine, NodeExceptionPropagatesAndUnblocksPeers) {
  Machine m(4);
  EXPECT_THROW(m.run([](Node& node) {
    if (node.id() == 2) {
      throw IoError("injected failure");
    }
    // Peers block; the abort must wake them instead of deadlocking.
    node.barrier();
  }),
               IoError);
  EXPECT_TRUE(m.aborted());
}

// A peer that throws while the others wait inside a value collective
// unwinds every waiter with PeerAbortError naming the origin: whether the
// throw comes first, while the waiters spin, or after they have parked.
TEST(Machine, ThrowDuringValueCollectiveUnwindsSpinningAndParkedPeers) {
  using std::chrono::microseconds;
  for (const microseconds delay :
       {microseconds(0), microseconds(30), microseconds(5000)}) {
    Machine m(4);
    std::atomic<int> typed{0};
    EXPECT_THROW(m.run([&](Node& node) {
      if (node.id() == 1) {
        // Busy-wait the short delay: a sleep would overshoot the spin.
        const auto until = std::chrono::steady_clock::now() + delay;
        while (std::chrono::steady_clock::now() < until) {
        }
        throw IoError("injected failure");
      }
      try {
        node.allreduceSum(1.0);
      } catch (const PeerAbortError& e) {
        EXPECT_EQ(e.originNode, 1);
        typed.fetch_add(1);
        throw;
      }
    }),
                 IoError)
        << "delay " << delay.count() << " us";
    EXPECT_EQ(typed.load(), 3) << "delay " << delay.count() << " us";
  }
}

TEST(Machine, ExceptionWhileBlockedInRecvUnblocks) {
  Machine m(2);
  EXPECT_THROW(m.run([](Node& node) {
    if (node.id() == 0) {
      throw UsageError("boom");
    }
    node.recv(0, 0);  // never satisfied; must be aborted
  }),
               UsageError);
}

TEST(Machine, RunAfterAbortRecovers) {
  Machine m(3);
  EXPECT_THROW(m.run([](Node&) { throw IoError("x"); }), IoError);
  std::atomic<int> ran{0};
  m.run([&](Node& node) {
    node.barrier();
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_FALSE(m.aborted());
}

TEST(Machine, SingleNodeMachineWorks) {
  Machine m(1);
  m.run([](Node& node) {
    node.barrier();
    EXPECT_EQ(node.allreduceSum(5.0), 5.0);
    EXPECT_EQ(node.exclusiveScanU64(9), 0u);
    auto v = node.allgatherU64(3);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 3u);
  });
}

TEST(VirtualClock, TracksCumulativeSyncWait) {
  VirtualClock c;
  EXPECT_DOUBLE_EQ(c.waitedSeconds(), 0.0);
  c.advance(1.0);
  c.syncTo(0.5);  // earlier than now: no wait, no jump
  EXPECT_DOUBLE_EQ(c.now(), 1.0);
  EXPECT_DOUBLE_EQ(c.waitedSeconds(), 0.0);
  c.syncTo(3.0);  // absorbs 2.0s of skew
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
  EXPECT_DOUBLE_EQ(c.waitedSeconds(), 2.0);
  c.advance(1.0);
  c.syncTo(4.5);  // another 0.5s
  EXPECT_DOUBLE_EQ(c.waitedSeconds(), 2.5);
  c.reset();
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  EXPECT_DOUBLE_EQ(c.waitedSeconds(), 0.0);
}

TEST(VirtualClock, BarrierSkewShowsUpAsWaitedSeconds) {
  Machine m(2);
  m.run([](Node& node) {
    // Node 1 is "slower": the barrier drags node 0 forward to node 1's
    // time, and the absorbed skew is visible on node 0's clock.
    node.clock().advance(node.id() == 1 ? 2.0 : 0.0);
    const double waitedBefore = node.clock().waitedSeconds();
    node.barrier();
    const double waited = node.clock().waitedSeconds() - waitedBefore;
    if (node.id() == 0) {
      EXPECT_GE(waited, 2.0);
    } else {
      EXPECT_DOUBLE_EQ(waited, 0.0);
    }
    EXPECT_GE(node.clock().now(), 2.0);
  });
}

}  // namespace
