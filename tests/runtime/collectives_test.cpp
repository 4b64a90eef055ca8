// Unit and property tests for the runtime collectives, across node counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "src/runtime/machine.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using namespace pcxx;
using namespace pcxx::rt;

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, AllgatherU64) {
  Machine m(GetParam());
  m.run([](Node& node) {
    const auto all = node.allgatherU64(static_cast<std::uint64_t>(
        node.id() * node.id() + 1));
    ASSERT_EQ(static_cast<int>(all.size()), node.nprocs());
    for (int i = 0; i < node.nprocs(); ++i) {
      EXPECT_EQ(all[static_cast<size_t>(i)],
                static_cast<std::uint64_t>(i * i + 1));
    }
  });
}

TEST_P(CollectivesTest, AllgatherBytesVariableSizes) {
  Machine m(GetParam());
  m.run([](Node& node) {
    // Node i contributes i+1 bytes of value i.
    ByteBuffer mine(static_cast<size_t>(node.id() + 1),
                    static_cast<Byte>(node.id()));
    const auto all = node.allgatherBytes(mine);
    ASSERT_EQ(static_cast<int>(all.size()), node.nprocs());
    for (int i = 0; i < node.nprocs(); ++i) {
      EXPECT_EQ(all[static_cast<size_t>(i)].size(),
                static_cast<size_t>(i + 1));
      for (Byte b : all[static_cast<size_t>(i)]) {
        EXPECT_EQ(b, static_cast<Byte>(i));
      }
    }
  });
}

TEST_P(CollectivesTest, GatherBytesOnlyRootReceives) {
  Machine m(GetParam());
  const int root = GetParam() - 1;
  m.run([root](Node& node) {
    ByteBuffer mine{static_cast<Byte>(node.id() + 1)};
    const auto all = node.gatherBytes(root, mine);
    if (node.id() == root) {
      ASSERT_EQ(static_cast<int>(all.size()), node.nprocs());
      for (int i = 0; i < node.nprocs(); ++i) {
        ASSERT_EQ(all[static_cast<size_t>(i)].size(), 1u);
        EXPECT_EQ(all[static_cast<size_t>(i)][0], static_cast<Byte>(i + 1));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectivesTest, BroadcastReplacesNonRootData) {
  Machine m(GetParam());
  m.run([](Node& node) {
    ByteBuffer data;
    if (node.id() == 0) {
      data = {10, 20, 30};
    } else {
      data = {static_cast<Byte>(node.id())};  // overwritten
    }
    node.broadcastBytes(0, data);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[2], 30);
  });
}

TEST_P(CollectivesTest, AlltoallvRoutesEveryPair) {
  Machine m(GetParam());
  m.run([](Node& node) {
    const int p = node.nprocs();
    // Node s sends to node d a buffer of (s*31 + d) repeated s+d+1 times.
    std::vector<ByteBuffer> send(static_cast<size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<size_t>(d)].assign(
          static_cast<size_t>(node.id() + d + 1),
          static_cast<Byte>(node.id() * 31 + d));
    }
    const auto recv = node.alltoallv(send);
    ASSERT_EQ(static_cast<int>(recv.size()), p);
    for (int s = 0; s < p; ++s) {
      const auto& buf = recv[static_cast<size_t>(s)];
      ASSERT_EQ(buf.size(), static_cast<size_t>(s + node.id() + 1));
      for (Byte b : buf) {
        EXPECT_EQ(b, static_cast<Byte>(s * 31 + node.id()));
      }
    }
  });
}

TEST_P(CollectivesTest, AlltoallvWithEmptyBuffers) {
  Machine m(GetParam());
  m.run([](Node& node) {
    // Only node 0 sends, and only to the last node.
    std::vector<ByteBuffer> send(static_cast<size_t>(node.nprocs()));
    if (node.id() == 0) {
      send[static_cast<size_t>(node.nprocs() - 1)] = {42};
    }
    const auto recv = node.alltoallv(send);
    for (int s = 0; s < node.nprocs(); ++s) {
      const bool expectData =
          node.id() == node.nprocs() - 1 && s == 0;
      EXPECT_EQ(recv[static_cast<size_t>(s)].size(), expectData ? 1u : 0u);
    }
  });
}

TEST_P(CollectivesTest, Reductions) {
  Machine m(GetParam());
  m.run([](Node& node) {
    const int p = node.nprocs();
    EXPECT_DOUBLE_EQ(node.allreduceMax(static_cast<double>(node.id())),
                     static_cast<double>(p - 1));
    EXPECT_DOUBLE_EQ(node.allreduceSum(1.5), 1.5 * p);
    EXPECT_EQ(node.allreduceSumU64(2), static_cast<std::uint64_t>(2 * p));
  });
}

TEST_P(CollectivesTest, ExclusiveScanIsPrefixSum) {
  Machine m(GetParam());
  m.run([](Node& node) {
    // Node i contributes i+1; prefix of node i is sum of 1..i.
    const auto prefix = node.exclusiveScanU64(
        static_cast<std::uint64_t>(node.id() + 1));
    std::uint64_t expected = 0;
    for (int i = 0; i < node.id(); ++i) {
      expected += static_cast<std::uint64_t>(i + 1);
    }
    EXPECT_EQ(prefix, expected);
  });
}

TEST_P(CollectivesTest, BackToBackCollectivesDoNotInterfere) {
  Machine m(GetParam());
  m.run([](Node& node) {
    for (int round = 0; round < 20; ++round) {
      const auto all = node.allgatherU64(
          static_cast<std::uint64_t>(node.id() + round));
      for (int i = 0; i < node.nprocs(); ++i) {
        EXPECT_EQ(all[static_cast<size_t>(i)],
                  static_cast<std::uint64_t>(i + round));
      }
      node.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(CollectivesClock, BarrierSynchronizesVirtualClocks) {
  Machine m(4);
  m.run([](Node& node) {
    node.clock().advance(static_cast<double>(node.id()));  // skew clocks
    node.barrier();
    EXPECT_DOUBLE_EQ(node.clock().now(), 3.0);  // max of all
  });
}

TEST(CollectivesClock, CommModelChargesLatency) {
  CommModel comm;
  comm.latency = 1e-3;
  comm.perByte = 0.0;
  Machine m(4, comm);
  m.run([](Node& node) {
    node.barrier();
    // ceil(log2(4)) = 2 hops at 1 ms.
    EXPECT_NEAR(node.clock().now(), 2e-3, 1e-12);
  });
}

TEST(CollectivesClock, CommModelChargesBytes) {
  CommModel comm;
  comm.latency = 0.0;
  comm.perByte = 1e-6;
  Machine m(2, comm);
  m.run([](Node& node) {
    ByteBuffer mine(1000, 0);
    node.allgatherBytes(mine);
    // 2000 bytes moved at 1 us/byte.
    EXPECT_NEAR(node.clock().now(), 2e-3, 1e-9);
  });
}

TEST(CollectivesClock, P2pArrivalTimeAdvancesReceiver) {
  CommModel comm;
  comm.latency = 1e-3;
  comm.perByte = 1e-6;
  Machine m(2, comm);
  m.run([](Node& node) {
    if (node.id() == 0) {
      ByteBuffer data(500, 0);
      node.send(1, 0, data);
      // Sender pays latency only.
      EXPECT_NEAR(node.clock().now(), 1e-3, 1e-12);
    } else {
      node.recv(0, 0);
      // Receiver syncs to arrival: latency + 500 bytes.
      EXPECT_NEAR(node.clock().now(), 1e-3 + 500e-6, 1e-12);
    }
  });
}

// A peer that arrives long after the waiters' spin budget: the waiters
// park on the condition variable and the late arrival wakes them with exact
// results. Wall time spent parked is not virtual sync wait, so
// waitedSeconds() does not move.
TEST(CollectivesPark, LatePeerWakesParkedWaitersWithExactResults) {
  for (const int nprocs : {2, 4}) {
    Machine m(nprocs);
    m.run([](Node& node) {
      const int p = node.nprocs();
      const auto arriveLate = [&node] {
        if (node.id() == node.nprocs() - 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      };
      const double waitedBefore = node.clock().waitedSeconds();
      arriveLate();
      const auto all =
          node.allgatherU64(static_cast<std::uint64_t>(node.id() + 1));
      ASSERT_EQ(static_cast<int>(all.size()), p);
      for (int i = 0; i < p; ++i) {
        EXPECT_EQ(all[static_cast<size_t>(i)], static_cast<std::uint64_t>(i + 1));
      }
      arriveLate();
      EXPECT_EQ(node.allreduceMax(static_cast<double>(node.id())),
                static_cast<double>(p - 1));
      arriveLate();
      EXPECT_EQ(node.allreduceSum(1.5), 1.5 * p);
      arriveLate();
      EXPECT_EQ(node.allreduceSumU64(2), static_cast<std::uint64_t>(2 * p));
      arriveLate();
      EXPECT_EQ(node.exclusiveScanU64(1), static_cast<std::uint64_t>(node.id()));
      arriveLate();
      ByteBuffer data;
      if (node.id() == 0) data = {7, 8, 9};
      node.broadcastBytes(0, data);
      EXPECT_EQ(data, (ByteBuffer{7, 8, 9}));
      arriveLate();
      node.barrier();
      EXPECT_EQ(node.clock().waitedSeconds(), waitedBefore);
    });
  }
}

// Node `node`'s operand of value collective number `call`: every node can
// recompute every peer's operand, and the values are small enough that
// double sums stay exact.
std::uint64_t stressOperand(std::uint64_t call, int node) {
  std::uint64_t state = call * 1000003u + static_cast<std::uint64_t>(node);
  return splitmix64(state) % 1000;
}

// Thousands of back-to-back value collectives with no barrier between
// them, while one seeded node per round lags after each call. A node that
// leaves a value collective first goes straight on to stage its next
// operand; that must never land in a slot a slower peer is still reading.
TEST(CollectivesStress, ValueCollectivesBackToBackWithALaggingNode) {
  constexpr int kRounds = 1000;
  constexpr int kCallsPerRound = 4;
  for (const int nprocs : {2, 3, 4, 7, 16}) {
    Machine m(nprocs);
    std::atomic<int> wrong{0};
    m.run([&wrong](Node& node) {
      const int p = node.nprocs();
      Rng rng(0x5EED00u + static_cast<std::uint64_t>(p));  // same on every node
      std::uint64_t call = 0;
      for (int round = 0; round < kRounds; ++round) {
        const int laggard = static_cast<int>(rng.uniformInt(0, p - 1));
        const bool sleeps = (rng.next() & 1u) != 0;
        for (int c = 0; c < kCallsPerRound; ++c, ++call) {
          const std::uint64_t mine = stressOperand(call, node.id());
          std::uint64_t sum = 0;
          std::uint64_t max = 0;
          std::uint64_t prefix = 0;
          for (int i = 0; i < p; ++i) {
            const std::uint64_t x = stressOperand(call, i);
            sum += x;
            max = std::max(max, x);
            if (i < node.id()) prefix += x;
          }
          bool ok = true;
          switch (rng.uniformInt(0, 4)) {
            case 0: {
              const auto all = node.allgatherU64(mine);
              for (int i = 0; i < p; ++i) {
                ok = ok && all[static_cast<size_t>(i)] == stressOperand(call, i);
              }
              break;
            }
            case 1:
              ok = node.allreduceMax(static_cast<double>(mine)) ==
                   static_cast<double>(max);
              break;
            case 2:
              ok = node.allreduceSum(static_cast<double>(mine)) ==
                   static_cast<double>(sum);
              break;
            case 3:
              ok = node.allreduceSumU64(mine) == sum;
              break;
            default:
              ok = node.exclusiveScanU64(mine) == prefix;
              break;
          }
          if (!ok) wrong.fetch_add(1);
          if (node.id() == laggard) {
            if (sleeps) {
              std::this_thread::sleep_for(std::chrono::microseconds(3));
            } else {
              std::this_thread::yield();
            }
          }
        }
      }
    });
    EXPECT_EQ(wrong.load(), 0) << "wrong results at nprocs=" << nprocs;
  }
}

}  // namespace
