// Tests for the parallel file system: node-order collective I/O, shared
// cursor, namespace semantics, and cross-machine persistence.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>

#include "src/pfs/fault_plan.h"
#include "src/pfs/parallel_file.h"
#include "src/runtime/machine.h"
#include "src/util/error.h"

namespace {

using namespace pcxx;
using namespace pcxx::pfs;

class ParallelFileTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFileTest, WriteOrderedLandsInNodeOrder) {
  const int p = GetParam();
  Pfs fs{PfsConfig{}};
  rt::Machine m(p);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "ordered", OpenMode::Create);
    // Node i writes i+1 bytes of value i.
    ByteBuffer mine(static_cast<size_t>(node.id() + 1),
                    static_cast<Byte>(node.id()));
    const auto myOffset = f->writeOrdered(node, mine);
    // Offset equals the sum of lower-node block sizes.
    std::uint64_t expected = 0;
    for (int i = 0; i < node.id(); ++i) {
      expected += static_cast<std::uint64_t>(i + 1);
    }
    EXPECT_EQ(myOffset, expected);
    node.barrier();
    // The whole file is the node blocks concatenated in node order.
    const std::uint64_t total =
        static_cast<std::uint64_t>(p) * (p + 1) / 2;
    EXPECT_EQ(f->size(), total);
    if (node.id() == 0) {
      ByteBuffer all(static_cast<size_t>(total));
      EXPECT_EQ(f->readAt(node, 0, all), total);
      size_t pos = 0;
      for (int i = 0; i < p; ++i) {
        for (int k = 0; k <= i; ++k) {
          EXPECT_EQ(all[pos++], static_cast<Byte>(i));
        }
      }
    }
  });
}

TEST_P(ParallelFileTest, ReadOrderedRoundTrip) {
  const int p = GetParam();
  Pfs fs{PfsConfig{}};
  rt::Machine m(p);
  m.run([&](rt::Node& node) {
    {
      auto f = fs.open(node, "rt", OpenMode::Create);
      ByteBuffer mine(static_cast<size_t>(3 * (node.id() + 1)),
                      static_cast<Byte>(node.id() + 100));
      f->writeOrdered(node, mine);
    }
    {
      auto f = fs.open(node, "rt", OpenMode::Read);
      const ByteBuffer mine = f->readOrdered(
          node, static_cast<std::uint64_t>(3 * (node.id() + 1)),
          static_cast<std::uint64_t>(3 * p * (p + 1) / 2));
      for (Byte b : mine) {
        EXPECT_EQ(b, static_cast<Byte>(node.id() + 100));
      }
    }
  });
}

TEST_P(ParallelFileTest, SharedCursorAdvancesAcrossRecords) {
  const int p = GetParam();
  Pfs fs{PfsConfig{}};
  rt::Machine m(p);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "cursor", OpenMode::Create);
    EXPECT_EQ(f->sharedOffset(), 0u);
    ByteBuffer block(4, 1);
    f->writeOrdered(node, block);
    EXPECT_EQ(f->sharedOffset(), static_cast<std::uint64_t>(4 * p));
    f->writeOrdered(node, block);
    EXPECT_EQ(f->sharedOffset(), static_cast<std::uint64_t>(8 * p));
    f->seekShared(node, 4);
    EXPECT_EQ(f->sharedOffset(), 4u);
  });
}

TEST_P(ParallelFileTest, ZeroLengthBlocksAllowed) {
  const int p = GetParam();
  Pfs fs{PfsConfig{}};
  rt::Machine m(p);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "zeros", OpenMode::Create);
    // Only the last node contributes data.
    ByteBuffer mine;
    if (node.id() == node.nprocs() - 1) mine = {7, 7};
    f->writeOrdered(node, mine);
    EXPECT_EQ(f->size(), 2u);

    f->seekShared(node, 0);
    const ByteBuffer back =
        f->readOrdered(node, node.id() == node.nprocs() - 1 ? 2 : 0, 2);
    if (!back.empty()) {
      EXPECT_EQ(back[0], 7);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ParallelFileTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelFile, ReadOrderedPastEofThrowsEverywhere) {
  Pfs fs{PfsConfig{}};
  rt::Machine m(3);
  EXPECT_THROW(m.run([&](rt::Node& node) {
    auto f = fs.open(node, "short", OpenMode::Create);
    ByteBuffer block(2, 1);
    f->writeOrdered(node, block);
    f->seekShared(node, 0);
    f->readOrdered(node, 100, 300);  // more than the file holds
  }),
               IoError);
}

// The block sizes are voted against the caller's expected total before any
// node allocates or reads: a mismatch, or sizes whose sum wraps to the
// expected total, throws the same FormatError everywhere and touches no
// storage.
TEST(ParallelFile, ReadOrderedRejectsABadTotalOnAllNodes) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  for (const bool wraps : {false, true}) {
    Pfs fs{PfsConfig{}};
    rt::Machine m(3);
    m.run([&](rt::Node& node) {
      auto f = fs.open(node, "voted", OpenMode::Create);
      f->writeOrdered(node, ByteBuffer(4, 1));
    });
    std::atomic<int> reads{0};
    fs.setFaultHook([&](const OpContext& op) {
      if (op.kind == OpKind::Read) reads.fetch_add(1);
    });
    std::atomic<int> throwers{0};
    EXPECT_THROW(m.run([&](rt::Node& node) {
      auto f = fs.open(node, "voted", OpenMode::Read);
      try {
        if (wraps) {
          f->readOrdered(node, node.id() < 2 ? kHalf : 0, 0);
        } else {
          f->readOrdered(node, 4, 8);
        }
      } catch (const FormatError&) {
        throwers.fetch_add(1);
        EXPECT_EQ(f->sharedOffset(), 0u);
        throw;
      }
    }),
                 FormatError);
    EXPECT_EQ(throwers.load(), 3) << (wraps ? "wrapping sum" : "wrong sum");
    EXPECT_EQ(reads.load(), 0);
  }
}

TEST(ParallelFile, OpenMissingFileThrowsOnAllNodes) {
  Pfs fs{PfsConfig{}};
  rt::Machine m(4);
  std::atomic<int> throwers{0};
  EXPECT_THROW(m.run([&](rt::Node& node) {
    try {
      fs.open(node, "missing", OpenMode::Read);
    } catch (const IoError&) {
      throwers.fetch_add(1);
      throw;
    }
  }),
               IoError);
  EXPECT_EQ(throwers.load(), 4);
}

TEST(ParallelFile, CreateTruncatesExisting) {
  Pfs fs{PfsConfig{}};
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    {
      auto f = fs.open(node, "trunc", OpenMode::Create);
      ByteBuffer data(50, 1);
      f->writeOrdered(node, data);
    }
    {
      auto f = fs.open(node, "trunc", OpenMode::Create);
      EXPECT_EQ(f->size(), 0u);
    }
  });
}

TEST(ParallelFile, FilePersistsAcrossMachines) {
  // A checkpoint written by one machine must be readable by another with a
  // different node count — the memory backend keeps the namespace.
  Pfs fs{PfsConfig{}};
  {
    rt::Machine writer(4);
    writer.run([&](rt::Node& node) {
      auto f = fs.open(node, "xmachine", OpenMode::Create);
      ByteBuffer mine(10, static_cast<Byte>(node.id()));
      f->writeOrdered(node, mine);
    });
  }
  {
    rt::Machine reader(2);
    reader.run([&](rt::Node& node) {
      auto f = fs.open(node, "xmachine", OpenMode::Read);
      EXPECT_EQ(f->size(), 40u);
      const ByteBuffer mine = f->readOrdered(node, 20, 40);
      // Node 0 sees writer-node-0 then writer-node-1 blocks, etc.
      EXPECT_EQ(mine[0], static_cast<Byte>(2 * node.id()));
      EXPECT_EQ(mine[19], static_cast<Byte>(2 * node.id() + 1));
    });
  }
}

TEST(ParallelFile, RemoveAndExists) {
  Pfs fs{PfsConfig{}};
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    fs.open(node, "gone", OpenMode::Create);
    node.barrier();
    EXPECT_TRUE(fs.exists("gone"));
    fs.remove(node, "gone");
    EXPECT_FALSE(fs.exists("gone"));
  });
}

TEST(ParallelFile, PosixBackendWritesRealFiles) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pcxx_pfsposix_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  PfsConfig cfg;
  cfg.backend = PfsConfig::Backend::Posix;
  cfg.dir = dir.string();
  Pfs fs(cfg);
  rt::Machine m(3);
  m.run([&](rt::Node& node) {
    // Explicitly unframed: the assertion below pins the on-disk byte count,
    // which a PCXX_CODEC-enabled environment would otherwise change.
    auto f = fs.open(node, "real.bin", OpenMode::Create, CodecSpec{});
    ByteBuffer mine(4, static_cast<Byte>(node.id()));
    f->writeOrdered(node, mine);
    f->sync(node);
  });
  EXPECT_EQ(std::filesystem::file_size(dir / "real.bin"), 12u);
  std::filesystem::remove_all(dir);
}

// A 4-node writeOrdered in which node 2 meets the FaultPlan `spec` under
// `maxAttempts` tries per op while its peers complete. The plan sees each
// op renumbered to node id + 4 x the node's attempt, so "fail@2;short@6:16"
// fails node 2's first try and cuts its second short. The file first held
// other bytes and was truncated, so the memory it kept is stale: node 2's
// block must read back its first `applied` bytes and zeros after them, and
// size() is node 3's end.
enum class Node2 { Completes, GivesUp, Crashes };

void collectiveWithNode2Plan(const std::string& spec, int maxAttempts,
                             std::uint64_t applied, Node2 outcome) {
  constexpr std::uint64_t kBlock = 4096;
  Pfs fs{PfsConfig{}};
  rt::Machine m(4);
  m.run([&](rt::Node& node) {
    // Unframed under any PCXX_CODEC: the holes are the memory store's.
    auto f = fs.open(node, "holes", OpenMode::Create, CodecSpec{});
    f->writeOrdered(node, ByteBuffer(kBlock, 0xAA));
    node.barrier();
    if (node.id() == 0) fs.truncateFile("holes", 0);
    f->seekShared(node, 0);
  });
  RetryPolicy rp;
  rp.maxAttempts = maxAttempts;
  fs.setRetryPolicy(rp);
  FaultPlan plan = FaultPlan::parse(spec);
  std::array<std::atomic<std::uint64_t>, 4> attempts{};
  fs.setFaultHook([&plan, &attempts](const OpContext& op) {
    OpContext byNode = op;
    byNode.opIndex = static_cast<std::uint64_t>(op.nodeId) +
                     4 * attempts[static_cast<size_t>(op.nodeId)]++;
    plan.apply(byNode);
  });
  const auto faulted = [&] {
    m.run([&](rt::Node& node) {
      auto f = fs.open(node, "holes", OpenMode::Read);
      f->writeOrdered(node,
                      ByteBuffer(kBlock, static_cast<Byte>(node.id() + 1)));
    });
  };
  switch (outcome) {
    case Node2::Completes:
      EXPECT_NO_THROW(faulted());
      break;
    case Node2::GivesUp:
      EXPECT_THROW(faulted(), IoError);
      break;
    case Node2::Crashes:
      EXPECT_THROW(faulted(), CrashInjected);
      break;
  }
  fs.setFaultHook(nullptr);
  EXPECT_EQ(plan.firedCount(), plan.clauseCount());

  EXPECT_EQ(fs.storedFileSize("holes"), 4 * kBlock);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "holes", OpenMode::Read);
    if (node.id() != 0) return;
    EXPECT_EQ(f->size(), 4 * kBlock);
    ByteBuffer all(4 * kBlock);
    EXPECT_EQ(f->readAt(node, 0, all), 4 * kBlock);
    std::uint64_t wrong = 0;
    for (std::uint64_t i = 0; i < all.size(); ++i) {
      const std::uint64_t owner = i / kBlock;
      Byte want = static_cast<Byte>(owner + 1);
      if (owner == 2 && i % kBlock >= applied) want = 0;
      wrong += all[i] != want;
    }
    EXPECT_EQ(wrong, 0u) << spec;
  });
}

// Node 2 applies only its first 100 bytes and then gives up or crashes.
void collectiveWithNode2Faulted(const std::string& shape, bool expectCrash) {
  collectiveWithNode2Plan(shape + "@2:100", 1, 100,
                          expectCrash ? Node2::Crashes : Node2::GivesUp);
}

TEST(ParallelFile, GivenUpBlockReadsAsZerosBelowAPeersBytes) {
  collectiveWithNode2Faulted("short", /*expectCrash=*/false);
  // A retried block completes over the stale memory and reads back exact.
  collectiveWithNode2Plan("fail@2", 3, 4096, Node2::Completes);
  // Progress on a retry, then a give-up: zeros from the bytes it applied.
  collectiveWithNode2Plan("fail@2;short@6:100;fail@10", 3, 100,
                          Node2::GivesUp);
}

TEST(ParallelFile, CrashedBlockReadsAsZerosBelowAPeersBytes) {
  collectiveWithNode2Faulted("crash", /*expectCrash=*/true);
}

TEST(ParallelFile, OpCountTracksStorageAccesses) {
  Pfs fs{PfsConfig{}};
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "ops", OpenMode::Create);
    if (node.id() == 0) {
      f->writeAt(node, 0, ByteBuffer{1});
    }
    node.barrier();
  });
  EXPECT_EQ(fs.opCount(), 1u);
}

}  // namespace
