// pcxx::redist plan builder: the counting-sort routing tables must agree
// with a brute-force simulation of the paper's §4.1 phase-2 exchange for
// every (writer layout, reader layout, machine size) combination — plans
// from all nodes, applied together, must reassemble every receiver's local
// element sequence byte-for-byte. Also covers the LRU plan cache and the
// cache-aware planFor() entry point.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <tuple>

#include "src/redist/redist.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

// Deterministic variable per-element payload; some elements are empty so
// the zero-size paths get exercised.
std::uint64_t sizeFor(std::int64_t g) {
  return static_cast<std::uint64_t>((g * 7 + 3) % 5);
}

ByteBuffer payloadFor(std::int64_t g) {
  ByteBuffer out(static_cast<size_t>(sizeFor(g)));
  for (size_t k = 0; k < out.size(); ++k) {
    out[k] = static_cast<Byte>((g * 31 + static_cast<std::int64_t>(k)) & 0xFF);
  }
  return out;
}

// File order: writer-proc-major, ascending global index within a node.
std::vector<std::int64_t> fileOrder(const coll::Layout& writer) {
  std::vector<std::int64_t> order;
  order.reserve(static_cast<size_t>(writer.size()));
  for (int w = 0; w < writer.nprocs(); ++w) {
    const auto locals = writer.localElements(w);
    order.insert(order.end(), locals.begin(), locals.end());
  }
  return order;
}

// Apply every node's plan in-process (no Machine): senders hand their
// groups over in group order, receivers place by recvSlot. This reproduces
// exactly what execute() does over the wire, minus the chunking, so any
// routing-table defect shows up as a byte mismatch.
void simulateExchange(const coll::Layout& writer, const coll::Layout& reader,
                      int nprocs) {
  const std::int64_t size = reader.size();
  const auto order = fileOrder(writer);
  ASSERT_EQ(static_cast<std::int64_t>(order.size()), size);

  std::vector<redist::PlanPtr> plans;
  for (int me = 0; me < nprocs; ++me) {
    plans.push_back(redist::buildPlan(writer, reader, nprocs, me));
  }

  // Chunk partition must follow the reader's local counts, in node order.
  std::int64_t at = 0;
  for (int me = 0; me < nprocs; ++me) {
    EXPECT_EQ(plans[static_cast<size_t>(me)]->chunkStart, at);
    EXPECT_EQ(plans[static_cast<size_t>(me)]->localCount,
              reader.localCount(me));
    EXPECT_EQ(plans[static_cast<size_t>(me)]->chunkCount,
              plans[static_cast<size_t>(me)]->localCount);
    at += plans[static_cast<size_t>(me)]->chunkCount;
  }
  EXPECT_EQ(at, size);

  // Sender/receiver group sizes must pair up.
  for (int s = 0; s < nprocs; ++s) {
    for (int r = 0; r < nprocs; ++r) {
      if (s == r) {
        EXPECT_EQ(plans[static_cast<size_t>(r)]->recvCountFrom(s), 0)
            << "self group must never be transmitted";
        continue;
      }
      EXPECT_EQ(plans[static_cast<size_t>(s)]->sendCountTo(r),
                plans[static_cast<size_t>(r)]->recvCountFrom(s))
          << "send " << s << " -> recv " << r;
    }
  }

  // Per-node phase-1 chunks (concatenated element payloads in file order).
  std::vector<std::vector<ByteBuffer>> chunkElems(
      static_cast<size_t>(nprocs));
  for (int me = 0; me < nprocs; ++me) {
    const auto& p = *plans[static_cast<size_t>(me)];
    for (std::int64_t k = 0; k < p.chunkCount; ++k) {
      chunkElems[static_cast<size_t>(me)].push_back(
          payloadFor(order[static_cast<size_t>(p.chunkStart + k)]));
    }
  }

  // Deliver: self groups locally, peer groups in group (= file) order.
  std::vector<std::vector<ByteBuffer>> placed(static_cast<size_t>(nprocs));
  for (int me = 0; me < nprocs; ++me) {
    placed[static_cast<size_t>(me)].resize(
        static_cast<size_t>(plans[static_cast<size_t>(me)]->localCount));
  }
  for (int s = 0; s < nprocs; ++s) {
    const auto& sp = *plans[static_cast<size_t>(s)];
    for (int r = 0; r < nprocs; ++r) {
      const auto& rp = *plans[static_cast<size_t>(r)];
      for (std::int64_t i = 0; i < sp.sendCountTo(r); ++i) {
        const std::int64_t k =
            sp.sendIdx[static_cast<size_t>(sp.sendStarts[static_cast<size_t>(r)] + i)];
        const ByteBuffer& payload =
            chunkElems[static_cast<size_t>(s)][static_cast<size_t>(k)];
        std::int64_t slot;
        if (r == s) {
          slot = sp.sendSlot[static_cast<size_t>(
              sp.sendStarts[static_cast<size_t>(r)] + i)];
        } else {
          slot = rp.recvSlot[static_cast<size_t>(
              rp.recvStarts[static_cast<size_t>(s)] + i)];
          // Sender and receiver tables must agree on the destination slot.
          EXPECT_EQ(slot, sp.sendSlot[static_cast<size_t>(
                              sp.sendStarts[static_cast<size_t>(r)] + i)]);
        }
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, static_cast<std::int64_t>(
                            placed[static_cast<size_t>(r)].size()));
        placed[static_cast<size_t>(r)][static_cast<size_t>(slot)] = payload;
      }
    }
  }

  // Every receiver must hold its local elements in ascending-global order.
  for (int r = 0; r < nprocs; ++r) {
    const auto myGlobals = reader.localElements(r);
    ASSERT_EQ(placed[static_cast<size_t>(r)].size(), myGlobals.size());
    for (size_t j = 0; j < myGlobals.size(); ++j) {
      EXPECT_EQ(placed[static_cast<size_t>(r)][j], payloadFor(myGlobals[j]))
          << "node " << r << " slot " << j << " (global " << myGlobals[j]
          << ")";
    }
  }
}

coll::Layout make(std::int64_t size, int nprocs, coll::DistKind kind,
                  std::int64_t bs = 1) {
  return coll::Layout(coll::Distribution(size, nprocs, kind, bs));
}

TEST(BuildPlan, BlockToCyclic) {
  simulateExchange(make(17, 3, coll::DistKind::Block),
                   make(17, 4, coll::DistKind::Cyclic), 4);
}

TEST(BuildPlan, CyclicToBlockFewerNodes) {
  simulateExchange(make(17, 5, coll::DistKind::Cyclic),
                   make(17, 2, coll::DistKind::Block), 2);
}

TEST(BuildPlan, BlockCyclicToBlockCyclic) {
  simulateExchange(make(23, 4, coll::DistKind::BlockCyclic, 2),
                   make(23, 4, coll::DistKind::BlockCyclic, 3), 4);
}

TEST(BuildPlan, EmptyChunkNodes) {
  // 3 elements over 5 reading nodes: nodes 3 and 4 have empty chunks AND
  // empty local sets; the plan must still be a consistent (empty) routing.
  simulateExchange(make(3, 2, coll::DistKind::Block),
                   make(3, 5, coll::DistKind::Block), 5);
}

TEST(BuildPlan, SingleElement) {
  simulateExchange(make(1, 3, coll::DistKind::Cyclic),
                   make(1, 2, coll::DistKind::Block), 2);
}

TEST(BuildPlan, NonClosedFormReader) {
  // Reader alignment is a strict subset of the template (stride 2 over a
  // larger distribution), forcing the planner's O(size) enumeration path.
  coll::Distribution d(26, 3, coll::DistKind::Block, 1);
  coll::Align a(12, 2, 1);
  simulateExchange(make(12, 4, coll::DistKind::Cyclic),
                   coll::Layout(d, a), 3);
}

TEST(BuildPlan, NonClosedFormWriter) {
  coll::Distribution d(30, 2, coll::DistKind::Cyclic, 1);
  coll::Align a(10, 3, 0);
  simulateExchange(coll::Layout(d, a), make(10, 4, coll::DistKind::Block), 4);
}

TEST(BuildPlan, SizeMismatchIsFormatError) {
  EXPECT_THROW(redist::buildPlan(make(10, 2, coll::DistKind::Block),
                                 make(12, 2, coll::DistKind::Block), 2, 0),
               FormatError);
}

TEST(BuildPlan, BadShapeIsUsageError) {
  const auto l = make(10, 2, coll::DistKind::Block);
  EXPECT_THROW(redist::buildPlan(l, l, 0, 0), UsageError);
  EXPECT_THROW(redist::buildPlan(l, l, 2, 2), UsageError);
}

TEST(PlanKey, DistinguishesAllComponents) {
  const auto a = make(10, 2, coll::DistKind::Block);
  const auto b = make(10, 2, coll::DistKind::Cyclic);
  const std::string base = redist::planKey(a, b, 2, 0);
  EXPECT_NE(base, redist::planKey(b, a, 2, 0));  // sides swapped
  EXPECT_NE(base, redist::planKey(a, b, 2, 1));  // different node
  EXPECT_NE(base, redist::planKey(a, b, 4, 0));  // different machine size
  EXPECT_EQ(base, redist::planKey(a, b, 2, 0));  // deterministic
}

TEST(PlanCache, LruEvictsOldest) {
  redist::PlanCache cache(2);
  const auto plan = redist::buildPlan(make(4, 2, coll::DistKind::Block),
                                      make(4, 2, coll::DistKind::Cyclic), 2, 0);
  cache.put("a", plan);
  cache.put("b", plan);
  cache.put("c", plan);  // evicts "a"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
}

TEST(PlanCache, GetRefreshesLruPosition) {
  redist::PlanCache cache(2);
  const auto plan = redist::buildPlan(make(4, 2, coll::DistKind::Block),
                                      make(4, 2, coll::DistKind::Cyclic), 2, 0);
  cache.put("a", plan);
  cache.put("b", plan);
  EXPECT_NE(cache.get("a"), nullptr);  // "b" is now least recently used
  cache.put("c", plan);                // evicts "b"
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
}

TEST(PlanCache, ZeroCapacityDisablesCaching) {
  redist::PlanCache cache(0);
  const auto plan = redist::buildPlan(make(4, 2, coll::DistKind::Block),
                                      make(4, 2, coll::DistKind::Cyclic), 2, 0);
  cache.put("a", plan);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get("a"), nullptr);
}

TEST(PlanCache, SetCapacityShrinks) {
  redist::PlanCache cache(8);
  const auto plan = redist::buildPlan(make(4, 2, coll::DistKind::Block),
                                      make(4, 2, coll::DistKind::Cyclic), 2, 0);
  cache.put("a", plan);
  cache.put("b", plan);
  cache.put("c", plan);
  cache.setCapacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.get("c"), nullptr);  // most recent survives
}

TEST(PlanFor, SharesPlansAcrossLookups) {
  test::runSpmd(3, [](rt::Node& node) {
    node.barrier();
    if (node.id() == 0) redist::PlanCache::instance().clear();
    node.barrier();
    const auto writer = make(19, 5, coll::DistKind::Cyclic);
    const auto reader = make(19, 3, coll::DistKind::Block);
    const auto first = redist::planFor(writer, reader, node);
    const auto second = redist::planFor(writer, reader, node);
    EXPECT_EQ(first.get(), second.get()) << "second lookup must be a hit";
    node.barrier();
    if (node.id() == 0) {
      // One entry per node (the key includes the node id).
      EXPECT_EQ(redist::PlanCache::instance().size(), 3u);
    }
    node.barrier();
  });
}

// Direct execute() exercise with a tiny chunk budget: many rounds, element
// payloads split across round boundaries, zero-size elements consumed at
// zero cost — then byte-compared against the brute-force expectation.
TEST(Execute, ChunkedRoundsReassembleLocalOrder) {
  const std::int64_t size = 29;
  for (const std::uint64_t chunkBytes : {std::uint64_t{0}, std::uint64_t{1},
                                         std::uint64_t{3},
                                         std::uint64_t{4096}}) {
    test::runSpmd(4, [&](rt::Node& node) {
      const auto writer = make(size, 3, coll::DistKind::Cyclic);
      const auto reader = make(size, 4, coll::DistKind::Block);
      const auto plan = redist::buildPlan(writer, reader, 4, node.id());
      const auto order = fileOrder(writer);

      ByteBuffer chunk;
      std::vector<std::uint64_t> chunkSizes;
      for (std::int64_t k = 0; k < plan->chunkCount; ++k) {
        const auto payload =
            payloadFor(order[static_cast<size_t>(plan->chunkStart + k)]);
        chunkSizes.push_back(payload.size());
        chunk.insert(chunk.end(), payload.begin(), payload.end());
      }

      ByteBuffer buffer;
      std::vector<std::uint64_t> offsets;
      std::vector<std::uint64_t> sizes;
      redist::ExchangeScratch scratch;
      redist::execute(node, *plan, chunk, chunkSizes, chunkBytes, buffer,
                      offsets, sizes, scratch);

      const auto myGlobals = reader.localElements(node.id());
      ASSERT_EQ(sizes.size(), myGlobals.size());
      for (size_t j = 0; j < myGlobals.size(); ++j) {
        const auto expect = payloadFor(myGlobals[j]);
        ASSERT_EQ(sizes[j], expect.size()) << "chunkBytes=" << chunkBytes;
        // memcmp must not see the null data() of an empty payload.
        EXPECT_TRUE(expect.empty() ||
                    std::memcmp(buffer.data() + offsets[j], expect.data(),
                                expect.size()) == 0)
            << "node " << node.id() << " slot " << j
            << " chunkBytes=" << chunkBytes;
      }
    });
  }
}

}  // namespace
