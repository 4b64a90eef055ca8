// Redistribution edge layouts through the full d/stream read path: empty
// chunks when P != Q, block <-> cyclic round trips, single-element records,
// the chunk-size sweep down to 1-byte exchange rounds, and plan
// reuse across records and reopen-under-a-different-node-count.
#include <gtest/gtest.h>

#include <atomic>

#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/redist/redist.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

struct VarElem {
  int n = 0;
  double* data = nullptr;
  ~VarElem() { delete[] data; }
  VarElem() = default;
  VarElem(const VarElem&) = delete;
  VarElem& operator=(const VarElem&) = delete;
};

declareStreamInserter(VarElem& e) {
  s << e.n;
  s << pcxx::ds::array(e.data, e.n);
}
declareStreamExtractor(VarElem& e) {
  s >> e.n;
  s >> pcxx::ds::array(e.data, e.n);
}

int sizeFor(std::int64_t g) { return static_cast<int>(1 + (g * 5) % 9); }

void fillElem(VarElem& e, std::int64_t g) {
  e.n = sizeFor(g);
  delete[] e.data;
  e.data = new double[static_cast<size_t>(e.n)];
  for (int k = 0; k < e.n; ++k) {
    e.data[k] = static_cast<double>(g * 1000 + k);
  }
}

std::int64_t checkElem(const VarElem& e, std::int64_t g) {
  if (e.n != sizeFor(g)) return 1;
  std::int64_t bad = 0;
  for (int k = 0; k < e.n; ++k) {
    if (e.data[k] != static_cast<double>(g * 1000 + k)) ++bad;
  }
  return bad;
}

void writeFile(pfs::Pfs& fs, int nprocs, coll::DistKind kind,
               std::int64_t elements, const char* name, int records = 1) {
  rt::Machine m(nprocs);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(elements, &P, kind, 3);
    coll::Collection<VarElem> out(&d);
    out.forEachLocal([](VarElem& e, std::int64_t g) { fillElem(e, g); });
    ds::OStream s(fs, &d, name);
    for (int r = 0; r < records; ++r) {
      s << out;
      s.write();
    }
  });
}

std::int64_t readAndVerify(pfs::Pfs& fs, int nprocs, coll::DistKind kind,
                           std::int64_t elements, const char* name,
                           ds::StreamOptions opts = {}, int records = 1) {
  std::atomic<std::int64_t> bad{0};
  rt::Machine m(nprocs);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(elements, &P, kind, 3);
    coll::Collection<VarElem> in(&d);
    ds::IStream s(fs, &d, name, opts);
    for (int r = 0; r < records; ++r) {
      s.read();
      s >> in;
      in.forEachLocal(
          [&](VarElem& e, std::int64_t g) { bad.fetch_add(checkElem(e, g)); });
    }
  });
  return bad.load();
}

TEST(RedistEdge, EmptyChunkNodesWideningRead) {
  // 3 elements read on 5 nodes: nodes 3 and 4 own nothing and read empty
  // phase-1 chunks, but still participate in every exchange round.
  pfs::Pfs fs = test::memFs();
  writeFile(fs, 2, coll::DistKind::Block, 3, "wide");
  EXPECT_EQ(readAndVerify(fs, 5, coll::DistKind::Cyclic, 3, "wide"), 0);
}

TEST(RedistEdge, EmptyChunkNodesNarrowingRead) {
  pfs::Pfs fs = test::memFs();
  writeFile(fs, 5, coll::DistKind::Block, 3, "narrow");
  EXPECT_EQ(readAndVerify(fs, 2, coll::DistKind::Cyclic, 3, "narrow"), 0);
}

TEST(RedistEdge, BlockCyclicRoundTrip) {
  // block -> cyclic -> block: read under cyclic, write what was extracted,
  // read that file back under block. Any routing defect in either
  // direction corrupts the final values.
  pfs::Pfs fs = test::memFs();
  const std::int64_t elements = 37;
  writeFile(fs, 4, coll::DistKind::Block, elements, "rt1");
  rt::Machine m(3);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(elements, &P, coll::DistKind::Cyclic);
    coll::Collection<VarElem> mid(&d);
    ds::IStream in(fs, &d, "rt1");
    in.read();
    in >> mid;
    ds::OStream out(fs, &d, "rt2");
    out << mid;
    out.write();
  });
  EXPECT_EQ(readAndVerify(fs, 4, coll::DistKind::Block, elements, "rt2"), 0);
}

TEST(RedistEdge, SingleElementRecord) {
  pfs::Pfs fs = test::memFs();
  writeFile(fs, 3, coll::DistKind::Block, 1, "one");
  EXPECT_EQ(readAndVerify(fs, 2, coll::DistKind::Cyclic, 1, "one"), 0);
}

TEST(RedistEdge, ChunkSizeSweepMatchesTheFill) {
  // The plan engine under every chunk budget — including degenerate 1-byte
  // rounds that split every element — must reproduce the written values
  // exactly.
  pfs::Pfs fs = test::memFs();
  const std::int64_t elements = 41;
  writeFile(fs, 4, coll::DistKind::Cyclic, elements, "sweep");
  for (const std::uint64_t chunkBytes :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
        std::uint64_t{64}, std::uint64_t{4096}}) {
    ds::StreamOptions opts;
    opts.redistChunkBytes = chunkBytes;
    EXPECT_EQ(readAndVerify(fs, 3, coll::DistKind::Block, elements, "sweep",
                            opts),
              0)
        << "redistChunkBytes=" << chunkBytes;
  }
}

TEST(RedistEdge, ReopenUnderDifferentNodeCounts) {
  // The plan cache key includes (nprocs, node id): reopening the same file
  // under another machine size must build fresh plans, not reuse stale
  // ones.
  pfs::Pfs fs = test::memFs();
  const std::int64_t elements = 30;
  writeFile(fs, 6, coll::DistKind::Block, elements, "reopen");
  redist::PlanCache::instance().clear();
  EXPECT_EQ(readAndVerify(fs, 4, coll::DistKind::Cyclic, elements, "reopen"),
            0);
  const size_t afterFirst = redist::PlanCache::instance().size();
  EXPECT_EQ(afterFirst, 4u);  // one plan per node
  EXPECT_EQ(readAndVerify(fs, 3, coll::DistKind::Cyclic, elements, "reopen"),
            0);
  EXPECT_EQ(redist::PlanCache::instance().size(), afterFirst + 3);
}

#if PCXX_OBS_ENABLED
TEST(RedistEdge, RepeatedSameLayoutReadsHitThePlanCache) {
  pfs::Pfs fs = test::memFs();
  const std::int64_t elements = 24;
  const int nprocs = 3;
  writeFile(fs, 4, coll::DistKind::Block, elements, "hits", /*records=*/3);
  redist::PlanCache::instance().clear();

  rt::Machine m(nprocs);
  obs::MetricsRegistry reg(nprocs);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(elements, &P, coll::DistKind::Cyclic);
    coll::Collection<VarElem> in(&d);
    ds::IStream s(fs, &d, "hits");
    for (int r = 0; r < 3; ++r) {
      s.read();
      s >> in;
      in.forEachLocal(
          [&](VarElem& e, std::int64_t g) { bad.fetch_add(checkElem(e, g)); });
    }
  });
  m.detachObserver();
  EXPECT_EQ(bad.load(), 0);

  const auto snap = reg.snapshot();
  const auto misses =
      snap.merged.counter(obs::Counter::RedistPlanMisses);
  const auto hits = snap.merged.counter(obs::Counter::RedistPlanHits);
  // First record: one miss per node. Records 2 and 3: memo hits.
  EXPECT_EQ(misses, static_cast<std::uint64_t>(nprocs));
  EXPECT_GE(hits, static_cast<std::uint64_t>(2 * nprocs));
}
#endif  // PCXX_OBS_ENABLED

}  // namespace
