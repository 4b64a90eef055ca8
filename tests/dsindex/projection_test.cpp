// Field projection (IStream::project): a projected read must deliver
// exactly the bytes a full read delivers for the projected fields — across
// interleave layouts and distributions, through the prefetch path, in
// salvage mode, and under an attached observer — and must fetch them in
// windows of neighbouring elements rather than one read per element.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/dstream/inspect.h"
#include "tests/common/test_helpers.h"

/// A 256 KiB fixed-size field: elements far larger than the read gap bound.
struct Slab {
  double words[32768];
};
PCXX_STREAM_TRIVIAL(Slab);

namespace {

using namespace pcxx;

struct Cell {
  int count = 0;
  double density = 0.0;
};

/// Write one record interleaving three inserts: [0] a whole int collection,
/// [1] a double field, [2] an int field.
void writeMixed(pfs::Pfs& fs, const std::string& name, std::int64_t n,
                coll::DistKind kind, int records = 1,
                ds::StreamOptions so = {}) {
  coll::Processors P;
  coll::Distribution d(n, &P, kind);
  coll::Collection<int> whole(&d);
  coll::Collection<Cell> cells(&d);
  ds::OStream s(fs, &d, name, so);
  for (int r = 0; r < records; ++r) {
    whole.forEachLocal([r](int& v, std::int64_t i) {
      v = static_cast<int>(i * 3 + r);
    });
    cells.forEachLocal([r](Cell& c, std::int64_t i) {
      c.count = static_cast<int>(i + 100 * r);
      c.density = 0.25 * static_cast<double>(i) + r;
    });
    s << whole;
    s << cells.field(&Cell::density);
    s << cells.field(&Cell::count);
    s.write();
  }
}

TEST(Projection, SingleFieldMatchesFullExtract) {
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 14;
  for (auto kind : {coll::DistKind::Block, coll::DistKind::Cyclic}) {
    rt::Machine m(3);
    m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(n, &P, kind);
      writeMixed(fs, "mix.ds", n, kind);

      // Full read: all three inserts.
      coll::Collection<int> fullWhole(&d);
      coll::Collection<Cell> fullCells(&d);
      {
        ds::IStream is(fs, &d, "mix.ds");
        is.read();
        is >> fullWhole;
        is >> fullCells.field(&Cell::density);
        is >> fullCells.field(&Cell::count);
      }

      // Projected read of just the density field (insert position 1).
      coll::Collection<Cell> projCells(&d);
      {
        ds::IStream is(fs, &d, "mix.ds");
        is.project({1});
        is.read();
        EXPECT_EQ(is.currentRecord().inserts.size(), 1u);
        is >> projCells.field(&Cell::density);
      }
      projCells.forEachLocal([&](Cell& c, std::int64_t g) {
        EXPECT_DOUBLE_EQ(c.density, fullCells.at(g).density) << g;
      });

      // Projected read of inserts {0, 2}, skipping the middle field.
      coll::Collection<int> projWhole(&d);
      coll::Collection<Cell> projCells2(&d);
      {
        ds::IStream is(fs, &d, "mix.ds");
        is.project({0, 2});
        is.read();
        EXPECT_EQ(is.currentRecord().inserts.size(), 2u);
        is >> projWhole;
        is >> projCells2.field(&Cell::count);
      }
      projWhole.forEachLocal([&](int& v, std::int64_t g) {
        EXPECT_EQ(v, fullWhole.at(g)) << g;
      });
      projCells2.forEachLocal([&](Cell& c, std::int64_t g) {
        EXPECT_EQ(c.count, fullCells.at(g).count) << g;
      });
    });
  }
}

TEST(Projection, WorksAcrossLayoutChange) {
  // Written Block on 4 nodes, read Cyclic: the strided read composes with
  // the redistribution exchange.
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 18;
  rt::Machine m(4);
  m.run([&](rt::Node&) {
    writeMixed(fs, "relayout.ds", n, coll::DistKind::Block);
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Cyclic);
    coll::Collection<Cell> cells(&d);
    ds::IStream is(fs, &d, "relayout.ds");
    is.project({1});
    is.read();
    is >> cells.field(&Cell::density);
    cells.forEachLocal([](Cell& c, std::int64_t g) {
      EXPECT_DOUBLE_EQ(c.density, 0.25 * static_cast<double>(g));
    });
  });
}

TEST(Projection, PrefetchPathMatchesSynchronous) {
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 12;
  const int records = 4;
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    writeMixed(fs, "pf.ds", n, coll::DistKind::Block, records);
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);

    auto readAll = [&](int prefetchDepth) {
      std::vector<double> got;
      ds::StreamOptions so;
      so.aioPrefetchDepth = prefetchDepth;
      ds::IStream is(fs, &d, "pf.ds", so);
      EXPECT_EQ(is.asyncActive(), prefetchDepth > 0);
      is.project({1});
      coll::Collection<Cell> cells(&d);
      for (int r = 0; r < records; ++r) {
        is.read();
        is >> cells.field(&Cell::density);
        cells.forEachLocal([&](Cell& c, std::int64_t) {
          got.push_back(c.density);
        });
      }
      return got;
    };

    const std::vector<double> sync = readAll(0);
    const std::vector<double> prefetched = readAll(2);
    EXPECT_EQ(sync, prefetched);
  });
}

TEST(Projection, SalvageSkipsDamagedRecordInBothPaths) {
  // Record 1's header is corrupted; salvage-mode reads deliver records 0
  // and 2 — projected exactly as a full read does.
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 10;
  rt::Machine m(2);
  std::uint64_t record1At = 0;
  m.run([&](rt::Node&) { writeMixed(fs, "dmg.ds", n, coll::DistKind::Block, 3); });
  {
    // Locate record 1 offline via the inspector.
    ByteBuffer image;
    rt::Machine probe(1);
    probe.run([&](rt::Node& node) {
      auto f = fs.open(node, "dmg.ds", pfs::OpenMode::Read);
      image.resize(static_cast<size_t>(f->size()));
      f->readAt(node, 0, image);
    });
    pfs::MemStorage storage;
    storage.writeAt(0, image);
    const ds::FileInfo info = ds::inspectFile(storage);
    ASSERT_EQ(info.records.size(), 3u);
    record1At = info.records[1].offset;
  }
  // Flip a byte inside record 1's header, past the magic+length prefix, so
  // the damage is a CRC mismatch rather than a framing error.
  fs.corruptByte("dmg.ds", record1At + 13, Byte{0xAB});

  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    ds::StreamOptions so;
    so.salvage = true;

    std::vector<int> fullCounts;
    {
      ds::IStream is(fs, &d, "dmg.ds", so);
      coll::Collection<int> whole(&d);
      coll::Collection<Cell> cells(&d);
      while (!is.atEnd()) {
        is.read();
        if (!is.hasRecord()) continue;
        is >> whole;
        is >> cells.field(&Cell::density);
        is >> cells.field(&Cell::count);
        cells.forEachLocal([&](Cell& c, std::int64_t) {
          fullCounts.push_back(c.count);
        });
      }
      EXPECT_EQ(is.salvageReport().recordsLost, 1u);
    }

    std::vector<int> projCounts;
    {
      ds::IStream is(fs, &d, "dmg.ds", so);
      is.project({2});
      coll::Collection<Cell> cells(&d);
      while (!is.atEnd()) {
        is.read();
        if (!is.hasRecord()) continue;
        is >> cells.field(&Cell::count);
        cells.forEachLocal([&](Cell& c, std::int64_t) {
          projCounts.push_back(c.count);
        });
      }
      EXPECT_EQ(is.salvageReport().recordsLost, 1u);
    }
    EXPECT_EQ(projCounts, fullCounts);
  });
}

TEST(Projection, ObserverCountsProjectedRecords) {
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 8;
  rt::Machine m(2);
  obs::MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node&) {
    writeMixed(fs, "obs.ds", n, coll::DistKind::Block, 2);
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    coll::Collection<Cell> cells(&d);
    ds::IStream is(fs, &d, "obs.ds");
    is.project({1});
    for (int r = 0; r < 2; ++r) {
      is.read();
      is >> cells.field(&Cell::density);
      cells.forEachLocal([&, r](Cell& c, std::int64_t g) {
        if (c.density != 0.25 * static_cast<double>(g) + r) bad.fetch_add(1);
      });
    }
  });
  m.detachObserver();
  EXPECT_EQ(bad.load(), 0);
#if PCXX_OBS_ENABLED
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.merged.counter(obs::Counter::DsIndexProjections), 4u);
#endif
}

struct Var {
  int n = 0;
  double* data = nullptr;
  ~Var() { delete[] data; }
  Var() = default;
  Var(const Var&) = delete;
  Var& operator=(const Var&) = delete;
};

declareStreamInserter(Var& e) {
  s << e.n;
  s << pcxx::ds::array(e.data, e.n);
}
declareStreamExtractor(Var& e) {
  s >> e.n;
  s >> pcxx::ds::array(e.data, e.n);
}

TEST(Projection, VariableSizeFieldRejected) {
  // Inserting a variable-size element before (or at) a projected index has
  // no fixed per-element stride — project() must refuse at read time.
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  EXPECT_THROW(
      m.run([&](rt::Node&) {
        coll::Processors P;
        coll::Distribution d(6, &P, coll::DistKind::Block);
        coll::Collection<Var> g(&d);
        g.forEachLocal([](Var& e, std::int64_t i) {
          e.n = static_cast<int>(i % 3);
          delete[] e.data;
          e.data = e.n > 0 ? new double[static_cast<size_t>(e.n)] : nullptr;
          for (int k = 0; k < e.n; ++k) e.data[k] = 1.0;
        });
        {
          ds::OStream s(fs, &d, "var.ds");
          s << g.field(&Var::n);
          s << g;  // variable-size whole-element insert
          s.write();
        }
        ds::IStream is(fs, &d, "var.ds");
        is.project({1});  // the variable insert itself
        is.read();
      }),
      UsageError);

  // Projecting only the fixed prefix of the same file is legal.
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<Var> g(&d);
    ds::IStream is(fs, &d, "var.ds");
    is.project({0});
    is.read();
    is >> g.field(&Var::n);
    g.forEachLocal([](Var& e, std::int64_t i) {
      EXPECT_EQ(e.n, static_cast<int>(i % 3));
    });
  });
}

/// Runs `is.read()` on every node with `rec` recording the pfs ops it
/// issues (the barriers keep every other op out of the recording).
void recordRead(rt::Node& node, pfs::Pfs& fs, pfs::OpRecorder& rec,
                ds::IStream& is) {
  node.barrier();
  if (node.id() == 0) {
    rec.clear();
    fs.setObserveHook(rec.hook());
  }
  node.barrier();
  is.read();
  node.barrier();
  if (node.id() == 0) fs.setObserveHook(nullptr);
  node.barrier();
}

struct Frame {
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0, e = 0.0;
};

TEST(Projection, ReadOpsScaleWithWindowsNotElements) {
  // 4096 five-field elements on 4 nodes: each node's chunk is 40 KiB, so
  // its projected fields arrive in one window. One read per element would
  // be 1024 reads per node.
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 4096;
  rt::Machine m(4);
  pfs::OpRecorder rec;
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    coll::Collection<Frame> cells(&d);
    cells.forEachLocal([](Frame& f, std::int64_t i) {
      const double x = static_cast<double>(i);
      f = Frame{x, x + 0.25, x + 0.5, x + 0.75, -x};
    });
    {
      ds::OStream s(fs, &d, "frames.ds");
      s << cells.field(&Frame::a) << cells.field(&Frame::b)
        << cells.field(&Frame::c) << cells.field(&Frame::d)
        << cells.field(&Frame::e);
      s.write();
    }
    coll::Collection<Frame> got(&d);
    ds::IStream is(fs, &d, "frames.ds");
    // 16 projected bytes per 40-byte element: the unprojected gap between
    // neighbours is larger than what each read wants.
    is.project({1, 2});
    recordRead(node, fs, rec, is);
    is >> got.field(&Frame::b);
    is >> got.field(&Frame::c);
    got.forEachLocal([&](Frame& f, std::int64_t g) {
      if (f.b != cells.at(g).b || f.c != cells.at(g).c) bad.fetch_add(1);
    });
  });
  EXPECT_EQ(bad.load(), 0);
  std::map<int, std::size_t> reads;
  for (const auto& op : rec.ops()) {
    if (op.kind == pfs::OpKind::Read) ++reads[op.nodeId];
  }
  ASSERT_EQ(reads.size(), 4u);
  for (const auto& [nodeId, count] : reads) {
    // Node 0 reads the header; every node reads its size-table slice and
    // its one window.
    EXPECT_LE(count, 3u) << "node " << nodeId;
  }
}

struct Big {
  double tag = 0.0;
  Slab slab{};
};

TEST(Projection, LargeElementsSplitAtTheGapBound) {
  // Each element carries 256 KiB of unprojected bytes after an 8-byte
  // projected field: the gap to the next element's field exceeds the
  // window gap bound, so every element is its own 8-byte read and the
  // fetched bytes are the projected bytes alone.
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 8;
  rt::Machine m(2);
  pfs::OpRecorder rec;
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    coll::Collection<Big> cells(&d);
    cells.forEachLocal([](Big& b, std::int64_t i) {
      b.tag = 1.5 * static_cast<double>(i);
      b.slab.words[0] = -1.0;
    });
    {
      ds::OStream s(fs, &d, "big.ds");
      s << cells.field(&Big::tag) << cells.field(&Big::slab);
      s.write();
    }
    coll::Collection<Big> got(&d);
    ds::IStream is(fs, &d, "big.ds");
    is.project({0});
    recordRead(node, fs, rec, is);
    is >> got.field(&Big::tag);
    got.forEachLocal([&](Big& b, std::int64_t g) {
      if (b.tag != 1.5 * static_cast<double>(g)) bad.fetch_add(1);
    });
  });
  EXPECT_EQ(bad.load(), 0);
  std::size_t fieldReads = 0;
  std::uint64_t readBytes = 0;
  for (const auto& op : rec.ops()) {
    if (op.kind != pfs::OpKind::Read) continue;
    readBytes += op.bytes;
    if (op.bytes == sizeof(double)) ++fieldReads;
  }
  EXPECT_EQ(fieldReads, static_cast<std::size_t>(n));
  // Header and size table aside, nothing but the 8-byte fields was read —
  // a single window spanning two elements would cost 256 KiB.
  EXPECT_LT(readBytes, 4096u);
}

TEST(Projection, VariableSizesAcrossGapAndWindowBoundsMatchFullRead) {
  // Var elements are 8 + 8n bytes behind a 4-byte projected prefix, so
  // the gap after an element is its size less 4: n = 8191 leaves a gap
  // just within the 64 KiB bound and n = 8192 one just past it. Twenty
  // 64 KiB elements in a row outgrow a 1 MiB window, and n = 131072 makes
  // an element larger than a window.
  auto lengthOf = [](std::int64_t i) {
    const std::int64_t tail[] = {8192, 3, 0, 131072};
    const std::int64_t k = i % 24;
    return static_cast<int>(k < 20 ? 8191 : tail[k - 20]);
  };
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 48;
  rt::Machine m(2);
  pfs::OpRecorder rec;
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    {
      coll::Collection<Var> g(&d);
      g.forEachLocal([&](Var& e, std::int64_t i) {
        e.n = lengthOf(i);
        e.data = e.n > 0 ? new double[static_cast<size_t>(e.n)] : nullptr;
        for (int k = 0; k < e.n; ++k) e.data[k] = static_cast<double>(k);
      });
      ds::OStream s(fs, &d, "straddle.ds");
      s << g.field(&Var::n);
      s << g;
      s.write();
    }
    coll::Collection<Var> full(&d);
    {
      ds::IStream is(fs, &d, "straddle.ds");
      is.read();
      is >> full.field(&Var::n);
      is >> full;
    }
    coll::Collection<Var> proj(&d);
    ds::IStream is(fs, &d, "straddle.ds");
    is.project({0});
    recordRead(node, fs, rec, is);
    is >> proj.field(&Var::n);
    proj.forEachLocal([&](Var& e, std::int64_t g) {
      if (e.n != full.at(g).n || e.n != lengthOf(g)) bad.fetch_add(1);
    });
  });
  EXPECT_EQ(bad.load(), 0);
  std::size_t reads = 0;
  for (const auto& op : rec.ops()) {
    if (op.kind != pfs::OpKind::Read) continue;
    ++reads;
    EXPECT_LE(op.bytes, 1024u * 1024u) << "window at " << op.offset;
  }
  // Per node: the size table, then windows of elements 0-15 (the window
  // bound), 16-20 (the gap bound) and 21-23; node 0 also reads the header.
  EXPECT_EQ(reads, 9u);
}

}  // namespace
