// Pins the work each IStream read mode does per record: the collectives
// every node enters (obs::Counter::RtCollectives) and the pfs read ops that
// land inside each record's byte extent (pfs::OpRecorder). The numbers are
// the cost model of the read path — a refactor of IStream must keep them,
// so a change here is a change of algorithm, never of code layout.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/dstream/inspect.h"
#include "src/obs/obs.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr std::int64_t kElems = 48;
constexpr int kRecords = 3;
constexpr int kWriters = 4;
const char* const kFile = "work.ds";

struct Pair {
  double a = 0.0;
  double b = 0.0;
};

using Spans = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Write kRecords two-field records from kWriters nodes (Block); returns
/// each record's byte extent [start, end) from an offline inspection.
Spans writeFile(pfs::Pfs& fs, ds::StreamOptions opts) {
  test::runSpmd(kWriters, [&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<Pair> g(&d);
    ds::OStream s(fs, &d, kFile, opts);
    for (int r = 0; r < kRecords; ++r) {
      g.forEachLocal([r](Pair& p, std::int64_t i) {
        p.a = static_cast<double>(100 * r + i);
        p.b = -p.a;
      });
      s << g.field(&Pair::a) << g.field(&Pair::b);
      s.write();
    }
  });
  ByteBuffer bytes;
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, kFile, pfs::OpenMode::Read);
    bytes.resize(static_cast<size_t>(f->size()));
    EXPECT_EQ(f->readAt(node, 0, bytes), bytes.size());
  });
  pfs::MemStorage image;
  image.writeAt(0, bytes);
  const ds::FileInfo info = ds::inspectFile(image);
  Spans spans;
  for (size_t i = 0; i < info.records.size(); ++i) {
    spans.emplace_back(info.records[i].offset,
                       i + 1 < info.records.size() ? info.records[i + 1].offset
                                                   : info.footerOffset);
  }
  return spans;
}

/// What one read session cost: per call, the collectives each node entered
/// (every node must agree), and per record extent, the pfs read ops issued
/// by all nodes and their prefetch threads.
struct Work {
  std::vector<std::uint64_t> collectives;
  std::vector<std::uint64_t> readOps;
};

// Node threads record only inside a measured call, so open-time reads
// (file header, footer probe) stay out; prefetch threads always record —
// they only ever fetch records, and a fetch started ahead of the next call
// is still that record's work.
thread_local bool tNodeThread = false;
thread_local bool tMeasuring = false;

using Call =
    std::function<void(ds::IStream&, coll::Distribution&, int /*call*/)>;

Work measure(pfs::Pfs& fs, const Spans& spans, int readers,
             coll::DistKind dist, ds::StreamOptions opts, int calls,
             const Call& call) {
  obs::MetricsRegistry reg(readers);
  obs::Observer observer;
  observer.metrics = &reg;
  rt::Machine m(readers);
  m.attachObserver(observer);
  pfs::OpRecorder rec;
  fs.setObserveHook([&rec](const pfs::OpContext& op) {
    if (!tNodeThread || tMeasuring) rec.record(op);
  });
  std::vector<std::vector<std::uint64_t>> perNode(
      static_cast<size_t>(readers));
  m.run([&](rt::Node& node) {
    tNodeThread = true;
    coll::Processors P;
    coll::Distribution d(kElems, &P, dist);
    ds::IStream is(fs, &d, kFile, opts);
    const obs::NodeMetrics& mine = reg.node(node.id());
    for (int i = 0; i < calls; ++i) {
      const std::uint64_t before = mine.counter(obs::Counter::RtCollectives);
      tMeasuring = true;
      call(is, d, i);
      tMeasuring = false;
      perNode[static_cast<size_t>(node.id())].push_back(
          mine.counter(obs::Counter::RtCollectives) - before);
    }
    is.close();
    tNodeThread = false;
  });
  fs.setObserveHook(nullptr);
  m.detachObserver();

  Work work;
  work.collectives = perNode[0];
  for (int r = 1; r < readers; ++r) {
    EXPECT_EQ(perNode[static_cast<size_t>(r)], work.collectives)
        << "node " << r << " entered different collectives";
  }
  work.readOps.assign(spans.size(), 0);
  for (const pfs::OpContext& op : rec.ops()) {
    if (op.kind != pfs::OpKind::Read) continue;
    for (size_t k = 0; k < spans.size(); ++k) {
      if (op.offset >= spans[k].first && op.offset < spans[k].second) {
        ++work.readOps[k];
      }
    }
  }
  return work;
}

/// read() and extract record `records[call]`, checking its values; a
/// projected read extracts only field b. Extraction issues neither
/// collectives nor pfs ops.
Call readChecked(std::atomic<int>& bad, std::vector<int> records,
                 bool projected = false) {
  return [&bad, records, projected](ds::IStream& is, coll::Distribution& d,
                                    int call) {
    is.read();
    coll::Collection<Pair> g(&d);
    if (!projected) is >> g.field(&Pair::a);
    is >> g.field(&Pair::b);
    const int r = records[static_cast<size_t>(call)];
    g.forEachLocal([&](Pair& p, std::int64_t i) {
      const double want = static_cast<double>(100 * r + i);
      if (p.b != -want || (!projected && p.a != want)) bad.fetch_add(1);
    });
  };
}

const std::vector<int> kAll = {0, 1, 2};

void expectCollectives(const Work& work,
                       const std::vector<std::uint64_t>& want) {
#if PCXX_OBS_ENABLED
  EXPECT_EQ(work.collectives, want);
#else
  (void)work;
  (void)want;
#endif
}

ds::StreamOptions checksummed() {
  ds::StreamOptions o;
  o.checksumData = true;
  return o;
}

TEST(ReadWork, Plain) {
  pfs::Pfs fs = test::memFs();
  const Spans spans = writeFile(fs, {});
  std::atomic<int> bad{0};
  const Work w = measure(fs, spans, kWriters, coll::DistKind::Block, {},
                         kRecords, readChecked(bad, kAll));
  EXPECT_EQ(bad.load(), 0);
  // Node 0 reads the header in one op (the footer knows its length); every
  // node reads its size-table slice and its data block.
  expectCollectives(w, {9, 9, 9});
  EXPECT_EQ(w.readOps, (std::vector<std::uint64_t>{9, 9, 9}));
}

TEST(ReadWork, ChecksumData) {
  pfs::Pfs fs = test::memFs();
  const Spans spans = writeFile(fs, checksummed());
  std::atomic<int> bad{0};
  const Work w = measure(fs, spans, kWriters, coll::DistKind::Block, {},
                         kRecords, readChecked(bad, kAll));
  EXPECT_EQ(bad.load(), 0);
  // Plain plus node 0's trailer read; the CRC vote is one allgather.
  expectCollectives(w, {13, 13, 13});
  EXPECT_EQ(w.readOps, (std::vector<std::uint64_t>{10, 10, 10}));
}

TEST(ReadWork, Projected) {
  pfs::Pfs fs = test::memFs();
  const Spans spans = writeFile(fs, checksummed());
  std::atomic<int> bad{0};
  const Call read = readChecked(bad, kAll, /*projected=*/true);
  const Work w = measure(fs, spans, kWriters, coll::DistKind::Block, {},
                         kRecords,
                         [&](ds::IStream& is, coll::Distribution& d, int i) {
                           is.project({1});
                           read(is, d, i);
                         });
  EXPECT_EQ(bad.load(), 0);
  // Each node's projected fields arrive in one window; a projected read
  // skips the trailer, and its placement rides the chunk-length allgather.
  expectCollectives(w, {9, 9, 9});
  EXPECT_EQ(w.readOps, (std::vector<std::uint64_t>{9, 9, 9}));
}

TEST(ReadWork, Prefetched) {
  pfs::Pfs fs = test::memFs();
  const Spans spans = writeFile(fs, checksummed());
  ds::StreamOptions o;
  o.aioPrefetchDepth = 2;
  std::atomic<int> bad{0};
  const Work w = measure(fs, spans, kWriters, coll::DistKind::Block, o,
                         kRecords, readChecked(bad, kAll));
  EXPECT_EQ(bad.load(), 0);
  // Every prefetch thread reads header prefix, header, size table and data
  // block (4 x 4); node 0 reads the trailer on the node thread.
  expectCollectives(w, {7, 7, 7});
  EXPECT_EQ(w.readOps, (std::vector<std::uint64_t>{17, 17, 17}));
}

TEST(ReadWork, RelayoutBlock4ToCyclic3) {
  pfs::Pfs fs = test::memFs();
  const Spans spans = writeFile(fs, {});
  std::atomic<int> bad{0};
  const Work w = measure(fs, spans, 3, coll::DistKind::Cyclic, {}, kRecords,
                         readChecked(bad, kAll));
  EXPECT_EQ(bad.load(), 0);
  // One header read plus three size-table slices and three data blocks;
  // the exchange to the Cyclic owners adds collectives, not pfs ops.
  expectCollectives(w, {12, 12, 12});
  EXPECT_EQ(w.readOps, (std::vector<std::uint64_t>{7, 7, 7}));
}

TEST(ReadWork, SalvageSkipsACorruptRecord) {
  pfs::Pfs fs = test::memFs();
  const Spans spans = writeFile(fs, checksummed());
  ASSERT_EQ(spans.size(), 3u);
  // Element data of record 1, just before its CRC trailer.
  fs.corruptByte(kFile, spans[1].second - 8, Byte{0xFF});
  ds::StreamOptions o;
  o.salvage = true;
  std::atomic<int> bad{0};
  // The second read() skips record 1 and returns record 2.
  const Work w = measure(fs, spans, kWriters, coll::DistKind::Block, o, 2,
                         readChecked(bad, {0, 2}));
  EXPECT_EQ(bad.load(), 0);
  // Salvage costs a clean read nothing extra (the size-table vote rides the
  // data read's allgather); the second read pays for record 1 in full
  // (data, trailer, failed CRC vote) before it reads record 2.
  expectCollectives(w, {13, 26});
  EXPECT_EQ(w.readOps, (std::vector<std::uint64_t>{10, 10, 10}));
}

TEST(ReadWork, SkipRecord) {
  pfs::Pfs fs = test::memFs();
  const Spans spans = writeFile(fs, checksummed());
  const Work w = measure(
      fs, spans, kWriters, coll::DistKind::Block, {}, kRecords,
      [](ds::IStream& is, coll::Distribution&, int) { is.skipRecord(); });
  // Node 0 reads each header as prefix then header; no data is touched.
  expectCollectives(w, {3, 3, 3});
  EXPECT_EQ(w.readOps, (std::vector<std::uint64_t>{2, 2, 2}));
}

TEST(ReadWork, FooterlessSeekRecord) {
  pfs::Pfs fs = test::memFs();
  ds::StreamOptions wo;
  wo.indexFooter = false;
  const Spans spans = writeFile(fs, wo);
  std::atomic<int> bad{0};
  const Call read = readChecked(bad, {2, 2});
  // seekRecord(2) replays two header skips, then reads record 2.
  const Work w = measure(fs, spans, kWriters, coll::DistKind::Block, {}, 2,
                         [&](ds::IStream& is, coll::Distribution& d, int i) {
                           if (i == 0) {
                             is.seekRecord(2);
                           } else {
                             read(is, d, i);
                           }
                         });
  EXPECT_EQ(bad.load(), 0);
  // Replay reads records 0 and 1 as prefix + header only; the read of
  // record 2 probes its header the same way, then tables and data.
  expectCollectives(w, {8, 9});
  EXPECT_EQ(w.readOps, (std::vector<std::uint64_t>{2, 2, 10}));
}

}  // namespace
