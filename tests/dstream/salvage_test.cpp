// Torn-write salvage: IStream's salvage mode skips damaged records and
// torn tails while returning every intact record byte-identical, and the
// offline scanFile() reports the same damage without a machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/dstream/inspect.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr std::int64_t kElems = 9;
constexpr int kNodes = 3;

void fill(coll::Collection<double>& c, int record) {
  c.forEachLocal([record](double& v, std::int64_t g) {
    v = static_cast<double>(record * 100 + g);
  });
}

std::int64_t countWrong(coll::Collection<double>& c, int record) {
  std::int64_t bad = 0;
  c.forEachLocal([&](double& v, std::int64_t g) {
    if (v != static_cast<double>(record * 100 + g)) ++bad;
  });
  return bad;
}

/// Write `records` checksummed records to "f.ds" on `fs`; returns the
/// record boundaries [start, end) discovered by an offline inspection.
std::vector<std::pair<std::uint64_t, std::uint64_t>> writeRecords(
    pfs::Pfs& fs, int records) {
  test::runSpmd(kNodes, [&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::StreamOptions so;
    so.checksumData = true;
    ds::OStream s(fs, &d, "f.ds", so);
    for (int r = 0; r < records; ++r) {
      fill(g, r);
      s << g;
      s.write();
    }
  });
  // Copy the bytes out and inspect offline for the record boundaries.
  ByteBuffer bytes;
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "f.ds", pfs::OpenMode::Read);
    bytes.resize(static_cast<size_t>(f->size()));
    EXPECT_EQ(f->readAt(node, 0, bytes), bytes.size());
  });
  pfs::MemStorage image;
  image.writeAt(0, bytes);
  const ds::FileInfo info = ds::inspectFile(image);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (size_t i = 0; i < info.records.size(); ++i) {
    const std::uint64_t start = info.records[i].offset;
    const std::uint64_t end = i + 1 < info.records.size()
                                  ? info.records[i + 1].offset
                                  : bytes.size();
    spans.emplace_back(start, end);
  }
  return spans;
}

/// Salvage-read "f.ds" with `prefetchDepth` records of read-ahead: returns
/// which of `records` indices were recovered with correct contents, plus
/// the stream's report.
std::pair<std::vector<int>, ds::SalvageReport> salvageRead(
    pfs::Pfs& fs, int records, int prefetchDepth = 0) {
  std::vector<int> recovered;
  ds::SalvageReport report;
  test::runSpmd(kNodes, [&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::StreamOptions so;
    so.salvage = true;
    so.aioPrefetchDepth = prefetchDepth;
    ds::IStream s(fs, &d, "f.ds", so);
    std::vector<int> mine;
    while (!s.atEnd()) {
      s.read();
      if (!s.hasRecord()) break;  // salvage consumed damage to the tail
      s >> g;
      // Identify which record this is by its contents.
      for (int r = 0; r < records; ++r) {
        if (countWrong(g, r) == 0) mine.push_back(r);
      }
    }
    if (node.id() == 0) {
      recovered = mine;
      report = s.salvageReport();
    }
  });
  return {recovered, report};
}

/// Salvage verdicts must not depend on read-ahead: the same file read with
/// two records of prefetch recovers the same records and reports the same
/// damage as the synchronous read.
void expectSameUnderReadAhead(
    pfs::Pfs& fs, int records,
    const std::pair<std::vector<int>, ds::SalvageReport>& sync) {
  const auto [recovered, report] = salvageRead(fs, records, 2);
  EXPECT_EQ(recovered, sync.first);
  EXPECT_EQ(report.recordsRecovered, sync.second.recordsRecovered);
  EXPECT_EQ(report.recordsLost, sync.second.recordsLost);
  ASSERT_EQ(report.damage.size(), sync.second.damage.size());
  for (size_t i = 0; i < report.damage.size(); ++i) {
    EXPECT_EQ(report.damage[i].offset, sync.second.damage[i].offset);
    EXPECT_EQ(report.damage[i].bytes, sync.second.damage[i].bytes);
    EXPECT_EQ(report.damage[i].reason, sync.second.damage[i].reason);
  }
}

TEST(Salvage, CleanFileReadsEverythingWithEmptyReport) {
  pfs::Pfs fs = test::memFs();
  writeRecords(fs, 3);
  const auto sync = salvageRead(fs, 3);
  const auto& [recovered, report] = sync;
  EXPECT_EQ(recovered, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.recordsRecovered, 3u);
  EXPECT_EQ(report.recordsLost, 0u);
  expectSameUnderReadAhead(fs, 3, sync);
}

TEST(Salvage, NonSalvageReadsClaimNoRecoveries) {
  // Regression: recordsRecovered used to be bumped on EVERY successful
  // finishRecord, so a clean reader without salvage enabled reported
  // "recoveries" it never performed. Recovery counts are salvage-mode
  // bookkeeping only.
  pfs::Pfs fs = test::memFs();
  writeRecords(fs, 3);
  ds::SalvageReport cleanReport;
  test::runSpmd(kNodes, [&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::IStream s(fs, &d, "f.ds");  // salvage OFF
    for (int r = 0; r < 3; ++r) {
      s.read();
      s >> g;
      EXPECT_EQ(countWrong(g, r), 0);
    }
    if (node.id() == 0) cleanReport = s.salvageReport();
  });
  EXPECT_EQ(cleanReport.recordsRecovered, 0u);
  EXPECT_EQ(cleanReport.recordsLost, 0u);
  EXPECT_TRUE(cleanReport.clean());

  // The same file under salvage DOES count its records as recovered — the
  // two reports must differ exactly in that counter.
  auto [recovered, report] = salvageRead(fs, 3);
  EXPECT_EQ(recovered, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(report.recordsRecovered, 3u);
}

TEST(Salvage, CorruptMiddleRecordIsSkippedAndReported) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 3);
  ASSERT_EQ(spans.size(), 3u);
  // Flip data bytes in record 1 (near its end: inside the element data,
  // past the header and size table, before the 4-byte CRC trailer).
  const std::uint64_t hit = spans[1].second - 10;
  fs.corruptByte("f.ds", hit, Byte{0xFF});
  fs.corruptByte("f.ds", hit + 1, Byte{0xFF});

  const auto sync = salvageRead(fs, 3);
  const auto& [recovered, report] = sync;
  // Records 0 and 2 come back byte-identical; 1 is skipped.
  EXPECT_EQ(recovered, (std::vector<int>{0, 2}));
  EXPECT_EQ(report.recordsRecovered, 2u);
  EXPECT_EQ(report.recordsLost, 1u);
  ASSERT_EQ(report.damage.size(), 1u);
  EXPECT_EQ(report.damage[0].offset, spans[1].first);
  EXPECT_EQ(report.damage[0].offset + report.damage[0].bytes,
            spans[1].second);
  expectSameUnderReadAhead(fs, 3, sync);
}

TEST(Salvage, TornTailIsConsumedAndReported) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 3);
  ASSERT_EQ(spans.size(), 3u);
  // Tear the file mid-record-2 (a crash mid-append).
  const std::uint64_t tearAt = spans[2].first + 10;
  fs.truncateFile("f.ds", tearAt);

  const auto sync = salvageRead(fs, 3);
  const auto& [recovered, report] = sync;
  EXPECT_EQ(recovered, (std::vector<int>{0, 1}));
  EXPECT_EQ(report.recordsRecovered, 2u);
  EXPECT_EQ(report.recordsLost, 1u);
  ASSERT_EQ(report.damage.size(), 1u);
  EXPECT_EQ(report.damage[0].offset, spans[2].first);
  expectSameUnderReadAhead(fs, 3, sync);
}

TEST(Salvage, WithoutSalvageTheSameDamageThrows) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 2);
  fs.truncateFile("f.ds", spans[1].first + 6);
  EXPECT_THROW(
      test::runSpmd(kNodes,
                    [&](rt::Node&) {
                      coll::Processors P;
                      coll::Distribution d(kElems, &P,
                                           coll::DistKind::Block);
                      coll::Collection<double> g(&d);
                      ds::IStream s(fs, &d, "f.ds");
                      s.read();
                      s >> g;
                      s.read();  // hits the torn tail
                      s >> g;
                    }),
      FormatError);
}

TEST(Salvage, ScanFileAgreesWithTheStreamAndFindsThePrefix) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 3);
  const std::uint64_t hit = spans[1].second - 10;  // element data region
  fs.corruptByte("f.ds", hit, Byte{0xFF});
  fs.corruptByte("f.ds", hit + 1, Byte{0xFF});

  ByteBuffer bytes;
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "f.ds", pfs::OpenMode::Read);
    bytes.resize(static_cast<size_t>(f->size()));
    EXPECT_EQ(f->readAt(node, 0, bytes), bytes.size());
  });
  pfs::MemStorage image;
  image.writeAt(0, bytes);

  const ds::ScanResult scan = ds::scanFile(image);
  EXPECT_EQ(scan.report.recordsRecovered, 2u);
  EXPECT_EQ(scan.report.recordsLost, 1u);
  ASSERT_EQ(scan.report.damage.size(), 1u);
  EXPECT_EQ(scan.report.damage[0].offset, spans[1].first);
  // The valid *prefix* ends before the damaged record 1, even though
  // record 2 behind it is intact (a normal reader stops at the damage).
  EXPECT_EQ(scan.validPrefixEnd, spans[1].first);
  ASSERT_EQ(scan.info.records.size(), 2u);
  EXPECT_EQ(scan.info.records[0].offset, spans[0].first);
  EXPECT_EQ(scan.info.records[1].offset, spans[2].first);

  const std::string text = ds::formatSalvageReport(scan.report);
  EXPECT_NE(text.find("2 record(s) recovered"), std::string::npos) << text;
  EXPECT_NE(text.find("1 lost"), std::string::npos) << text;
  EXPECT_NE(text.find("checksum"), std::string::npos) << text;
}

TEST(Salvage, ScanOfACleanFileIsClean) {
  pfs::Pfs fs = test::memFs();
  writeRecords(fs, 2);
  ByteBuffer bytes;
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "f.ds", pfs::OpenMode::Read);
    bytes.resize(static_cast<size_t>(f->size()));
    EXPECT_EQ(f->readAt(node, 0, bytes), bytes.size());
  });
  pfs::MemStorage image;
  image.writeAt(0, bytes);
  const ds::ScanResult scan = ds::scanFile(image);
  EXPECT_TRUE(scan.report.clean());
  EXPECT_EQ(scan.info.records.size(), 2u);
  EXPECT_EQ(scan.validPrefixEnd, bytes.size());
}

}  // namespace
