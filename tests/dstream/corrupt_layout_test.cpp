// Hand-crafted record headers whose layout parameters lie: the pieces
// (distribution, alignment) decode fine and the header CRC verifies, but
// the combination routes elements outside the collection. They must
// surface as FormatError at header-decode time on every node, and
// salvage-mode readers must skip them collectively. The downstream
// duplicate-delivery check (redist::buildPlan's partition validation,
// raised identically on every node before any collective) stays as
// defense in depth: affine alignments that pass these decode checks
// cannot alias, so the decode boundary is where reachable corruption is
// stopped.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/dstream/dstream.h"
#include "src/util/crc32.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

// Mirrors RecordHeader::encode() but takes raw layout parameters, so we
// can emit combinations the hardened Layout constructor refuses to build.
ByteBuffer encodeHostileHeader(std::int64_t distSize, std::int64_t alignSize,
                               std::int64_t stride, std::int64_t offset) {
  ByteBuffer out;
  ByteWriter w(out);
  w.u32(ds::kRecordMagic);
  w.u32(0);  // total length, patched below
  w.u32(0);  // seq
  w.u8(0);   // HeaderMode::Gathered
  w.u8(0);   // flags
  // Distribution: Block over 2 writer nodes.
  w.i64(distSize);
  w.u32(2);
  w.u8(0);  // DistKind::Block
  w.i64(1);
  // Alignment: the hostile part.
  w.i64(alignSize);
  w.i64(stride);
  w.i64(offset);
  w.u32(1);  // one insert
  w.u32(ds::typeTag<int>());
  w.u8(0);  // InsertKind::Collection
  w.u32(4);
  w.u64(4 * static_cast<std::uint64_t>(alignSize));  // dataBytes
  const std::uint32_t total = static_cast<std::uint32_t>(out.size() + 4);
  encodeU32(total, out.data() + 4);
  w.u32(crc32({out.data(), out.size()}));
  return out;
}

// A complete d/stream file image holding one hostile record: valid file
// header, CRC-valid record header, then a plausible size table + data so
// the extent checks see a whole record.
void writeHostileFile(pfs::Pfs& fs, const char* name, std::int64_t distSize,
                      std::int64_t alignSize, std::int64_t stride,
                      std::int64_t offset) {
  ByteBuffer img = ds::encodeFileHeader();
  const ByteBuffer hdr =
      encodeHostileHeader(distSize, alignSize, stride, offset);
  img.insert(img.end(), hdr.begin(), hdr.end());
  ByteWriter w(img);
  for (std::int64_t j = 0; j < alignSize; ++j) w.u64(4);  // size table
  for (std::int64_t j = 0; j < alignSize; ++j) w.u32(0);  // data
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, name, pfs::OpenMode::Create);
    f->writeAt(node, 0, img);
  });
}

TEST(CorruptLayout, AlignEscapingDistributionIsFormatError) {
  // stride 1, offset 4 over an 8-wide template: element 7 maps to index
  // 11. Every global index the tail elements claim aliases nothing that
  // exists; pre-fix this escaped as UsageError from deep inside the
  // redistribution arithmetic.
  pfs::Pfs fs = test::memFs();
  writeHostileFile(fs, "escape", 8, 8, 1, 4);
  rt::Machine m(2);
  try {
    m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(8, &P, coll::DistKind::Block);
      ds::IStream s(fs, &d, "escape");
      s.read();
    });
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("layout is inconsistent"),
              std::string::npos)
        << e.what();
  }
}

TEST(CorruptLayout, OverflowingStrideIsFormatError) {
  // stride * (size - 1) overflows int64: without the overflow-checked
  // endpoint computation this wrapped negative and sailed past the range
  // check, later indexing the distribution with garbage.
  pfs::Pfs fs = test::memFs();
  writeHostileFile(fs, "overflow", 8, 8, std::int64_t{1} << 61, 0);
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
                 coll::Processors P;
                 coll::Distribution d(8, &P, coll::DistKind::Block);
                 ds::IStream s(fs, &d, "overflow");
                 s.read();
               }),
               FormatError);
}

TEST(CorruptLayout, NegativeMappingIsFormatError) {
  pfs::Pfs fs = test::memFs();
  writeHostileFile(fs, "negative", 8, 8, 1, -3);
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
                 coll::Processors P;
                 coll::Distribution d(8, &P, coll::DistKind::Block);
                 ds::IStream s(fs, &d, "negative");
                 s.read();
               }),
               FormatError);
}

TEST(CorruptLayout, SalvageSkipsHostileRecordCollectively) {
  // With salvage on, a hostile header is damage, not death: every node
  // must make the same skip decision (the header bytes were broadcast, so
  // the decode failure is symmetric), report the loss, and recover
  // nothing.
  pfs::Pfs fs = test::memFs();
  writeHostileFile(fs, "salvage", 8, 8, 1, 4);
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    ds::StreamOptions opts;
    opts.salvage = true;
    ds::IStream s(fs, &d, "salvage", opts);
    s.read();
    EXPECT_FALSE(s.hasRecord());
    EXPECT_EQ(s.salvageReport().recordsRecovered, 0u);
    EXPECT_EQ(s.salvageReport().recordsLost, 1u);
    ASSERT_EQ(s.salvageReport().damage.size(), 1u);
  });
}

}  // namespace
