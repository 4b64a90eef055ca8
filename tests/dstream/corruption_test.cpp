// Failure-path tests: corrupted, truncated, and alien files must surface as
// typed FormatError/IoError on every node, never as crashes or hangs.
#include <gtest/gtest.h>

#include <atomic>

#include "src/dstream/dstream.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

void writeIntFile(pfs::Pfs& fs, const char* name, std::int64_t n) {
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    g.forEachLocal([](int& v, std::int64_t i) { v = static_cast<int>(i); });
    // No index footer: these tests corrupt byte ranges computed from the
    // raw record framing, so the record chain must end at end of file.
    ds::StreamOptions so;
    so.indexFooter = false;
    ds::OStream s(fs, &d, name, so);
    s << g;
    s.write();
  });
}

TEST(Corruption, NotADStreamFile) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  // Manufacture a non-d/stream file.
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "alien", pfs::OpenMode::Create);
    if (node.id() == 0) {
      f->writeAt(node, 0, ByteBuffer(64, 0x55));
    }
    node.barrier();
  });
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    ds::IStream s(fs, &d, "alien");  // header check happens at open
  }),
               FormatError);
}

TEST(Corruption, EmptyFileRejected) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    fs.open(node, "empty", pfs::OpenMode::Create);
    node.barrier();
  });
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    ds::IStream s(fs, &d, "empty");
  }),
               FormatError);
}

TEST(Corruption, WrongFormatVersionRejected) {
  pfs::Pfs fs = test::memFs();
  writeIntFile(fs, "ver", 8);
  fs.corruptByte("ver", 8, 99);  // version field in the file header
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    ds::IStream s(fs, &d, "ver");
  }),
               FormatError);
}

TEST(Corruption, RecordHeaderChecksumDetectsFlips) {
  pfs::Pfs fs = test::memFs();
  writeIntFile(fs, "crc", 8);
  // Flip one byte inside the record header (past magic+length so the
  // failure is CRC, not framing).
  fs.corruptByte("crc", ds::kFileHeaderBytes + 13, 0xAB);
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    ds::IStream s(fs, &d, "crc");
    s.read();
  }),
               FormatError);
}

TEST(Corruption, BadRecordMagicRejected) {
  pfs::Pfs fs = test::memFs();
  writeIntFile(fs, "magic", 8);
  fs.corruptByte("magic", ds::kFileHeaderBytes, 0x00);
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    ds::IStream s(fs, &d, "magic");
    s.read();
  }),
               FormatError);
}

/// Reads the record of `name` (n ints) on 2 nodes without salvage and
/// expects the same FormatError from EVERY node: a node that alone throws
/// (or alone reads on) would leave its peers in a different collective.
void expectRejectedOnEveryNode(pfs::Pfs& fs, const char* name,
                               std::int64_t n) {
  rt::Machine m(2);
  std::atomic<int> throwers{0};
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    try {
      ds::IStream s(fs, &d, name);
      s.read();
      s >> g;
    } catch (const FormatError&) {
      throwers.fetch_add(1);
      throw;
    }
  }),
               FormatError);
  EXPECT_EQ(throwers.load(), 2);
}

std::uint64_t fileSize(pfs::Pfs& fs, const char* name) {
  rt::Machine probe(1);
  std::uint64_t size = 0;
  probe.run([&](rt::Node& node) {
    size = fs.open(node, name, pfs::OpenMode::Read)->size();
  });
  return size;
}

/// Offset of the size table of the single record writeIntFile wrote (no
/// footer, no data checksum: the data section ends the file).
std::uint64_t sizeTableAt(pfs::Pfs& fs, const char* name, std::int64_t n) {
  rt::Machine probe(1);
  std::uint64_t tailBytes = 0;
  probe.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    ds::IStream s(fs, &d, name);
    const ds::RecordHeader header = s.skipRecord();
    tailBytes = header.sizeTableBytes() + header.dataBytes;
  });
  return fileSize(fs, name) - tailBytes;
}

TEST(Corruption, TruncatedDataDetected) {
  pfs::Pfs fs = test::memFs();
  writeIntFile(fs, "trunc", 64);
  fs.truncateFile("trunc", fileSize(fs, "trunc") - 40);  // into the data
  // The record extent check rejects it before any collective read.
  expectRejectedOnEveryNode(fs, "trunc", 64);
}

TEST(Corruption, SizeTableSumMismatchDetected) {
  pfs::Pfs fs = test::memFs();
  writeIntFile(fs, "sum", 64);
  // Element 0's size 4 -> 5: the table no longer sums to dataBytes.
  fs.corruptByte("sum", sizeTableAt(fs, "sum", 64), 5);
  expectRejectedOnEveryNode(fs, "sum", 64);
}

TEST(Corruption, SizeEntryWithHighBytesSetDetected) {
  pfs::Pfs fs = test::memFs();
  writeIntFile(fs, "huge", 64);
  // Element 40 (node 1's slice) gets its most significant byte set: only
  // node 1 sees an exabyte-sized chunk, and it must not try to allocate it.
  fs.corruptByte("huge", sizeTableAt(fs, "huge", 64) + 8 * 40 + 7, 0xFF);
  expectRejectedOnEveryNode(fs, "huge", 64);
}

TEST(Corruption, TruncatedHeaderDetected) {
  pfs::Pfs fs = test::memFs();
  writeIntFile(fs, "hdrcut", 64);
  fs.truncateFile("hdrcut", ds::kFileHeaderBytes + 10);  // mid record header
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(64, &P, coll::DistKind::Block);
    ds::IStream s(fs, &d, "hdrcut");
    s.read();
  }),
               FormatError);
}

TEST(Corruption, ExtractOverrunWithinElementThrows) {
  // Extraction sequence mismatching the insert sequence runs off the end of
  // the element's byte range — caught by the per-element bounds check.
  struct Small {
    int a = 0;
  };
  struct Big {
    int a = 0;
    double b = 0.0;
    double c = 0.0;
  };
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<Small> g(&d);
    ds::OStream s(fs, &d, "small");
    s << g.field(&Small::a);
    s.write();
  });
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<Big> g(&d);
    ds::IStream s(fs, &d, "small");
    s.read();
    // Same tag kind (Field/int) would be required; extracting a double
    // field where an int was written trips the type check; extracting an
    // int field then MORE data trips the bounds check. Use the bounds path:
    s >> g.field(&Big::a);      // consumes the 4 bytes
    s >> g.field(&Big::b);      // no corresponding insert
  }),
               UsageError);
}

TEST(Corruption, InjectedReadFaultDuringRecordRead) {
  pfs::Pfs fs = test::memFs();
  writeIntFile(fs, "flaky", 32);
  std::atomic<int> readOps{0};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Read && readOps.fetch_add(1) == 2) {
      throw IoError("injected transient read failure");
    }
  });
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(32, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream s(fs, &d, "flaky");
    s.read();
    s >> g;
  }),
               Error);
  // After clearing the fault the same file reads fine (data intact).
  fs.setFaultHook(nullptr);
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(32, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream s(fs, &d, "flaky");
    s.read();
    s >> g;
    g.forEachLocal([&](int& v, std::int64_t i) {
      if (v != static_cast<int>(i)) bad.fetch_add(1);
    });
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Corruption, WriteFaultLeavesStreamUsableAfterRetryFileRecreate) {
  pfs::Pfs fs = test::memFs();
  bool arm = true;
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (arm && op.kind == pfs::OpKind::Write) {
      throw IoError("injected write failure");
    }
  });
  rt::Machine m(2);
  EXPECT_THROW(writeIntFile(fs, "retry", 8), IoError);
  arm = false;
  EXPECT_NO_THROW(writeIntFile(fs, "retry", 8));
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream s(fs, &d, "retry");
    s.read();
    s >> g;
    g.forEachLocal([&](int& v, std::int64_t i) {
      if (v != static_cast<int>(i)) bad.fetch_add(1);
    });
  });
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
