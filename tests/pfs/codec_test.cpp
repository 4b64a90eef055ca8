// Chunk-codec stage (pfs::CodecStorage): LZ block codec round trips,
// logical byte-space equivalence against a plain MemStorage model,
// reattach/scan recovery, dedup (in-file and cross-file) with ref
// materialization, the codec-off byte-identity golden, and the obs
// accounting contract.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/pfs/codec.h"
#include "src/util/crc32.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

// Deterministic bytes: compressible (repetitive runs) or noisy.
ByteBuffer patternBytes(size_t n, std::uint64_t seed, bool compressible) {
  ByteBuffer out(n);
  std::uint64_t s = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    if (compressible) {
      out[i] = static_cast<Byte>((i / 23 + seed) & 0x0f);
    } else {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      out[i] = static_cast<Byte>(s >> 56);
    }
  }
  return out;
}

TEST(LzCodec, CompressibleRoundtrip) {
  for (const size_t n : {16u, 100u, 4096u, 70000u}) {
    const ByteBuffer src = patternBytes(n, n, /*compressible=*/true);
    ByteBuffer packed;
    ASSERT_TRUE(pfs::lzCompress(src, packed)) << n;
    EXPECT_LT(packed.size(), src.size()) << n;
    EXPECT_EQ(pfs::lzDecompress(packed, src.size()), src) << n;
  }
}

TEST(LzCodec, IncompressibleInputIsRejectedNotMangled) {
  ByteBuffer packed;
  // Too short to ever pay for tokens.
  EXPECT_FALSE(pfs::lzCompress(patternBytes(8, 1, true), packed));
  // High-entropy bytes: no 4-byte repeats worth a match.
  EXPECT_FALSE(pfs::lzCompress(patternBytes(4096, 7, false), packed));
}

TEST(LzCodec, DecompressRejectsMalformedInput) {
  const ByteBuffer src = patternBytes(4096, 3, true);
  ByteBuffer packed;
  ASSERT_TRUE(pfs::lzCompress(src, packed));
  // Truncations of a valid stream must throw, never read out of bounds.
  for (const size_t keep : {0u, 1u, 2u, 5u}) {
    const std::span<const Byte> cut(packed.data(),
                                    std::min(keep, packed.size()));
    EXPECT_THROW(pfs::lzDecompress(cut, src.size()), FormatError) << keep;
  }
  // A wrong declared length must be detected even on an intact stream.
  EXPECT_THROW(pfs::lzDecompress(packed, src.size() - 1), FormatError);
  EXPECT_THROW(pfs::lzDecompress(packed, src.size() + 1), FormatError);
}

// The decorator must be indistinguishable from a plain byte store in the
// logical byte space: drive an identical random op sequence into both and
// compare after every step.
TEST(CodecStorage, MatchesPlainStorageModel) {
  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 256;
  auto codec = pfs::CodecStorage::create(inner, spec, nullptr);
  pfs::MemStorage model;

  std::uint64_t s = 12345;
  const auto rnd = [&s](std::uint64_t mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return (s >> 33) % mod;
  };
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rnd(10);
    if (op < 5) {  // write: random offset/len, mixed compressibility
      const std::uint64_t off = rnd(4096);
      const ByteBuffer data =
          patternBytes(1 + rnd(700), s, rnd(2) == 0);
      codec->writeAt(off, data);
      model.writeAt(off, data);
    } else if (op < 8) {  // read: compare content + short-read behaviour
      const std::uint64_t off = rnd(5000);
      ByteBuffer a(1 + rnd(900)), b(a.size());
      const std::uint64_t ga = codec->readAt(off, a);
      const std::uint64_t gb = model.readAt(off, b);
      ASSERT_EQ(ga, gb) << "step " << step;
      ASSERT_EQ(a, b) << "step " << step;
    } else {  // truncate: shrink or extend (zero fill)
      const std::uint64_t target = rnd(4500);
      codec->truncate(target);
      model.truncate(target);
    }
    ASSERT_EQ(codec->size(), model.size()) << "step " << step;
  }
  // Final full-content sweep.
  ByteBuffer a(static_cast<size_t>(codec->size()));
  ByteBuffer b(a.size());
  EXPECT_EQ(codec->readAt(0, a), a.size());
  EXPECT_EQ(model.readAt(0, b), b.size());
  EXPECT_EQ(a, b);
}

TEST(CodecStorage, ReattachRecoversSizeAndContent) {
  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 128;
  ByteBuffer expect;
  {
    auto codec = pfs::CodecStorage::create(inner, spec, nullptr);
    const ByteBuffer data = patternBytes(1000, 4, true);
    codec->writeAt(0, data);
    // Sparse tail: truncate-extend leaves a hole that must survive the
    // reattach scan as zeros, and must pin the logical size.
    codec->truncate(1500);
    expect.assign(1500, Byte{0});
    std::copy(data.begin(), data.end(), expect.begin());
  }
  auto back = pfs::CodecStorage::attach(inner, nullptr);
  EXPECT_EQ(back->spec().chunkBytes, 128u);
  ASSERT_EQ(back->size(), expect.size());
  ByteBuffer got(expect.size());
  EXPECT_EQ(back->readAt(0, got), got.size());
  EXPECT_EQ(got, expect);
}

TEST(CodecStorage, WrapHelperDetectsFraming) {
  auto framedInner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  {
    auto codec = pfs::CodecStorage::create(framedInner, spec, nullptr);
    codec->writeAt(0, patternBytes(100, 9, true));
  }
  EXPECT_TRUE(pfs::CodecStorage::isFramed(*framedInner));
  auto wrapped = pfs::wrapCodecIfFramed(framedInner);
  EXPECT_NE(wrapped.get(), framedInner.get());
  EXPECT_EQ(wrapped->size(), 100u);

  auto plain = std::make_shared<pfs::MemStorage>();
  plain->writeAt(0, patternBytes(100, 9, true));
  EXPECT_FALSE(pfs::CodecStorage::isFramed(*plain));
  EXPECT_EQ(pfs::wrapCodecIfFramed(plain).get(), plain.get());
}

TEST(CodecStorage, InFileDedupAndMaterialization) {
  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  auto codec = pfs::CodecStorage::create(inner, spec, nullptr);

  const ByteBuffer chunkA = patternBytes(64, 11, true);
  const ByteBuffer chunkB = patternBytes(64, 22, true);
  codec->writeAt(0, chunkA);
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  codec->writeAt(64, chunkA);  // identical full chunk -> ref frame
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore + 1);

  // Overwriting the ref TARGET must first materialize the ref: chunk 1
  // keeps reading the old content after chunk 0 changes.
  codec->writeAt(0, chunkB);
  ByteBuffer got(64);
  ASSERT_EQ(codec->readAt(64, got), 64u);
  EXPECT_EQ(got, chunkA);
  ASSERT_EQ(codec->readAt(0, got), 64u);
  EXPECT_EQ(got, chunkB);

  // And the state must survive a reattach (the scan sees a data frame
  // where the ref was materialized).
  auto back = pfs::CodecStorage::attach(inner, nullptr);
  ASSERT_EQ(back->readAt(64, got), 64u);
  EXPECT_EQ(got, chunkA);
}

TEST(CodecStorage, CrossFileDedupVerifiesBaseContentOnRead) {
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  const ByteBuffer shared = patternBytes(64, 5, true);

  auto baseInner = std::make_shared<pfs::MemStorage>();
  {
    auto base = pfs::CodecStorage::create(baseInner, spec, nullptr);
    base->writeAt(0, shared);
  }

  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec withBase = spec;
  withBase.dedupBase = "epoch.0";
  auto codec = pfs::CodecStorage::create(inner, withBase, baseInner);
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  codec->writeAt(0, shared);
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore + 1);
  ByteBuffer got(64);
  ASSERT_EQ(codec->readAt(0, got), 64u);
  EXPECT_EQ(got, shared);

  // Mutating the base must surface as DETECTED damage in the referring
  // file (content-hash re-verification), never as silently wrong bytes.
  {
    auto base = pfs::CodecStorage::attach(baseInner, nullptr);
    base->writeAt(0, patternBytes(64, 6, true));
  }
  auto reopened = pfs::CodecStorage::attach(inner, baseInner);
  const std::uint64_t damagedBefore = pfs::codecThreadStats().damagedChunks;
  ASSERT_EQ(reopened->readAt(0, got), 64u);
  EXPECT_EQ(got, ByteBuffer(64, Byte{0}));
  EXPECT_GT(pfs::codecThreadStats().damagedChunks, damagedBefore);
}

// Every physical byte the inner store holds.
ByteBuffer innerBytes(pfs::StorageBackend& inner) {
  ByteBuffer out(static_cast<size_t>(inner.size()));
  EXPECT_EQ(inner.readAt(0, out), out.size());
  return out;
}

// The live bytes of a framed store: the file header, then each frame's
// header and stored payload. The rest of a frame's reserved region keeps
// whatever an earlier, longer payload of that chunk left there.
ByteBuffer liveFrameBytes(pfs::CodecStorage& codec) {
  const ByteBuffer all = innerBytes(codec.inner());
  ByteBuffer out(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                                 codec.frameOffset(0)));
  for (std::uint64_t i = 0; codec.frameOffset(i) < all.size(); ++i) {
    const size_t at = static_cast<size_t>(codec.frameOffset(i));
    const size_t header = std::min<size_t>(
        pfs::CodecStorage::kFrameHeaderBytes, all.size() - at);
    const size_t stored =
        header == pfs::CodecStorage::kFrameHeaderBytes
            ? decodeU32(all.data() + at + 20)
            : 0;
    const size_t end = std::min(all.size(), at + header + stored);
    out.insert(out.end(), all.begin() + static_cast<std::ptrdiff_t>(at),
               all.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

// The framed bytes of one fixed single-writer sequence are part of the
// format: whole chunks, a partial boundary write, an in-file duplicate, a
// base duplicate, an overwrite of an own-ref target (materialization) and a
// growing and a shrinking truncate. Any change to frame choice, frame
// order or encoding moves the CRC below.
TEST(CodecStorage, FramedBytesOfAFixedSequenceArePinned) {
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 256;
  const ByteBuffer baseChunk = patternBytes(256, 31, true);
  auto baseInner = std::make_shared<pfs::MemStorage>();
  {
    auto base = pfs::CodecStorage::create(baseInner, spec, nullptr);
    base->writeAt(0, patternBytes(256, 30, false));
    base->writeAt(256, baseChunk);
  }

  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec withBase = spec;
  withBase.dedupBase = "pinned.base";
  auto codec = pfs::CodecStorage::create(inner, withBase, baseInner);
  pfs::MemStorage model;
  const auto write = [&](std::uint64_t off, const ByteBuffer& data) {
    codec->writeAt(off, data);
    model.writeAt(off, data);
  };
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  ByteBuffer whole = patternBytes(3 * 256, 32, true);
  const ByteBuffer noisy = patternBytes(256, 33, false);
  whole.insert(whole.end(), noisy.begin(), noisy.end());
  write(0, whole);  // chunks 0-3, whole
  write(3 * 256 + 100, patternBytes(300, 34, true));  // straddles 3 | 4
  const ByteBuffer chunk0(whole.begin(), whole.begin() + 256);
  write(5 * 256, chunk0);     // in-file duplicate of chunk 0 -> own ref
  write(6 * 256, baseChunk);  // duplicate of base chunk 1 -> base ref
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore + 2);
  write(0, patternBytes(256, 35, false));  // ref target: materialize 5
  codec->truncate(10 * 256 + 50);
  model.truncate(10 * 256 + 50);
  codec->truncate(7 * 256 + 17);
  model.truncate(7 * 256 + 17);

  ByteBuffer got(static_cast<size_t>(model.size()));
  ByteBuffer want(got.size());
  ASSERT_EQ(codec->size(), model.size());
  ASSERT_EQ(codec->readAt(0, got), got.size());
  ASSERT_EQ(model.readAt(0, want), want.size());
  EXPECT_EQ(got, want);
  EXPECT_EQ(crc32(innerBytes(*inner)), 0x08ea3b58u);
}

// Concurrent writers of disjoint ranges must leave exactly the frames a
// serial replay of the same writes leaves, and readers of ranges already
// written must see them exactly while the other writers run. The file is
// presized, so every chunk's rawBytes is the same in any order; no content
// repeats within the file, so no own ref depends on write order; a dedup
// base holds copies of some whole and some boundary chunks. Labelled
// stress, so the TSan leg runs it.
TEST(CodecStorageConcurrency, DisjointWritersMatchASerialReplay) {
  constexpr std::uint64_t kChunk = 512;
  constexpr std::uint64_t kTotal = 160 * kChunk + 77;
  constexpr int kWriters = 4;
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = static_cast<std::uint32_t>(kChunk);

  // The final image: runs of random bytes (compressible) in some places,
  // noise in others, never repeating a chunk.
  std::uint64_t s = 777;
  const auto rnd = [&s](std::uint64_t mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return (s >> 33) % mod;
  };
  ByteBuffer image(kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    const bool runs = (i / (3 * kChunk)) % 2 == 0;
    if (!runs || i % 8 == 0) image[i] = static_cast<Byte>(rnd(256));
    else image[i] = image[i - 1];
  }

  // Disjoint segments: chunk-aligned runs of whole chunks, and ragged
  // blocks whose ends share a chunk with the neighbouring segment.
  struct Segment {
    std::uint64_t offset;
    std::uint64_t length;
  };
  std::vector<std::vector<Segment>> plan(kWriters);
  for (std::uint64_t pos = 0, k = 0; pos < kTotal; ++k) {
    const std::uint64_t len =
        pos % kChunk == 0 && rnd(2) == 0 ? (1 + rnd(4)) * kChunk
                                         : 1 + rnd(3 * kChunk);
    const std::uint64_t take = std::min(len, kTotal - pos);
    plan[k % kWriters].push_back({pos, take});
    pos += take;
  }

  // The base holds every seventh chunk of the image, shifted by one index.
  auto baseInner = std::make_shared<pfs::MemStorage>();
  std::uint64_t baseCopies = 0;
  std::uint64_t sharedCopies = 0;  // of which two segments write the chunk
  {
    auto base = pfs::CodecStorage::create(baseInner, spec, nullptr);
    for (std::uint64_t i = 0; (i + 1) * kChunk <= kTotal; i += 7) {
      base->writeAt((i / 7 + 1) * kChunk,
                    std::span<const Byte>(image.data() + i * kChunk, kChunk));
      ++baseCopies;
      bool whole = false;
      for (const auto& segments : plan)
        for (const Segment& g : segments)
          whole |= g.offset <= i * kChunk &&
                   g.offset + g.length >= (i + 1) * kChunk;
      if (!whole) ++sharedCopies;
    }
  }
  ASSERT_GT(sharedCopies, 0u);
  pfs::CodecSpec withBase = spec;
  withBase.dedupBase = "stress.base";
  const auto fresh = [&](std::shared_ptr<pfs::MemStorage> inner) {
    auto codec = pfs::CodecStorage::create(inner, withBase, baseInner);
    codec->truncate(kTotal);
    return codec;
  };
  const auto segmentBytes = [&](const Segment& g) {
    return std::span<const Byte>(image.data() + g.offset, g.length);
  };

  auto inner = std::make_shared<pfs::MemStorage>();
  auto codec = fresh(inner);
  std::array<std::atomic<size_t>, kWriters> published{};
  std::atomic<int> writersLeft{kWriters};
  std::atomic<int> badReads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (const Segment& g : plan[w]) {
        codec->writeAt(g.offset, segmentBytes(g));
        published[w].fetch_add(1, std::memory_order_release);
      }
      --writersLeft;
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t rs = 99 + r;
      for (int i = 0; i < 64 || writersLeft.load() > 0; ++i) {
        rs = rs * 6364136223846793005ULL + 1442695040888963407ULL;
        const int w = static_cast<int>((rs >> 33) % kWriters);
        const size_t done = published[w].load(std::memory_order_acquire);
        if (done == 0) continue;
        const Segment& g = plan[w][(rs >> 40) % done];
        ByteBuffer out(g.length);
        const std::span<const Byte> want = segmentBytes(g);
        if (codec->readAt(g.offset, out) != g.length ||
            !std::equal(out.begin(), out.end(), want.begin()))
          ++badReads;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(badReads.load(), 0);

  auto serialInner = std::make_shared<pfs::MemStorage>();
  auto serial = fresh(serialInner);
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  for (const auto& segments : plan)
    for (const Segment& g : segments) serial->writeAt(g.offset, segmentBytes(g));
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore + baseCopies);
  ByteBuffer got(kTotal);
  ASSERT_EQ(codec->readAt(0, got), kTotal);
  EXPECT_EQ(got, image);
  // Every frame's header and payload match; only the slack behind a
  // rewritten boundary chunk's payload depends on which writer came first.
  EXPECT_TRUE(liveFrameBytes(*codec) == liveFrameBytes(*serial));
}

// ---------------------------------------------------------------------------
// Pfs / d-stream integration
// ---------------------------------------------------------------------------

class CodecFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("PCXX_CODEC");
    dir_ = std::filesystem::temp_directory_path() /
           ("pcxx_codec_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    ::unsetenv("PCXX_CODEC");
    std::filesystem::remove_all(dir_);
  }

  pfs::Pfs posixFs() {
    pfs::PfsConfig cfg;
    cfg.backend = pfs::PfsConfig::Backend::Posix;
    cfg.dir = dir_.string();
    return pfs::Pfs(cfg);
  }

  void writeStream(pfs::Pfs& fs, const std::string& name,
                   const ds::StreamOptions& so = {}) {
    test::runSpmd(2, [&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(64, &P, coll::DistKind::Block);
      coll::Collection<double> g(&d);
      ds::OStream s(fs, &d, name, so);
      for (int r = 0; r < 2; ++r) {
        g.forEachLocal([r](double& v, std::int64_t i) {
          v = static_cast<double>(r);  // compressible payload
          (void)i;
        });
        s << g;
        s.write();
      }
    });
  }

  ByteBuffer fileBytes(const std::string& name) {
    std::ifstream in(dir_ / name, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string s = ss.str();
    ByteBuffer out(s.size());
    std::copy(s.begin(), s.end(), reinterpret_cast<char*>(out.data()));
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(CodecFiles, CodecNoneIsByteIdenticalToDefaultFormat) {
  pfs::Pfs fs = posixFs();
  writeStream(fs, "g0.ds");  // default: no codec configured anywhere
  ds::StreamOptions none;
  none.codec = "none";
  writeStream(fs, "g1.ds", none);
  const ByteBuffer a = fileBytes("g0.ds");
  const ByteBuffer b = fileBytes("g1.ds");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // And neither carries codec framing.
  EXPECT_NE(std::string(reinterpret_cast<const char*>(a.data()), 8),
            "PCXXCDC1");
}

TEST_F(CodecFiles, LzFramedFileReadsBackIdentical) {
  pfs::Pfs fs = posixFs();
  writeStream(fs, "plain.ds");
  ds::StreamOptions lz;
  lz.codec = "lz";
  lz.codecChunkBytes = 1024;
  writeStream(fs, "framed.ds", lz);

  const ByteBuffer framed = fileBytes("framed.ds");
  ASSERT_GE(framed.size(), 8u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(framed.data()), 8),
            "PCXXCDC1");

  // Logical bytes (what any reader sees) are identical to the plain file.
  const ByteBuffer plain = fileBytes("plain.ds");
  test::runSpmd(2, [&](rt::Node& node) {
    auto f = fs.open(node, "framed.ds", pfs::OpenMode::Read);
    ASSERT_EQ(f->size(), plain.size());
    ByteBuffer logical(plain.size());
    EXPECT_EQ(f->readAt(node, 0, logical), logical.size());
    EXPECT_EQ(logical, plain);
  });

  // The repetitive payload must actually shrink on the wire.
  EXPECT_LT(fs.storedFileSize("framed.ds"),
            fs.storedFileSize("plain.ds") +
                pfs::CodecStorage::kFileHeaderBytes);
}

TEST_F(CodecFiles, EnvVariableForcesAndSuppressesFraming) {
  {
    ::setenv("PCXX_CODEC", "lz", 1);
    pfs::Pfs fs = posixFs();  // env parsed at construction
    writeStream(fs, "forced.ds");
    const ByteBuffer raw = fileBytes("forced.ds");
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(raw.data()), 8),
              "PCXXCDC1");
  }
  {
    ::setenv("PCXX_CODEC", "off", 1);
    pfs::Pfs fs = posixFs();
    ds::StreamOptions lz;
    lz.codec = "lz";  // kill switch beats the per-stream request
    writeStream(fs, "killed.ds", lz);
    const ByteBuffer raw = fileBytes("killed.ds");
    EXPECT_NE(std::string(reinterpret_cast<const char*>(raw.data()), 8),
              "PCXXCDC1");
  }
}

TEST_F(CodecFiles, ObsCountersAccountForCodecTraffic) {
  obs::MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;

  pfs::PfsConfig cfg;  // memory backend
  cfg.codec.enabled = true;
  cfg.codec.chunkBytes = 1024;
  pfs::Pfs fs(cfg);
  rt::Machine m(2);
  m.attachObserver(observer);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(64, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    g.forEachLocal([](double& v, std::int64_t) { v = 1.0; });
    ds::OStream s(fs, &d, "obs.ds");
    s << g;
    s.write();
    coll::Collection<double> back(&d);
    ds::IStream in(fs, &d, "obs.ds");
    in.read();
    in >> back;
  });

#if PCXX_OBS_ENABLED  // PCXX_OBS=OFF compiles the counters out
  const obs::NodeSnapshot merged = reg.snapshot().merged;
  const std::uint64_t raw =
      merged.counter(obs::Counter::PfsCodecRawBytes);
  const std::uint64_t stored =
      merged.counter(obs::Counter::PfsCodecStoredBytes);
  EXPECT_GT(raw, 0u);
  EXPECT_GT(stored, 0u);
  EXPECT_LT(stored, raw);  // repetitive doubles compress
  EXPECT_EQ(merged.counter(obs::Counter::PfsCodecDamagedChunks), 0u);
#endif
}

TEST_F(CodecFiles, CheckpointDedupAcrossEpochsStoresRefsAndRestores) {
  obs::MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;
  pfs::Pfs fs = test::memFs();
  ds::CheckpointOptions co;
  co.baseName = "ckpt";
  co.dedupAcrossEpochs = true;
  co.keepLast = 1;

  rt::Machine m(2);
  m.attachObserver(observer);
  m.run([&](rt::Node& node) {
    coll::Processors P;
    // Large enough that whole 64 KiB chunks repeat across epochs (dedup
    // only ever replaces FULL chunks).
    coll::Distribution d(1 << 16, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, co);
    // Epoch 0, then an epoch 1 with identical content: cross-epoch dedup
    // should replace nearly every data chunk with a reference.
    data.forEachLocal([](double& v, std::int64_t g) {
      v = static_cast<double>(g % 7);
    });
    mgr.save(data);
    mgr.save(data);

    coll::Collection<double> back(&d);
    ds::CheckpointManager fresh(fs, co);
    EXPECT_EQ(fresh.restoreLatest(back), 1);
    std::int64_t bad = 0;
    back.forEachLocal([&](double& v, std::int64_t g) {
      if (v != static_cast<double>(g % 7)) ++bad;
    });
    EXPECT_EQ(bad, 0);
    if (node.id() == 0) {
      // Dedup retention: epoch 0 (the reference target) must survive
      // keepLast = 1.
      EXPECT_TRUE(fs.exists("ckpt.0"));
      EXPECT_TRUE(fs.exists("ckpt.1"));
    }
  });
#if PCXX_OBS_ENABLED  // PCXX_OBS=OFF compiles the counters out
  // Epoch 1 stored references instead of payload for its repeated chunks.
  EXPECT_GT(reg.snapshot().merged.counter(obs::Counter::PfsCodecDedupHits),
            0u);
#endif
}

}  // namespace
