// Unit tests for the CRC-32 checksum.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/util/crc32.h"

namespace {

using namespace pcxx;

std::uint32_t crcOfString(const std::string& s) {
  return crc32({reinterpret_cast<const Byte*>(s.data()), s.size()});
}

TEST(Crc32, MatchesKnownVectors) {
  // Standard IEEE 802.3 CRC-32 test vectors.
  EXPECT_EQ(crcOfString(""), 0x00000000u);
  EXPECT_EQ(crcOfString("123456789"), 0xCBF43926u);
  EXPECT_EQ(crcOfString("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const std::string s = "abcdefghijklmnopqrstuvwxyz0123456789";
  Crc32 inc;
  for (size_t i = 0; i < s.size(); i += 5) {
    const size_t n = std::min<size_t>(5, s.size() - i);
    inc.update({reinterpret_cast<const Byte*>(s.data()) + i, n});
  }
  EXPECT_EQ(inc.value(), crcOfString(s));
}

TEST(Crc32, DetectsSingleBitFlip) {
  ByteBuffer data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<Byte>(i);
  const std::uint32_t clean = crc32(data);
  for (size_t pos : {size_t{0}, size_t{100}, size_t{255}}) {
    data[pos] ^= 0x01;
    EXPECT_NE(crc32(data), clean) << "flip at " << pos << " undetected";
    data[pos] ^= 0x01;
  }
}

TEST(Crc32, OrderMatters) {
  EXPECT_NE(crcOfString("ab"), crcOfString("ba"));
}

// ---- kernel equivalence ----------------------------------------------------

/// One bit at a time: the definition every kernel must agree with.
std::uint32_t bitwiseUpdate(std::uint32_t state, const Byte* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int b = 0; b < 8; ++b) {
      state = (state & 1u) ? (state >> 1) ^ 0xEDB88320u : state >> 1;
    }
  }
  return state;
}

std::uint32_t bitwiseCrc(const Byte* p, size_t n) {
  return bitwiseUpdate(0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu;
}

ByteBuffer randomBytes(size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ByteBuffer out(n);
  for (auto& b : out) b = static_cast<Byte>(rng());
  return out;
}

TEST(Crc32Kernels, EveryLengthAndOffsetAgreeWithBitwise) {
  constexpr size_t kMaxLen = 4096;
  const ByteBuffer pattern = randomBytes(kMaxLen, 1);
  // want[n] = bitwise CRC of the first n pattern bytes, built incrementally.
  std::vector<std::uint32_t> want(kMaxLen + 1);
  std::uint32_t state = 0xFFFFFFFFu;
  want[0] = 0;
  for (size_t n = 1; n <= kMaxLen; ++n) {
    state = bitwiseUpdate(state, &pattern[n - 1], 1);
    want[n] = state ^ 0xFFFFFFFFu;
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n = 0; n <= kMaxLen; ++n) {
      // Exactly offset + n bytes on the heap, so ASan flags any over-read.
      const auto buf = std::make_unique<Byte[]>(offset + n);
      Byte* p = buf.get() + offset;
      std::copy_n(pattern.begin(), n, p);
      const std::span<const Byte> data(p, n);
      ASSERT_EQ(crc32(data), want[n]) << "len " << n << " offset " << offset;
      ASSERT_EQ(detail::crc32Table(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu, want[n])
          << "len " << n << " offset " << offset;
    }
  }
}

TEST(Crc32Kernels, FoldKernelMatchesTableKernel) {
  if (!detail::crc32FoldAvailable()) {
    GTEST_SKIP() << "no PCLMULQDQ on this host";
  }
  const ByteBuffer data = randomBytes(4096 + 15, 2);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n = 64; offset + n <= data.size(); n += 16) {
      const std::span<const Byte> s(data.data() + offset, n);
      for (const std::uint32_t state : {0xFFFFFFFFu, 0u, 0x12345678u}) {
        ASSERT_EQ(detail::crc32Fold(state, s), detail::crc32Table(state, s))
            << "len " << n << " offset " << offset;
      }
    }
  }
}

TEST(Crc32Kernels, RandomLongLengthsAgree) {
  std::mt19937_64 rng(3);
  const ByteBuffer data = randomBytes(4u << 20, 4);
  for (int i = 0; i < 24; ++i) {
    const size_t n = static_cast<size_t>(rng() % (data.size() + 1));
    const size_t offset = static_cast<size_t>(rng() % (data.size() - n + 1));
    const std::span<const Byte> s(data.data() + offset, n);
    const std::uint32_t table = detail::crc32Table(0xFFFFFFFFu, s) ^ 0xFFFFFFFFu;
    EXPECT_EQ(crc32(s), table) << "len " << n << " offset " << offset;
    if (i < 4) {
      EXPECT_EQ(bitwiseCrc(s.data(), n), table) << "len " << n;
    }
  }
}

TEST(Crc32Kernels, UpdateSplitAtEveryPointMatchesOneShot) {
  const ByteBuffer data = randomBytes(1024, 5);
  const std::uint32_t whole = bitwiseCrc(data.data(), data.size());
  const std::span<const Byte> all(data);
  for (size_t split = 0; split <= 256; ++split) {
    Crc32 c;
    c.update(all.first(split));
    c.update(all.subspan(split));
    ASSERT_EQ(c.value(), whole) << "split at " << split;
  }
}

// ---- crc32Combine ----------------------------------------------------------

/// The GF(2) 32x32 matrix construction crc32Combine used before its
/// x^(2^k) table: kept here as an independent reference.
std::uint32_t matrixCombine(std::uint32_t crcA, std::uint32_t crcB,
                            std::uint64_t lenB) {
  using GfMatrix = std::array<std::uint32_t, 32>;
  const auto times = [](const GfMatrix& m, std::uint32_t vec) {
    std::uint32_t sum = 0;
    for (size_t i = 0; vec != 0; ++i, vec >>= 1) {
      if (vec & 1u) sum ^= m[i];
    }
    return sum;
  };
  const auto square = [&](const GfMatrix& m) {
    GfMatrix out;
    for (size_t i = 0; i < 32; ++i) out[i] = times(m, m[i]);
    return out;
  };
  if (lenB == 0) return crcA;
  GfMatrix odd;  // advance the CRC state by one zero bit
  odd[0] = 0xEDB88320u;
  for (size_t i = 1; i < 32; ++i) odd[i] = 1u << (i - 1);
  GfMatrix even = square(odd);
  odd = square(even);
  do {
    even = square(odd);
    if (lenB & 1u) crcA = times(even, crcA);
    lenB >>= 1;
    if (lenB == 0) break;
    odd = square(even);
    if (lenB & 1u) crcA = times(odd, crcA);
    lenB >>= 1;
  } while (lenB != 0);
  return crcA ^ crcB;
}

TEST(Crc32Combine, MatchesMatrixReferenceOnRandomInputs) {
  std::mt19937_64 rng(6);
  std::vector<std::uint64_t> lens = {0, 1, 7, 8, 4096, (1ull << 29) - 1,
                                     1ull << 32, (1ull << 32) + 3,
                                     ~std::uint64_t{0}};
  for (int i = 0; i < 200; ++i) {
    // Mix short lengths with ones spanning all 64 bits.
    lens.push_back(i % 2 == 0 ? rng() % 100000 : rng() >> (rng() % 64));
  }
  for (const std::uint64_t len : lens) {
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(crc32Combine(a, b, len), matrixCombine(a, b, len))
        << "len " << len;
  }
}

}  // namespace
