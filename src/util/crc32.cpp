#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PCXX_CRC32_FOLD 1
#include <immintrin.h>
#else
#define PCXX_CRC32_FOLD 0
#endif

namespace pcxx {
namespace {

// Slicing-by-8: eight derived tables let the table kernel consume 8 input
// bytes per iteration instead of one — the standard fast software CRC.
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

SliceTables makeTables() {
  SliceTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (size_t slice = 1; slice < 8; ++slice) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[slice][i] = c;
    }
  }
  return t;
}

const SliceTables& tables() {
  static const SliceTables t = makeTables();
  return t;
}

#if PCXX_CRC32_FOLD

#define PCXX_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

PCXX_CLMUL_TARGET inline __m128i load(const Byte* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// x.hi * k.hi ^ x.lo * k.lo ^ next: one fold of a lane over 128 bits.
PCXX_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// PCLMULQDQ folding (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// bit-reflected constants for the IEEE polynomial that zlib and Chromium
// use. Four 128-bit lanes fold 64 bytes per iteration; the lanes are then
// folded into one, the remaining 16-byte blocks folded in, and the 128-bit
// remainder reduced to 32 bits (fold to 64, then Barrett). `n` must be a
// multiple of 16 and at least 64; `state` is the raw CRC register.
PCXX_CLMUL_TARGET std::uint32_t foldKernel(std::uint32_t state, const Byte* p,
                                           size_t n) {
  alignas(16) static const std::uint64_t k1k2[] = {0x154442bd4, 0x1c6e41596};
  alignas(16) static const std::uint64_t k3k4[] = {0x1751997d0, 0x0ccaa009e};
  alignas(16) static const std::uint64_t k5k0[] = {0x163cd6124, 0};
  alignas(16) static const std::uint64_t poly[] = {0x1db710641, 0x1f7011641};

  __m128i x1 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k, load(p));
    x2 = fold(x2, k, load(p + 16));
    x3 = fold(x3, k, load(p + 32));
    x4 = fold(x4, k, load(p + 48));
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k, load(p));

  // 128 -> 64 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction 64 -> 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#undef PCXX_CLMUL_TARGET

bool detectFold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

const bool kFoldAvailable = detectFold();

#else

constexpr bool kFoldAvailable = false;

#endif

}  // namespace

namespace detail {

std::uint32_t crc32Table(std::uint32_t state, std::span<const Byte> data) {
  const SliceTables& t = tables();
  const Byte* p = data.data();
  size_t n = data.size();
  std::uint32_t c = state;

  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    ++p;
    --n;
  }
  return c;
}

bool crc32FoldAvailable() { return kFoldAvailable; }

std::uint32_t crc32Fold(std::uint32_t state, std::span<const Byte> data) {
#if PCXX_CRC32_FOLD
  return foldKernel(state, data.data(), data.size());
#else
  (void)data;
  return state;
#endif
}

}  // namespace detail

void Crc32::update(std::span<const Byte> data) {
  if (kFoldAvailable && data.size() >= 64) {
    const size_t bulk = data.size() & ~size_t{15};
    state_ = detail::crc32Fold(state_, data.first(bulk));
    data = data.subspan(bulk);
  }
  state_ = detail::crc32Table(state_, data);
}

std::uint32_t crc32(std::span<const Byte> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

namespace {

// GF(2) polynomial arithmetic modulo the reflected CRC polynomial (zlib's
// multmodp/x2nmodp). In the reflected bit order, bit 31 is x^0.
constexpr std::uint32_t kPoly = 0xEDB88320u;

constexpr std::uint32_t multModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// kX2n[k] = x^(2^k) mod P. The multiplicative order of x modulo P divides
// 2^32 - 1, so x^(2^32) = x and the table repeats with period 32.
constexpr std::array<std::uint32_t, 32> makeX2n() {
  std::array<std::uint32_t, 32> t{};
  t[0] = 1u << 30;  // x^1
  for (size_t k = 1; k < t.size(); ++k) t[k] = multModP(t[k - 1], t[k - 1]);
  return t;
}

constexpr std::array<std::uint32_t, 32> kX2n = makeX2n();

}  // namespace

std::uint32_t crc32Combine(std::uint32_t crcA, std::uint32_t crcB,
                           std::uint64_t lenB) {
  // Appending lenB bytes multiplies crcA by x^(8 * lenB) mod P: one table
  // factor per set bit of lenB, starting at x^(2^3) for the byte's 8 bits.
  if (lenB == 0) return crcA;
  std::uint32_t shift = 1u << 31;  // x^0
  for (size_t k = 3; lenB != 0; lenB >>= 1, ++k) {
    if (lenB & 1u) shift = multModP(kX2n[k & 31], shift);
  }
  return multModP(shift, crcA) ^ crcB;
}

}  // namespace pcxx
