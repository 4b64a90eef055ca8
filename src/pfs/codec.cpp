// Chunk-codec stage: LZ-class block codec + the CodecStorage decorator.
// Layout and trust-boundary rules are specified in codec.h and
// docs/FORMAT.md ("Chunk codec"); keep the three in sync.
#include "pfs/codec.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>

#include "util/crc32.h"
#include "util/error.h"

namespace pcxx::pfs {
namespace {

constexpr char kFileMagic[8] = {'P', 'C', 'X', 'X', 'C', 'D', 'C', '1'};
constexpr std::uint32_t kFrameMagic = 0x46444350u;  // "PCDF" little-endian
constexpr std::uint32_t kCodecVersion = 1;
constexpr std::uint32_t kMaxBaseNameBytes = 4096;
constexpr std::uint32_t kMinChunkBytes = 64;
constexpr std::uint32_t kMaxChunkBytes = 1u << 30;
constexpr std::uint8_t kKindData = 0;
constexpr std::uint8_t kKindRef = 1;
constexpr std::uint16_t kFrameFlagBaseRef = 0x0001;

thread_local CodecThreadStats g_codecTls;

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Adds its scope's wall time to the calling thread's codec seconds. The
/// timed scopes are the leaves of codec CPU work — hash, byte compare,
/// compress, decompress — and never nest.
class CodecClock {
 public:
  CodecClock() : t0_(nowSeconds()) {}
  ~CodecClock() { g_codecTls.seconds += nowSeconds() - t0_; }
  CodecClock(const CodecClock&) = delete;
  CodecClock& operator=(const CodecClock&) = delete;

 private:
  double t0_;
};

std::uint64_t fnv1a64(std::span<const Byte> data) {
  const CodecClock clock;
  std::uint64_t h = 14695981039346656037ull;
  for (const Byte b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

bool sameBytes(std::span<const Byte> a, std::span<const Byte> b) {
  const CodecClock clock;
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// Reads exactly out.size() bytes or reports failure (EOF short read).
bool readExact(StorageBackend& s, std::uint64_t offset, std::span<Byte> out) {
  return s.readAt(offset, out) == out.size();
}

}  // namespace

const CodecThreadStats& codecThreadStats() { return g_codecTls; }

// ---------------------------------------------------------------------------
// LZ-class block codec.
//
// Token stream, LZ4-flavored: each sequence is one token byte — high nibble
// literal length, low nibble (match length - 4) — each nibble extended by
// 255-run bytes when saturated, then the literals, then (unless the stream
// ends after the literals) a 2-byte little-endian match offset into the
// already-decoded output. Minimum match 4, maximum offset 65535.
// ---------------------------------------------------------------------------

bool lzCompress(std::span<const Byte> src, ByteBuffer& out) {
  out.clear();
  const std::size_t n = src.size();
  if (n < 16) return false;  // token overhead can't win on tiny inputs

  constexpr unsigned kHashBits = 13;
  constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, kNoPos);
  const auto hash4 = [&](std::size_t i) {
    std::uint32_t v;
    std::memcpy(&v, src.data() + i, 4);
    return (v * 2654435761u) >> (32u - kHashBits);
  };
  const auto emitRun = [&](std::size_t len) {
    while (len >= 255) {
      out.push_back(Byte{255});
      len -= 255;
    }
    out.push_back(static_cast<Byte>(len));
  };
  const auto emitSeq = [&](std::size_t litStart, std::size_t litLen,
                           std::size_t matchOff, std::size_t matchLen) {
    const std::size_t litTok = litLen < 15 ? litLen : 15;
    const std::size_t mTok =
        matchLen == 0 ? 0 : std::min<std::size_t>(matchLen - 4, 15);
    out.push_back(static_cast<Byte>((litTok << 4) | mTok));
    if (litTok == 15) emitRun(litLen - 15);
    out.insert(out.end(), src.begin() + litStart,
               src.begin() + litStart + litLen);
    if (matchLen != 0) {
      out.push_back(static_cast<Byte>(matchOff & 0xFF));
      out.push_back(static_cast<Byte>((matchOff >> 8) & 0xFF));
      if (mTok == 15) emitRun(matchLen - 4 - 15);
    }
  };

  out.reserve(n);
  std::size_t i = 0;
  std::size_t anchor = 0;
  const std::size_t mflimit = n - 4;  // last position a 4-byte match can start
  while (i < mflimit) {
    const auto h = hash4(i);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i);
    if (cand != kNoPos && i - cand <= 65535 &&
        std::memcmp(src.data() + cand, src.data() + i, 4) == 0) {
      std::size_t len = 4;
      while (i + len < n && src[cand + len] == src[i + len]) ++len;
      emitSeq(anchor, i - anchor, i - cand, len);
      i += len;
      anchor = i;
      if (out.size() >= n) return false;  // clearly not winning; store raw
    } else {
      ++i;
    }
  }
  emitSeq(anchor, n - anchor, 0, 0);
  return out.size() < n;
}

ByteBuffer lzDecompress(std::span<const Byte> src, std::uint64_t rawBytes) {
  ByteBuffer out;
  out.reserve(static_cast<std::size_t>(rawBytes));
  std::size_t i = 0;
  const auto need = [&](std::size_t k) {
    if (k > src.size() - i) throw FormatError("lz: truncated stream");
  };
  const auto readRun = [&](std::size_t base) {
    std::size_t len = base;
    if (base == 15) {
      for (;;) {
        need(1);
        const Byte b = src[i++];
        len += b;
        if (b != 255) break;
      }
    }
    return len;
  };
  while (i < src.size()) {
    const Byte tok = src[i++];
    const std::size_t lit = readRun(tok >> 4);
    need(lit);
    if (lit > rawBytes - out.size()) throw FormatError("lz: output overflow");
    out.insert(out.end(), src.begin() + i, src.begin() + i + lit);
    i += lit;
    if (i == src.size()) break;  // final sequence carries literals only
    need(2);
    const std::size_t off =
        std::size_t{src[i]} | (std::size_t{src[i + 1]} << 8);
    i += 2;
    if (off == 0 || off > out.size())
      throw FormatError("lz: bad match offset");
    const std::size_t mlen = readRun(tok & 0x0F) + 4;
    if (mlen > rawBytes - out.size()) throw FormatError("lz: output overflow");
    for (std::size_t k = 0; k < mlen; ++k)  // byte-wise: overlap is legal
      out.push_back(out[out.size() - off]);
  }
  if (out.size() != rawBytes) throw FormatError("lz: size mismatch");
  return out;
}

// ---------------------------------------------------------------------------
// File and frame header codecs.
// ---------------------------------------------------------------------------

namespace {

struct FileHeader {
  std::uint32_t chunkBytes = 0;
  std::uint32_t defaultCodec = 0;
  std::string baseName;
};

/// Decodes + validates the 32-byte fixed header (not the base name).
/// Returns false on anything that is not an intact codec header.
bool decodeFileHeader(StorageBackend& inner, FileHeader& out) {
  Byte h[CodecStorage::kFileHeaderBytes];
  if (!readExact(inner, 0, std::span<Byte>(h, sizeof h))) return false;
  if (std::memcmp(h, kFileMagic, sizeof kFileMagic) != 0) return false;
  if (decodeU32(h + 8) != kCodecVersion) return false;
  if (decodeU32(h + 12) != 0) return false;  // unknown flags -> not framed
  if (decodeU32(h + 28) != crc32(std::span<const Byte>(h, 28))) return false;
  out.chunkBytes = decodeU32(h + 16);
  out.defaultCodec = decodeU32(h + 20);
  const std::uint32_t nameBytes = decodeU32(h + 24);
  if (out.chunkBytes < kMinChunkBytes || out.chunkBytes > kMaxChunkBytes)
    return false;
  if (out.defaultCodec > static_cast<std::uint32_t>(CodecId::Lz)) return false;
  if (nameBytes > kMaxBaseNameBytes) return false;
  out.baseName.clear();
  if (nameBytes != 0) {
    ByteBuffer name(nameBytes);
    if (!readExact(inner, sizeof h, std::span<Byte>(name))) return false;
    out.baseName.assign(reinterpret_cast<const char*>(name.data()),
                        name.size());
  }
  return true;
}

void writeFileHeader(StorageBackend& inner, const CodecSpec& spec) {
  ByteBuffer buf(CodecStorage::kFileHeaderBytes + spec.dedupBase.size());
  std::memcpy(buf.data(), kFileMagic, sizeof kFileMagic);
  encodeU32(kCodecVersion, buf.data() + 8);
  encodeU32(0, buf.data() + 12);
  encodeU32(spec.chunkBytes, buf.data() + 16);
  encodeU32(static_cast<std::uint32_t>(spec.codec), buf.data() + 20);
  encodeU32(static_cast<std::uint32_t>(spec.dedupBase.size()),
            buf.data() + 24);
  encodeU32(crc32(std::span<const Byte>(buf.data(), 28)), buf.data() + 28);
  std::memcpy(buf.data() + CodecStorage::kFileHeaderBytes,
              spec.dedupBase.data(), spec.dedupBase.size());
  inner.writeAt(0, buf);
}

}  // namespace

struct CodecStorage::Frame {
  std::uint8_t kind = kKindData;
  std::uint8_t codecId = 0;
  std::uint16_t flags = 0;
  std::uint64_t chunkIndex = 0;
  std::uint32_t rawBytes = 0;
  std::uint32_t storedBytes = 0;
  std::uint64_t contentHash = 0;
  std::uint32_t payloadCrc = 0;

  void encode(Byte* out) const {
    encodeU32(kFrameMagic, out);
    out[4] = kind;
    out[5] = codecId;
    out[6] = static_cast<Byte>(flags & 0xFF);
    out[7] = static_cast<Byte>(flags >> 8);
    encodeU64(chunkIndex, out + 8);
    encodeU32(rawBytes, out + 16);
    encodeU32(storedBytes, out + 20);
    encodeU64(contentHash, out + 24);
    encodeU32(payloadCrc, out + 32);
    encodeU32(crc32(std::span<const Byte>(out, 36)), out + 36);
  }
};

struct CodecStorage::Prepared {
  std::uint64_t index = 0;
  std::span<const Byte> content;  // the caller keeps it alive until apply
  std::uint64_t hash = 0;
  /// Base chunk with byte-equal content. A base ref beats a data frame
  /// whenever the own probe misses, so such a chunk gets no data frame.
  std::optional<std::uint64_t> baseTarget;
  ByteBuffer dataFrame;  // header + payload; empty when baseTarget is set
};

// ---------------------------------------------------------------------------
// CodecStorage.
// ---------------------------------------------------------------------------

CodecStorage::CodecStorage(std::shared_ptr<StorageBackend> inner,
                           CodecSpec spec, std::uint64_t headerBytes,
                           std::shared_ptr<CodecStorage> base)
    : inner_(std::move(inner)),
      spec_(std::move(spec)),
      headerBytes_(headerBytes),
      base_(std::move(base)) {
  if (base_ != nullptr && base_->spec_.chunkBytes == spec_.chunkBytes)
    baseHash_ = base_->ownHash_;  // full sealed data frames only
}

bool CodecStorage::isFramed(StorageBackend& inner) {
  FileHeader h;
  return decodeFileHeader(inner, h);
}

std::string CodecStorage::baseNameOf(StorageBackend& inner) {
  FileHeader h;
  if (!decodeFileHeader(inner, h)) return "";
  return h.baseName;
}

std::shared_ptr<CodecStorage> CodecStorage::create(
    std::shared_ptr<StorageBackend> inner, const CodecSpec& spec,
    std::shared_ptr<StorageBackend> baseInner) {
  PCXX_REQUIRE(spec.chunkBytes >= kMinChunkBytes &&
                   spec.chunkBytes <= kMaxChunkBytes,
               "codec chunkBytes out of range");
  PCXX_REQUIRE(spec.dedupBase.size() <= kMaxBaseNameBytes,
               "codec dedup base name too long");
  std::shared_ptr<CodecStorage> base;
  if (baseInner != nullptr && isFramed(*baseInner)) {
    try {
      base = attach(std::move(baseInner), nullptr);
    } catch (const FormatError&) {
      base = nullptr;  // a damaged base just contributes no dedup targets
    }
  }
  inner->truncate(0);
  writeFileHeader(*inner, spec);
  const std::uint64_t headerBytes = kFileHeaderBytes + spec.dedupBase.size();
  return std::shared_ptr<CodecStorage>(new CodecStorage(
      std::move(inner), spec, headerBytes, std::move(base)));
}

std::shared_ptr<CodecStorage> CodecStorage::attach(
    std::shared_ptr<StorageBackend> inner,
    std::shared_ptr<StorageBackend> baseInner) {
  FileHeader h;
  if (!decodeFileHeader(*inner, h))
    throw FormatError("codec: file header is not intact");
  CodecSpec spec;
  spec.enabled = true;
  spec.codec = static_cast<CodecId>(h.defaultCodec);
  spec.chunkBytes = h.chunkBytes;
  spec.dedupBase = h.baseName;
  std::shared_ptr<CodecStorage> base;
  if (baseInner != nullptr && isFramed(*baseInner)) {
    try {
      base = attach(std::move(baseInner), nullptr);
    } catch (const FormatError&) {
      base = nullptr;
    }
  }
  const std::uint64_t headerBytes = kFileHeaderBytes + h.baseName.size();
  auto self = std::shared_ptr<CodecStorage>(new CodecStorage(
      std::move(inner), std::move(spec), headerBytes, std::move(base)));
  self->scanExisting();
  return self;
}

void CodecStorage::scanExisting() {
  const std::uint64_t innerSize = inner_->size();
  const std::uint64_t c = spec_.chunkBytes;
  std::uint64_t logical = 0;
  for (std::uint64_t i = 0; frameOffset(i) < innerSize; ++i) {
    Frame f;
    switch (readFrame(i, f)) {
      case FrameState::Absent:
        break;
      case FrameState::Damaged:
        // rawBytes is untrustworthy; assume a full chunk so the zeros it
        // reads as stay inside the logical extent for the record layer.
        logical = std::max(logical, i * c + c);
        break;
      case FrameState::Valid: {
        logical = std::max(logical, i * c + f.rawBytes);
        if (f.kind == kKindData && f.rawBytes == c) {
          if (ownHash_.emplace(f.contentHash, i).second)
            hashByChunk_.emplace(i, f.contentHash);
        } else if (f.kind == kKindRef && (f.flags & kFrameFlagBaseRef) == 0) {
          Byte p[8];
          if (readExact(*inner_, frameOffset(i) + kFrameHeaderBytes,
                        std::span<Byte>(p, sizeof p)) &&
              crc32(std::span<const Byte>(p, sizeof p)) == f.payloadCrc) {
            const std::uint64_t target = decodeU64(p);
            refsByTarget_.emplace(target, i);
            refTargetByChunk_.emplace(i, target);
          }
        }
        break;
      }
    }
  }
  logicalSize_ = logical;
}

CodecStorage::FrameState CodecStorage::readFrame(std::uint64_t index,
                                                 Frame& f) {
  Byte h[kFrameHeaderBytes];
  const std::uint64_t got =
      inner_->readAt(frameOffset(index), std::span<Byte>(h, sizeof h));
  if (got < sizeof h) return FrameState::Absent;  // short only at EOF
  bool allZero = true;
  for (const Byte b : h) {
    if (b != 0) {
      allZero = false;
      break;
    }
  }
  if (allZero) return FrameState::Absent;  // hole inside the file
  if (decodeU32(h) != kFrameMagic) return FrameState::Damaged;
  if (decodeU32(h + 36) != crc32(std::span<const Byte>(h, 36)))
    return FrameState::Damaged;
  f.kind = h[4];
  f.codecId = h[5];
  f.flags = static_cast<std::uint16_t>(h[6]) |
            (static_cast<std::uint16_t>(h[7]) << 8);
  f.chunkIndex = decodeU64(h + 8);
  f.rawBytes = decodeU32(h + 16);
  f.storedBytes = decodeU32(h + 20);
  f.contentHash = decodeU64(h + 24);
  f.payloadCrc = decodeU32(h + 32);
  if (f.chunkIndex != index) return FrameState::Damaged;  // relocated frame
  if (f.rawBytes == 0 || f.rawBytes > spec_.chunkBytes)
    return FrameState::Damaged;
  if (f.kind == kKindData) {
    if (f.codecId > static_cast<std::uint8_t>(CodecId::Lz))
      return FrameState::Damaged;
    if (f.storedBytes == 0 || f.storedBytes > spec_.chunkBytes)
      return FrameState::Damaged;
    if (f.codecId == static_cast<std::uint8_t>(CodecId::Raw) &&
        f.storedBytes != f.rawBytes)
      return FrameState::Damaged;
  } else if (f.kind == kKindRef) {
    if (f.storedBytes != 8) return FrameState::Damaged;
    if (f.rawBytes != spec_.chunkBytes) return FrameState::Damaged;
  } else {
    return FrameState::Damaged;
  }
  return FrameState::Valid;
}

ByteBuffer CodecStorage::chunkContent(std::uint64_t index, bool followRef) {
  const std::uint64_t c = spec_.chunkBytes;
  const auto damaged = [&]() {
    ++g_codecTls.damagedChunks;
    return ByteBuffer(static_cast<std::size_t>(c), 0);
  };

  Frame f;
  switch (readFrame(index, f)) {
    case FrameState::Absent:
      return ByteBuffer(static_cast<std::size_t>(c), 0);  // a hole, not damage
    case FrameState::Damaged:
      return damaged();
    case FrameState::Valid:
      break;
  }

  ByteBuffer payload(f.storedBytes);
  if (!readExact(*inner_, frameOffset(index) + kFrameHeaderBytes, payload))
    return damaged();  // payload torn off at EOF
  // Trust boundary: the payload CRC is verified BEFORE any payload byte is
  // interpreted — hostile bytes never reach the decoder or the ref target.
  if (crc32(payload) != f.payloadCrc) return damaged();

  if (f.kind == kKindRef) {
    const std::uint64_t target = decodeU64(payload.data());
    ByteBuffer content;
    if ((f.flags & kFrameFlagBaseRef) != 0) {
      content = baseChunkContent(target);
      if (content.size() != c) return damaged();
    } else {
      if (!followRef || target == index) return damaged();  // depth-1 only
      content = chunkContent(target, /*followRef=*/false);
    }
    // Re-verify the recorded content hash: a mutated or damaged target
    // must surface as detectable damage, never as silently wrong bytes.
    if (fnv1a64(content) != f.contentHash) return damaged();
    return content;
  }

  ByteBuffer content;
  if (f.codecId == static_cast<std::uint8_t>(CodecId::Raw)) {
    content = std::move(payload);
  } else {
    const CodecClock clock;
    try {
      content = lzDecompress(payload, f.rawBytes);
    } catch (const FormatError&) {
      return damaged();
    }
  }
  if (content.size() != f.rawBytes) return damaged();
  content.resize(static_cast<std::size_t>(c), 0);  // zero-pad past rawBytes
  return content;
}

ByteBuffer CodecStorage::baseChunkContent(std::uint64_t index) {
  if (base_ == nullptr || base_->spec_.chunkBytes != spec_.chunkBytes)
    return {};
  // Lock order is strictly file -> base; a base never locks a derived
  // file, so this nesting cannot deadlock.
  std::shared_lock lk(base_->mu_);
  return base_->chunkContent(index, /*followRef=*/false);
}

void CodecStorage::forgetChunkLocked(std::uint64_t index) {
  if (const auto it = hashByChunk_.find(index); it != hashByChunk_.end()) {
    if (const auto own = ownHash_.find(it->second);
        own != ownHash_.end() && own->second == index)
      ownHash_.erase(own);
    hashByChunk_.erase(it);
  }
  if (const auto it = refTargetByChunk_.find(index);
      it != refTargetByChunk_.end()) {
    const auto range = refsByTarget_.equal_range(it->second);
    for (auto r = range.first; r != range.second; ++r) {
      if (r->second == index) {
        refsByTarget_.erase(r);
        break;
      }
    }
    refTargetByChunk_.erase(it);
  }
}

void CodecStorage::materializeRefsTo(std::uint64_t target) {
  std::vector<std::uint64_t> refs;
  const auto range = refsByTarget_.equal_range(target);
  for (auto it = range.first; it != range.second; ++it)
    refs.push_back(it->second);
  for (const std::uint64_t r : refs) {
    // Resolve through the target's still-present content, then re-seal the
    // ref as an independent data frame (never a ref) before the target
    // changes.
    const ByteBuffer content = chunkContent(r, /*followRef=*/true);
    forgetChunkLocked(r);
    const std::uint64_t hash = fnv1a64(content);
    putDataFrame(r, encodeDataFrame(r, content, hash), hash, content.size());
  }
}

ByteBuffer CodecStorage::encodeDataFrame(std::uint64_t index,
                                         std::span<const Byte> content,
                                         std::uint64_t hash) const {
  Frame f;
  f.kind = kKindData;
  f.chunkIndex = index;
  f.rawBytes = static_cast<std::uint32_t>(content.size());
  f.contentHash = hash;

  ByteBuffer packed;
  bool useLz = false;
  if (spec_.codec == CodecId::Lz) {
    const CodecClock clock;
    useLz = lzCompress(content, packed);
  }
  f.codecId = static_cast<std::uint8_t>(useLz ? CodecId::Lz : CodecId::Raw);
  const std::span<const Byte> payload = useLz ? packed : content;
  f.storedBytes = static_cast<std::uint32_t>(payload.size());
  f.payloadCrc = crc32(payload);

  // One contiguous frame: header and payload land (or tear) together.
  ByteBuffer frame(kFrameHeaderBytes + payload.size());
  f.encode(frame.data());
  std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
              payload.size());
  return frame;
}

void CodecStorage::putDataFrame(std::uint64_t index,
                                std::span<const Byte> frame,
                                std::uint64_t hash, std::size_t rawBytes) {
  inner_->writeAt(frameOffset(index), frame);
  g_codecTls.storedBytes += frame.size();
  if (rawBytes == spec_.chunkBytes && ownHash_.emplace(hash, index).second)
    hashByChunk_.emplace(index, hash);
}

void CodecStorage::putRefFrame(std::uint64_t index, std::uint64_t target,
                               std::uint64_t hash, bool toBase) {
  Frame f;
  f.kind = kKindRef;
  f.flags = toBase ? kFrameFlagBaseRef : 0;
  f.chunkIndex = index;
  f.rawBytes = spec_.chunkBytes;
  f.storedBytes = 8;
  f.contentHash = hash;
  ByteBuffer frame(kFrameHeaderBytes + 8);
  encodeU64(target, frame.data() + kFrameHeaderBytes);
  f.payloadCrc =
      crc32(std::span<const Byte>(frame.data() + kFrameHeaderBytes, 8));
  f.encode(frame.data());
  inner_->writeAt(frameOffset(index), frame);
  g_codecTls.storedBytes += frame.size();
  ++g_codecTls.dedupHits;
  if (!toBase) {
    refsByTarget_.emplace(target, index);
    refTargetByChunk_.emplace(index, target);
  }
}

CodecStorage::Prepared CodecStorage::prepareChunk(
    std::uint64_t index, std::span<const Byte> content) {
  Prepared p;
  p.index = index;
  p.content = content;
  p.hash = fnv1a64(content);
  if (content.size() == spec_.chunkBytes) {
    if (const auto it = baseHash_.find(p.hash); it != baseHash_.end()) {
      // Hashes only nominate; bytes decide. Equal bytes have equal hashes,
      // so the base chunk needs no hash check of its own here.
      if (sameBytes(baseChunkContent(it->second), content)) {
        p.baseTarget = it->second;
        return p;
      }
    }
  }
  p.dataFrame = encodeDataFrame(index, content, p.hash);
  return p;
}

void CodecStorage::applyChunk(const Prepared& p) {
  // Own refs resolving through this chunk must become self-contained
  // before its bytes change; then this chunk's old nominations go away.
  materializeRefsTo(p.index);
  forgetChunkLocked(p.index);

  if (p.content.size() == spec_.chunkBytes) {
    if (const auto it = ownHash_.find(p.hash);
        it != ownHash_.end() && it->second != p.index) {
      const std::uint64_t target = it->second;
      if (sameBytes(chunkContent(target, /*followRef=*/false), p.content)) {
        putRefFrame(p.index, target, p.hash, /*toBase=*/false);
        return;
      }
    }
    if (p.baseTarget) {
      putRefFrame(p.index, *p.baseTarget, p.hash, /*toBase=*/true);
      return;
    }
  }
  putDataFrame(p.index, p.dataFrame, p.hash, p.content.size());
}

void CodecStorage::writeAt(std::uint64_t offset, std::span<const Byte> data) {
  if (data.empty()) return;
  const std::uint64_t c = spec_.chunkBytes;
  g_codecTls.rawBytes += data.size();
  const std::uint64_t end = offset + data.size();
  std::uint64_t pos = offset;
  while (pos < end) {
    const std::uint64_t idx = pos / c;
    const std::uint64_t chunkStart = idx * c;
    const std::uint64_t segEnd = std::min(end, chunkStart + c);
    const std::span<const Byte> seg = data.subspan(
        static_cast<std::size_t>(pos - offset),
        static_cast<std::size_t>(segEnd - pos));
    // A whole chunk depends only on its new bytes and the immutable base,
    // so it is prepared before taking mu_; a partial one is read, patched
    // and prepared under it.
    const bool whole = pos == chunkStart && seg.size() == c;
    Prepared p;
    if (whole) p = prepareChunk(idx, seg);
    std::unique_lock lk(mu_);
    ByteBuffer cur;
    if (!whole) {
      // rawBytes must cover every logical byte the chunk holds after this
      // write — including bytes owned by OTHER nodes' earlier writes.
      const std::uint32_t raw = static_cast<std::uint32_t>(
          std::min(c, std::max(logicalSize_, end) - chunkStart));
      std::span<const Byte> content = seg;
      if (pos != chunkStart || seg.size() != raw) {
        cur = chunkContent(idx, /*followRef=*/true);
        std::memcpy(cur.data() + static_cast<std::size_t>(pos - chunkStart),
                    seg.data(), seg.size());
        content = std::span<const Byte>(cur.data(), raw);
      }
      p = prepareChunk(idx, content);
    }
    applyChunk(p);
    logicalSize_ = std::max(logicalSize_, segEnd);
    pos = segEnd;
  }
}

std::uint64_t CodecStorage::readAt(std::uint64_t offset, std::span<Byte> out) {
  if (out.empty()) return 0;
  const std::uint64_t c = spec_.chunkBytes;
  std::shared_lock lk(mu_);
  if (offset >= logicalSize_) return 0;
  const std::uint64_t n = std::min<std::uint64_t>(out.size(),
                                                  logicalSize_ - offset);
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + n;
  while (pos < end) {
    const std::uint64_t idx = pos / c;
    const std::uint64_t chunkStart = idx * c;
    const std::uint64_t segEnd = std::min(end, chunkStart + c);
    const std::size_t segLen = static_cast<std::size_t>(segEnd - pos);
    const ByteBuffer content = chunkContent(idx, /*followRef=*/true);
    std::memcpy(out.data() + static_cast<std::size_t>(pos - offset),
                content.data() + static_cast<std::size_t>(pos - chunkStart),
                segLen);
    pos = segEnd;
  }
  return n;
}

std::uint64_t CodecStorage::size() {
  std::shared_lock lk(mu_);
  return logicalSize_;
}

void CodecStorage::truncate(std::uint64_t newSize) {
  const std::uint64_t c = spec_.chunkBytes;
  std::unique_lock lk(mu_);
  if (newSize == logicalSize_) return;
  if (newSize > logicalSize_) {
    // Extend with zeros (MemStorage resize-grow semantics): pin the new
    // size by re-sealing the new tail chunk; intermediate chunks stay
    // holes and read as zeros.
    const std::uint64_t tail = (newSize - 1) / c;
    ByteBuffer content = chunkContent(tail, /*followRef=*/true);
    const std::uint32_t raw =
        static_cast<std::uint32_t>(std::min(c, newSize - tail * c));
    applyChunk(prepareChunk(tail, std::span<const Byte>(content.data(), raw)));
    logicalSize_ = newSize;
    return;
  }
  const std::uint64_t newCount = newSize == 0 ? 0 : (newSize - 1) / c + 1;
  // Refs are not ordered by index, so a surviving ref may target a chunk
  // being dropped — make those survivors self-contained first.
  std::vector<std::uint64_t> doomedTargets;
  for (const auto& [target, ref] : refsByTarget_) {
    if (target >= newCount && ref < newCount) doomedTargets.push_back(target);
  }
  std::sort(doomedTargets.begin(), doomedTargets.end());
  doomedTargets.erase(
      std::unique(doomedTargets.begin(), doomedTargets.end()),
      doomedTargets.end());
  for (const std::uint64_t t : doomedTargets) materializeRefsTo(t);
  std::vector<std::uint64_t> dropped;
  for (const auto& [idx, hash] : hashByChunk_) {
    (void)hash;
    if (idx >= newCount) dropped.push_back(idx);
  }
  for (const auto& [idx, target] : refTargetByChunk_) {
    (void)target;
    if (idx >= newCount) dropped.push_back(idx);
  }
  for (const std::uint64_t idx : dropped) forgetChunkLocked(idx);
  inner_->truncate(newCount == 0 ? headerBytes_ : frameOffset(newCount));
  logicalSize_ = newSize;
  if (newSize != 0) {
    // Re-seal the tail so its rawBytes matches the shrunk size (also
    // covers a tail that was a hole: the zero frame pins the size for
    // a later attach()).
    const std::uint64_t tail = newCount - 1;
    ByteBuffer content = chunkContent(tail, /*followRef=*/true);
    const std::uint32_t raw = static_cast<std::uint32_t>(newSize - tail * c);
    applyChunk(prepareChunk(tail, std::span<const Byte>(content.data(), raw)));
  }
}

void CodecStorage::sync() { inner_->sync(); }

std::shared_ptr<StorageBackend> wrapCodecIfFramed(
    std::shared_ptr<StorageBackend> storage,
    const std::function<std::shared_ptr<StorageBackend>(const std::string&)>&
        resolveBase) {
  if (storage == nullptr || !CodecStorage::isFramed(*storage)) return storage;
  std::shared_ptr<StorageBackend> baseInner;
  if (resolveBase) {
    const std::string baseName = CodecStorage::baseNameOf(*storage);
    if (!baseName.empty()) baseInner = resolveBase(baseName);
  }
  return CodecStorage::attach(std::move(storage), std::move(baseInner));
}

}  // namespace pcxx::pfs
