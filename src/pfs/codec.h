// Chunk-codec stage for the pfs layer: transparent compression + dedup.
//
// CodecStorage is a StorageBackend DECORATOR that sits between
// pfs::ParallelFile and the real byte store (MemStorage / PosixStorage).
// The logical byte space every upper layer sees — record offsets, index
// footers, salvage truncation points, the perf model's size argument — is
// unchanged; only the bytes moved through the inner backend shrink. Because
// the wrapper lives BELOW ParallelFile, fault hooks, RetryPolicy,
// CrashInjected durable-prefix semantics and FaultPlan op indices are all
// untouched: a hook-granted prefix of k logical bytes is applied through
// the codec in full before control returns, exactly like the raw path.
// (De)compression runs on whatever thread issues the storage op, so the
// pcxx::aio flusher/prefetcher threads do the codec work off the node's
// critical path for free.
//
// Locking. `mu_` (a shared_mutex) guards the logical size, the dedup maps
// and the frames in the inner store. Sealing a chunk has two steps:
//   prepare — hash the content, compare it with the dedup base, LZ-encode
//             the data frame. It reads only immutable state (spec, base
//             view, base hash map), so for a chunk that one writeAt covers
//             whole it runs WITHOUT mu_: two nodes' flushers encode their
//             blocks at the same time.
//   apply   — under mu_ EXCLUSIVE: materialize own refs to the chunk,
//             forget its old nominations, probe this file's dedup map,
//             then write an own ref, a base ref or the prepared data frame
//             and publish the new logical size.
// A chunk writeAt covers only in part (node-block boundaries, the header,
// the footer) is read, patched, prepared and applied all under mu_
// exclusive, as is truncate. writeAt applies chunk by chunk, so readers
// may see a write's earlier chunks before its later ones; the chunk is
// already the tear unit (see the caveat below). readAt and size take mu_
// SHARED, so readers decode at once. A base read takes the base's mu_
// shared; the lock order is always file -> base, and a base never locks a
// file derived from it.
//
// Physical layout (all integers little-endian):
//
//   FileHeader (32 bytes + baseName):
//     0   u8[8]  magic          "PCXXCDC1"
//     8   u32    version        1
//     12  u32    flags          0 (reserved; unknown flags -> not framed)
//     16  u32    chunkBytes     logical chunk size C
//     20  u32    defaultCodec   CodecId the writer prefers
//     24  u32    baseNameBytes  dedup base file name length (0 = none)
//     28  u32    headerCrc32    CRC-32 of bytes [0, 28)
//     32  u8[baseNameBytes]     pfs name of the dedup base file
//
//   Frames at FIXED offsets — chunk i lives at
//       headerBytes + i * (kFrameHeaderBytes + C)
//   so any chunk is addressable in O(1) with no directory and no scan.
//   Each frame reserves C payload bytes; the stored payload occupies a
//   prefix of that region. The savings are therefore in bytes MOVED
//   through the backend (the bandwidth the paper's tables are bound by),
//   not in the file's apparent extent.
//
//   FrameHeader (40 bytes):
//     0   u32    frameMagic     "PCDF" (0x46444350)
//     4   u8     kind           0 = data, 1 = ref (dedup)
//     5   u8     codecId        0 = raw, 1 = lz (data frames)
//     6   u16    frameFlags     bit 0: ref targets the dedup BASE file
//     8   u64    chunkIndex     must equal the frame's own index
//     16  u32    rawBytes       logical bytes held by the chunk (<= C)
//     20  u32    storedBytes    payload bytes present after the header
//     24  u64    contentHash    FNV-1a-64 of the raw chunk content
//     32  u32    payloadCrc32   CRC-32 of the STORED payload bytes
//     36  u32    headerCrc32    CRC-32 of bytes [0, 36)
//
// Trust boundary: payloadCrc32 is verified on the compressed bytes BEFORE
// the decoder sees them, so hostile input never reaches the decompressor;
// the decoder itself is fully bounds-checked and its output length must
// equal rawBytes. Any violation (magic, header CRC, size bounds, payload
// CRC, decode mismatch, unresolvable ref) makes the chunk read as ZEROS
// and ticks the damaged-chunk counter — damage then surfaces at the
// d/stream record layer (header CRC / data CRC / framing) exactly like
// uncompressed bit rot, so salvage verdicts and --verify results stay
// byte-identical to the uncompressed path.
//
// Dedup (kind = ref): a full chunk whose content hash matches an already
// sealed DATA frame — in this file or in the named base file (the previous
// checkpoint epoch) — is stored as an 8-byte reference to that chunk after
// a full byte comparison (hashes only nominate, bytes decide). Refs only
// ever target data frames, so cross-file dependencies are depth-1; reads
// re-verify the target's content hash, so a mutated base surfaces as
// detectable damage, never silent corruption. Overwriting a chunk that own
// refs point at first materializes those refs as data frames.
//
// Honest caveat (documented in docs/FORMAT.md): with a codec active the
// torn-write damage unit of a REAL crash is the chunk — a tear mid-rewrite
// of a shared tail chunk can damage up to chunkBytes-1 previously durable
// bytes. Detection and skip at the record layer are unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pfs/backend.h"

namespace pcxx::pfs {

/// Codec identifiers as stored in frame headers.
enum class CodecId : std::uint8_t {
  Raw = 0,  ///< stored bytes are the raw chunk content
  Lz = 1,   ///< LZ-class block compression (lzCompress/lzDecompress)
};

/// What a Create-mode open asks the file system to do about framing.
struct CodecSpec {
  /// false = plain file, byte-identical to the pre-codec format.
  bool enabled = false;
  CodecId codec = CodecId::Lz;
  /// Logical chunk size; larger chunks compress better, tear wider.
  std::uint32_t chunkBytes = 64 * 1024;
  /// pfs name of a file whose sealed chunks may be dedup targets
  /// (CheckpointManager wires the previous epoch here). Empty = off.
  std::string dedupBase;
};

/// Per-thread codec accounting. CodecStorage updates the calling thread's
/// slot; ParallelFile snapshots deltas around each storage op and folds
/// them into node metrics (sync paths) or BgIoStats (aio threads), keeping
/// the obs owner-write discipline intact. Values are monotone.
struct CodecThreadStats {
  std::uint64_t rawBytes = 0;      ///< logical bytes written through a codec
  std::uint64_t storedBytes = 0;   ///< frame header+payload bytes stored
  std::uint64_t dedupHits = 0;     ///< chunks written as ref frames
  std::uint64_t damagedChunks = 0; ///< chunk reads that fell back to zeros
  /// Wall seconds of codec CPU: compress, decompress (a dedup target's
  /// decode included), content hashing and dedup byte compares.
  double seconds = 0.0;
};

/// The calling thread's codec counters (monotone; snapshot-and-diff).
const CodecThreadStats& codecThreadStats();

/// LZ-class block compression (LZ4-style token stream: literal/match
/// nibbles with 255-run extensions, 2-byte match offsets, min match 4).
/// Returns true and fills `out` when the encoding is strictly smaller than
/// `src`; returns false (out unspecified) for incompressible input.
bool lzCompress(std::span<const Byte> src, ByteBuffer& out);

/// Bounds-checked decompression of `src` into exactly `rawBytes` output
/// bytes. Throws FormatError on any malformed input (never reads or
/// writes out of bounds). Safe on hostile input.
ByteBuffer lzDecompress(std::span<const Byte> src, std::uint64_t rawBytes);

/// The transparent chunk-codec decorator. All methods are thread-safe:
/// writers of disjoint whole chunks encode in parallel and take `mu_`
/// exclusive only to apply each chunk; readers take it shared. writeAt
/// applies chunk by chunk (the chunk is the tear unit), so two concurrent
/// writes of overlapping ranges may interleave chunk by chunk.
class CodecStorage final : public StorageBackend {
 public:
  static constexpr std::uint64_t kFileHeaderBytes = 32;
  static constexpr std::uint64_t kFrameHeaderBytes = 40;

  /// Does `inner` hold a codec-framed file (magic + intact header)?
  static bool isFramed(StorageBackend& inner);

  /// The dedup base name recorded in a framed file's header ("" if none
  /// or not framed).
  static std::string baseNameOf(StorageBackend& inner);

  /// Wrap a fresh (truncated) inner store: writes the codec file header.
  /// `baseInner` is the dedup base's raw store (may be null; must itself
  /// be codec-framed to contribute dedup targets).
  static std::shared_ptr<CodecStorage> create(
      std::shared_ptr<StorageBackend> inner, const CodecSpec& spec,
      std::shared_ptr<StorageBackend> baseInner);

  /// Wrap an existing framed file (scans frame headers once to recover
  /// the logical size and the dedup maps). Throws FormatError when the
  /// file header is not intact.
  static std::shared_ptr<CodecStorage> attach(
      std::shared_ptr<StorageBackend> inner,
      std::shared_ptr<StorageBackend> baseInner);

  // -- StorageBackend (logical byte space) ----------------------------------
  void writeAt(std::uint64_t offset, std::span<const Byte> data) override;
  std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) override;
  std::uint64_t size() override;
  void truncate(std::uint64_t newSize) override;
  void sync() override;

  const CodecSpec& spec() const { return spec_; }
  /// The raw store underneath (tests corrupt physical frame bytes here).
  StorageBackend& inner() { return *inner_; }
  /// Physical offset of chunk `index`'s frame header in the inner store.
  std::uint64_t frameOffset(std::uint64_t index) const {
    return headerBytes_ + index * (kFrameHeaderBytes + spec_.chunkBytes);
  }

 private:
  CodecStorage(std::shared_ptr<StorageBackend> inner, CodecSpec spec,
               std::uint64_t headerBytes,
               std::shared_ptr<CodecStorage> base);

  struct Frame;     // decoded frame header (codec.cpp)
  struct Prepared;  // a chunk sealed up to its apply step (codec.cpp)
  enum class FrameState { Absent, Valid, Damaged };

  void scanExisting();  // rebuild logicalSize_/maps from inner frames
  FrameState readFrame(std::uint64_t index, Frame& f);
  /// Raw content of chunk `index`, always `chunkBytes` long (zero-padded
  /// past rawBytes; all zeros + damage tick on any integrity failure).
  /// `followRef` bounds ref resolution to depth 1. Needs mu_ (either mode).
  ByteBuffer chunkContent(std::uint64_t index, bool followRef);
  /// Content of chunk `index` in the BASE file (data frames only), or
  /// empty without a usable base. Takes the base's mu_ shared; the caller
  /// checks the content hash or compares the bytes.
  ByteBuffer baseChunkContent(std::uint64_t index);
  /// Prepare step: hash, base compare, data frame. Touches no mutable
  /// state, so it needs no lock; `content` must outlive the apply step.
  Prepared prepareChunk(std::uint64_t index, std::span<const Byte> content);
  /// Apply step, under mu_ exclusive: materialize refs, forget old
  /// nominations, own dedup probe, then an own ref, a base ref or the
  /// prepared data frame.
  void applyChunk(const Prepared& p);
  /// Encode `content` (whose hash is `hash`) as chunk `index`'s data frame.
  ByteBuffer encodeDataFrame(std::uint64_t index,
                             std::span<const Byte> content,
                             std::uint64_t hash) const;
  /// Write an encoded data frame and nominate a full chunk for dedup.
  void putDataFrame(std::uint64_t index, std::span<const Byte> frame,
                    std::uint64_t hash, std::size_t rawBytes);
  void putRefFrame(std::uint64_t index, std::uint64_t target,
                   std::uint64_t hash, bool toBase);
  void materializeRefsTo(std::uint64_t target);
  void forgetChunkLocked(std::uint64_t index);  // drop maps for an overwrite

  std::shared_ptr<StorageBackend> inner_;
  CodecSpec spec_;
  std::uint64_t headerBytes_ = 0;
  std::shared_ptr<CodecStorage> base_;  // dedup base view (depth 1)
  /// Guards logicalSize_, the maps below and the inner frames (see the
  /// locking rules at the top of this file).
  std::shared_mutex mu_;
  std::uint64_t logicalSize_ = 0;
  /// content hash -> chunk index of a sealed full DATA frame in this file.
  std::unordered_map<std::uint64_t, std::uint64_t> ownHash_;
  /// content hash -> chunk index of a full data frame in the base file.
  /// Set in the constructor and never changed, so prepare reads it unlocked.
  std::unordered_map<std::uint64_t, std::uint64_t> baseHash_;
  /// chunk index -> hash, for exactly the entries this file put in
  /// ownHash_ (so overwrites erase precisely their own nomination).
  std::unordered_map<std::uint64_t, std::uint64_t> hashByChunk_;
  /// own ref chunk indices keyed by their (own-file) target chunk.
  std::unordered_multimap<std::uint64_t, std::uint64_t> refsByTarget_;
  /// own ref chunk -> its own-file target (reverse of refsByTarget_).
  std::unordered_map<std::uint64_t, std::uint64_t> refTargetByChunk_;
};

/// Probe `storage` for codec framing and wrap it when present; otherwise
/// return it unchanged. `resolveBase` (optional) maps the header's dedup
/// base name to that file's raw store. Offline consumers (dsdump, the
/// inspect convenience overloads) use this since they construct
/// PosixStorage directly rather than opening through a Pfs.
std::shared_ptr<StorageBackend> wrapCodecIfFramed(
    std::shared_ptr<StorageBackend> storage,
    const std::function<std::shared_ptr<StorageBackend>(const std::string&)>&
        resolveBase = nullptr);

}  // namespace pcxx::pfs
