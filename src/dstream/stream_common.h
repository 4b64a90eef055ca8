// Shared d/stream configuration and the default file system registry.
#pragma once

#include <cstdint>

#include "pfs/parallel_file.h"

namespace pcxx::ds {

/// Per-stream options.
struct StreamOptions {
  /// How the record header + size table are written (paper §4.1 step 1).
  enum class HeaderPolicy {
    Auto,           ///< Parallel when elementCount >= parallelHeaderThreshold
    ForceGathered,  ///< always gather to node 0 (small-collection path)
    ForceParallel,  ///< always use the parallel size-table write
  };

  HeaderPolicy headerPolicy = HeaderPolicy::Auto;
  /// Element count at which the parallel size-table write pays off.
  std::int64_t parallelHeaderThreshold = 4096;
  /// fsync after every write() (durability for checkpointing).
  bool syncOnWrite = false;
  /// Append a CRC-32 of each record's data section and verify it on read.
  /// Each node checksums only its own block; the whole-section value is
  /// assembled with crc32Combine, so the cost stays node-parallel.
  bool checksumData = false;
  /// Open the file for appending records instead of truncating (used when
  /// several streams with differing distributions share one file).
  bool append = false;
  /// Input streams only: salvage mode. On a damaged record (checksum
  /// mismatch, torn tail, truncated framing) read() skips the damage and
  /// continues with the next intact record instead of throwing; after a
  /// read, hasRecord() says whether a record was actually recovered, and
  /// salvageReport() accounts for the losses.
  bool salvage = false;

  // -- pcxx::dsindex (see docs/FORMAT.md, "Index footer") --------------------
  /// Output streams: append a self-describing index footer (per-record
  /// offsets, per-node extents, layout digest, CRC) on close so readers can
  /// seek to record k in O(1). The record chain's bytes are unchanged — the
  /// footer is an accelerator, never a format break.
  bool indexFooter = true;
  /// Input streams: use the index footer when present. Off = chain replay
  /// only (seekRecord walks, headers are probed, no dsindex.hits/fallbacks
  /// accounting); the footer's trailer is still honoured as the chain-end
  /// marker so replay never walks into the footer bytes. Corrupt footers
  /// always fall back to replay regardless of this flag.
  bool dsindexUseFooter = true;

  // -- pcxx::redist (see docs/REDIST.md) -------------------------------------
  /// Bound on the payload bytes sent to any single peer per exchange round
  /// when a sorted read redistributes through the cached plan engine
  /// (pcxx::redist). Caps peak redistribution memory at
  /// O(nprocs * redistChunkBytes) regardless of record size. 0 = exchange
  /// each record in a single unchunked round.
  std::uint64_t redistChunkBytes = 1 << 20;

  // -- pcxx::aio overlap (see docs/ASYNC.md) ---------------------------------
  /// Output streams: write-behind queue depth (buffers in flight per node).
  /// 0 = fully synchronous (today's path, byte-for-byte).
  int aioQueueDepth = 0;
  /// Input streams: records prefetched ahead per node. 0 = synchronous.
  int aioPrefetchDepth = 0;
  /// Staging buffers per write-behind pipeline (0 = aioQueueDepth + 2).
  int aioPoolBuffers = 0;
  /// Wall-clock bound on any wait against an aio helper thread (drain at
  /// close, full queue, exhausted pool, in-flight prefetch).
  double aioDrainDeadlineSeconds = 30.0;

  // -- pfs chunk codec (see docs/FORMAT.md, "Chunk codec") -------------------
  /// Output streams: codec for the pfs chunk stage underneath this file.
  /// "" = the file system's default (PfsConfig::codec / PCXX_CODEC);
  /// "none" = explicitly unframed (byte-identical to the pre-codec
  /// format); "lz" = LZ chunk compression. Readers always auto-detect
  /// framing from the file, so input streams ignore these knobs.
  std::string codec;
  /// Chunk size for a codec enabled via `codec`; 0 = the pfs default.
  std::uint32_t codecChunkBytes = 0;
  /// pfs name of a sealed codec-framed file whose identical chunks may be
  /// stored as references instead of payload (CheckpointManager points
  /// this at the previous epoch). Empty = no dedup.
  std::string codecDedupBase;
};

/// Set the process-default file system used by the (d, a, filename) stream
/// constructors — the pC++ programs in the paper's Figure 3 name only a
/// file, with the file system implicit. Not owned; must outlive use.
void setDefaultPfs(pfs::Pfs* fs);

/// The default file system; throws UsageError if none was set.
pfs::Pfs& defaultPfs();

}  // namespace pcxx::ds
