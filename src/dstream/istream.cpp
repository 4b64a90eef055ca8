#include "dstream/istream.h"

#include <algorithm>
#include <cstring>

#include "util/crc32.h"

#include "util/log.h"

namespace pcxx::ds {

namespace {

/// The one record-header reader: the encoded header at `offset`, fetched
/// through `read` (node 0's readAt, or a prefetch thread's
/// readAtBackground). With `lengthHint` (the index footer's header length
/// for this record) one read whose framing must agree with the hint; without
/// one, or when it disagrees, the 8-byte prefix and then the whole header.
/// Empty when the bytes there frame no header (end of file, bad magic).
ByteBuffer readHeaderBytes(const dsindex::ReadFn& read, std::uint64_t offset,
                           std::optional<std::uint64_t> lengthHint = {}) {
  ByteBuffer bytes;
  if (lengthHint.has_value()) {
    bytes.resize(static_cast<size_t>(*lengthHint));
    if (read(offset, bytes) == *lengthHint && bytes.size() >= 8) {
      try {
        if (RecordHeader::encodedLength(std::span<const Byte>(bytes).first(
                8)) == *lengthHint) {
          return bytes;
        }
      } catch (const FormatError&) {
      }
    }
  }
  Byte prefix[8];
  if (read(offset, prefix) != 8) return {};
  try {
    bytes.resize(static_cast<size_t>(RecordHeader::encodedLength(prefix)));
  } catch (const FormatError&) {
    return {};
  }
  if (read(offset, bytes) != bytes.size()) return {};
  return bytes;
}

/// One past the last byte of the record at `start` (CRC trailer included).
std::uint64_t recordEndOf(const RecordHeader& header, std::uint64_t start,
                          std::uint64_t headerBytes) {
  return start + headerBytes + header.sizeTableBytes() + header.dataBytes +
         header.trailerBytes();
}

/// Chunk total a node reports when its slice of the size table is damaged
/// in a way only it can see (a wrapping sum, an element too small for the
/// projected fields). It exceeds any dataBytes that passed the extent
/// check, so the collective size-table vote rejects it on every node.
constexpr std::uint64_t kDamagedChunk = ~std::uint64_t{0};

}  // namespace

IStream::IStream(pfs::Pfs& fs, const coll::Distribution* d,
                 const coll::Align* a, const std::string& fileName,
                 StreamOptions opts)
    : node_(&rt::thisNode()),
      fs_(&fs),
      layout_(*d, *a),
      opts_(opts),
      localCount_(0) {
  openFile(fileName);
}

IStream::IStream(pfs::Pfs& fs, const coll::Distribution* d,
                 const std::string& fileName, StreamOptions opts)
    : node_(&rt::thisNode()), fs_(&fs), layout_(*d), opts_(opts),
      localCount_(0) {
  openFile(fileName);
}

IStream::IStream(const coll::Distribution* d, const coll::Align* a,
                 const std::string& fileName, StreamOptions opts)
    : IStream(defaultPfs(), d, a, fileName, opts) {}

IStream::IStream(const coll::Distribution* d, const std::string& fileName,
                 StreamOptions opts)
    : IStream(defaultPfs(), d, fileName, opts) {}

IStream::IStream(pfs::Pfs& fs, pfs::ParallelFilePtr file, coll::Layout layout,
                 StreamOptions opts)
    : node_(&rt::thisNode()),
      fs_(&fs),
      file_(std::move(file)),
      layout_(std::move(layout)),
      opts_(opts),
      localCount_(layout_.localCount(node_->id())) {
  PCXX_REQUIRE(file_ != nullptr, "IStream requires an open file");
  // Collective-free probe: attach streams are constructed in arbitrary
  // per-file order across nodes, so each node reads the tiny footer itself.
  probeIndex(/*viaBroadcast=*/false);
  setupPrefetch();
}

void IStream::openFile(const std::string& fileName) {
  localCount_ = layout_.localCount(node_->id());
  file_ = fs_->open(*node_, fileName, pfs::OpenMode::Read);
  ByteBuffer hdr(kFileHeaderBytes);
  if (node_->id() == 0) {
    const std::uint64_t got = file_->readAt(*node_, 0, hdr);
    if (got != kFileHeaderBytes) hdr.clear();
  }
  node_->broadcastBytes(0, hdr);
  verifyFileHeader(hdr);
  probeIndex(/*viaBroadcast=*/true);
  file_->seekShared(*node_, kFileHeaderBytes);
  setupPrefetch();
}

void IStream::probeIndex(bool viaBroadcast) {
  indexValid_ = false;
  dataEndFixed_ = false;
  // The probe always runs: even with dsindexUseFooter off, the trailer must
  // pin the end of the record chain or sequential replay would walk into
  // the footer bytes. The option only gates *using* the index (and the
  // hit/fallback accounting — replay by choice is not a fallback).
  // Encoded probe verdict: [u8 status][u8 haveOffset][u64 footerOffset]
  // [body bytes when Valid]. Node 0 (or, collective-free, every node)
  // produces it; decodeBody re-verifies the CRC on each consumer.
  ByteBuffer blob;
  if (!viaBroadcast || node_->id() == 0) {
    const dsindex::ProbeResult probe = dsindex::probeFooter(
        [&](std::uint64_t off, std::span<Byte> out) {
          return file_->readAt(*node_, off, out);
        },
        file_->size(), kFileHeaderBytes);
    ByteWriter w(blob);
    w.u8(static_cast<std::uint8_t>(probe.status));
    // Chain end, pinned at open time: the footer offset when the
    // self-checksummed trailer is intact (even over a damaged body), the
    // file size otherwise. Pinning gives every node the same snapshot —
    // atEnd() must not change verdict mid-read because some other node
    // already raced ahead into a footer-appending close of its writer.
    w.u64(probe.haveFooterOffset ? probe.footerOffset : file_->size());
    if (probe.status == dsindex::ProbeStatus::Valid) {
      w.bytes(probe.index.encodeBody());
    }
  }
  if (viaBroadcast) node_->broadcastBytes(0, blob);
  ByteReader r(blob);
  const auto status = static_cast<dsindex::ProbeStatus>(r.u8());
  dataEndFixed_ = true;
  dataEnd_ = r.u64();
  if (!opts_.dsindexUseFooter) return;
  if (status == dsindex::ProbeStatus::Valid) {
    index_ = dsindex::FileIndex::decodeBody(
        std::span<const Byte>(blob).subspan(r.position()));
    indexValid_ = true;
    PCXX_OBS_COUNT(node_->obs(), DsIndexHits, 1);
  } else {
    PCXX_OBS_COUNT(node_->obs(), DsIndexFallbacks, 1);
  }
}

IStream::~IStream() { close(); }

void IStream::close() {
  state_ = State::Closed;
  prefetcher_.reset();  // before file_: the plan holds a file reference
  file_.reset();
}

void IStream::rewind() {
  if (state_ == State::Closed) {
    throw StateError("rewind on a closed d/stream");
  }
  moveTo(kFileHeaderBytes);
}

void IStream::moveTo(std::uint64_t offset) {
  file_->seekShared(*node_, offset);
  record_.reset();
  state_ = State::Ready;
  restartPrefetch();
}

bool IStream::atEnd() const {
  if (state_ == State::Closed) return true;
  return file_->sharedOffset() >= chainEnd();
}

void IStream::seekRecord(std::uint32_t k) {
  if (state_ == State::Closed) {
    throw StateError("seekRecord on a closed d/stream");
  }
  PCXX_OBS_SPAN(node_->obs(), "ds.seek");
  PCXX_OBS_COUNT(node_->obs(), DsIndexSeeks, 1);
  if (indexValid_) {
    if (k >= index_.entries.size()) {
      throw UsageError("seekRecord(" + std::to_string(k) +
                       "): the file's index has only " +
                       std::to_string(index_.entries.size()) + " record(s)");
    }
    PCXX_OBS_COUNT(node_->obs(), DsIndexHits, 1);
    moveTo(index_.entries[static_cast<size_t>(k)].offset);
    return;
  }
  // No usable footer: replay the chain from the top with k header-only
  // skips — same result, O(k) header reads. Like the indexed path this
  // rejects k >= recordCount: a chain of exactly k records throws too
  // rather than parking at end-of-chain.
  PCXX_OBS_COUNT(node_->obs(), DsIndexFallbacks, 1);
  moveTo(kFileHeaderBytes);
  for (std::uint32_t i = 0;; ++i) {
    if (atEnd()) {
      throw UsageError("seekRecord(" + std::to_string(k) +
                       "): the record chain has only " + std::to_string(i) +
                       " record(s)");
    }
    if (i == k) return;
    skipRecord();
  }
}

void IStream::project(std::vector<std::uint32_t> fields) {
  if (state_ == State::Closed) {
    throw StateError("project on a closed d/stream");
  }
  std::sort(fields.begin(), fields.end());
  fields.erase(std::unique(fields.begin(), fields.end()), fields.end());
  projection_ = std::move(fields);
}

const RecordHeader& IStream::currentRecord() const {
  PCXX_REQUIRE(record_.has_value(),
               "no record has been read yet (call read() first)");
  return *record_;
}

void IStream::checkExtract(const coll::Layout& collectionLayout,
                           std::uint32_t tag, InsertKind kind) const {
  if (state_ == State::Closed) {
    throw StateError("extract on a closed d/stream");
  }
  if (state_ != State::Extracting) {
    throw StateError(
        "extract requires a preceding read() or unsortedRead() (Figure 2)");
  }
  if (collectionLayout != layout_) {
    throw UsageError(
        "extracted collection's distribution/alignment does not match the "
        "d/stream's");
  }
  const auto& inserts = record_->inserts;
  if (nextExtract_ >= inserts.size()) {
    throw UsageError(
        "more extracts than the record has inserts; every extract must have "
        "a corresponding insert");
  }
  const InsertDesc& desc = inserts[nextExtract_];
  if (desc.kind != kind) {
    throw UsageError(
        "extract kind mismatch: a whole-collection extract must correspond "
        "to a whole-collection insert (and a field to a field)");
  }
  if (desc.typeTag != tag) {
    throw UsageError(
        "extract type mismatch: the extracted element type differs from the "
        "inserted element type for this position in the record");
  }
  PCXX_OBS_COUNT(node_->obs(), DsExtracts, 1);
}

RecordHeader IStream::skipRecord() {
  if (state_ == State::Closed) {
    throw StateError("skipRecord on a closed d/stream");
  }
  PCXX_OBS_SPAN(node_->obs(), "ds.skip");
  PCXX_OBS_COUNT(node_->obs(), DsSkips, 1);
  const std::uint64_t recordStart = file_->sharedOffset();
  const ByteBuffer headerBytes = broadcastHeader(recordStart, std::nullopt);
  if (headerBytes.empty()) {
    throw FormatError("truncated or invalid record header at offset " +
                      std::to_string(recordStart));
  }
  RecordHeader header = RecordHeader::decode(headerBytes);
  // Skipping discards any partially extracted record (Figure 2 allows
  // read -> read, and skip is a cheaper read).
  moveTo(recordEndOf(header, recordStart, headerBytes.size()));
  return header;
}

void IStream::readNext(bool sorted) {
  if (state_ == State::Closed) {
    throw StateError("read on a closed d/stream");
  }
  PCXX_OBS_PHASE(node_->obs(), "ds.read", DsReadSeconds);
  for (;;) {
    if (opts_.salvage && atEnd()) {
      // Salvage consumed the rest of the file (or it was already
      // exhausted): no record to extract, but no exception either.
      record_.reset();
      state_ = State::Ready;
      return;
    }
    const bool got = readRecordOnce(sorted);
    // A prefetch miss (or a salvage skip) parks the read-ahead chain;
    // re-aim it at the new shared cursor before the next record.
    if (prefetcher_ != nullptr && !prefetchLive_) restartPrefetch();
    if (got) return;
    // A damaged record was skipped; the cursor sits past the damage.
  }
}

bool IStream::skipDamage(std::uint64_t from, std::uint64_t to,
                         std::string reason) {
  salvage_.recordsLost += 1;
  salvage_.damage.push_back(DamagedRange{from, to - from, std::move(reason)});
  file_->seekShared(*node_, to);
  record_.reset();
  state_ = State::Ready;
  prefetchLive_ = false;  // readNext re-aims the chain past the damage
  return false;
}

ByteBuffer IStream::broadcastHeader(std::uint64_t at,
                                    std::optional<std::uint64_t> lengthHint) {
  ByteBuffer bytes;
  if (node_->id() == 0) {
    bytes = readHeaderBytes(
        [this](std::uint64_t off, std::span<Byte> out) {
          return file_->readAt(*node_, off, out);
        },
        at, lengthHint);
  }
  node_->broadcastBytes(0, bytes);
  return bytes;
}

bool IStream::readRecordOnce(bool sorted) {
  // ---- read-ahead: a hit hands the tail the whole prefetched record -------
  std::uint64_t rid = 0;
  if (prefetcher_ != nullptr) {
    if (std::optional<aio::PrefetchedRecord> r = tryPrefetched(rid)) {
      // The plan decoded these exact bytes, so this cannot throw; every node
      // holds an identical copy (no broadcast needed).
      RecordHeader header = RecordHeader::decode(r->headerBytes);
      PCXX_OBS_COUNT(node_->obs(), DsHeaderDecodes, 1);
      return readTail(sorted, std::move(header), r->start,
                      r->headerBytes.size(), r->sizeChunk,
                      std::move(r->dataChunk), rid);
    }
    // Miss: the synchronous path owns all error and salvage semantics.
  }

  // ---- record header (node 0 reads, then broadcast) -----------------------
  const std::uint64_t recordStart = file_->sharedOffset();

  // Record-scoped correlation id: opens a "ds.record" flow chain that the
  // ordered data read and the redistribution exchange extend, so Perfetto
  // links each record to the work that reconstructed it.
#if PCXX_OBS_ENABLED
  if (obs::NodeObs* o = node_->obs(); o != nullptr && o->trace != nullptr) {
    rid = node_->machine().nextFlowId();
    o->trace->flowStart(node_->id(), "ds.record", o->now(), rid);
  }
#endif

  // Indexed fast path: the footer already knows this record's header
  // length, so one read replaces the prefix-then-header pair.
  std::optional<std::uint64_t> hint;
  const auto entry = std::lower_bound(
      index_.entries.begin(), index_.entries.end(), recordStart,
      [](const dsindex::IndexEntry& e, std::uint64_t off) {
        return e.offset < off;
      });
  if (indexValid_ && entry != index_.entries.end() &&
      entry->offset == recordStart) {
    hint = entry->headerBytes;
  }
  const ByteBuffer headerBytes = broadcastHeader(recordStart, hint);
  std::optional<RecordHeader> decoded;
  const char* damage = "truncated or invalid record header (torn tail)";
  try {
    // decode() throws identically on every node (the bytes were broadcast).
    if (!headerBytes.empty()) decoded = RecordHeader::decode(headerBytes);
  } catch (const FormatError&) {
    if (!opts_.salvage) throw;
    damage = "record header checksum mismatch (torn tail)";
  }
  if (!decoded.has_value()) {
    // The framing itself is gone; nothing behind this point can be
    // located without it, so the rest of the record chain is the damage.
    if (opts_.salvage) return skipDamage(recordStart, chainEnd(), damage);
    throw FormatError("truncated or invalid record header at offset " +
                      std::to_string(recordStart) +
                      " (no further record in file?)");
  }
  RecordHeader header = std::move(*decoded);
  PCXX_OBS_COUNT(node_->obs(), DsHeaderDecodes, 1);

  // The whole record extent must fit the record chain BEFORE the
  // collective reads start. The check uses only broadcast header bytes and
  // the pinned chainEnd(), so every node makes the same skip/throw/read
  // decision and no collective sees a short read.
  if (recordEndOf(header, recordStart, headerBytes.size()) > chainEnd()) {
    if (opts_.salvage) {
      return skipDamage(recordStart, chainEnd(),
                        "record extends past end of file (torn tail)");
    }
    throw FormatError("record at offset " + std::to_string(recordStart) +
                      " extends past end of file (truncated?)");
  }

  if (header.elementCount() != layout_.size()) {
    throw UsageError(
        "record was written from a collection of " +
        std::to_string(header.elementCount()) +
        " elements but the reading d/stream has " +
        std::to_string(layout_.size()) +
        "; extracted arrays must have the size of the inserted arrays");
  }

  // ---- size table ----------------------------------------------------------
  // Readers partition the file-order element sequence by their own local
  // counts: node r takes file positions [sum(count_<r), +count_r). This is
  // the conforming phase-1 read; when the layouts match it already is the
  // final placement.
  file_->seekShared(*node_, recordStart + headerBytes.size());
  const ByteBuffer sizeChunk =
      file_->readOrdered(*node_, static_cast<std::uint64_t>(localCount_) * 8,
                         header.sizeTableBytes());
  return readTail(sorted, std::move(header), recordStart, headerBytes.size(),
                  sizeChunk, std::nullopt, rid);
}

bool IStream::readTail(bool sorted, RecordHeader header,
                       std::uint64_t recordStart, std::uint64_t headerBytes,
                       std::span<const Byte> sizeChunk,
                       std::optional<ByteBuffer> chunk, std::uint64_t flowId) {
  const std::uint64_t dataAt =
      recordStart + headerBytes + header.sizeTableBytes();
  const std::uint64_t recordEnd = recordEndOf(header, recordStart, headerBytes);
  std::vector<std::uint64_t> chunkSizes(static_cast<size_t>(localCount_));
  std::uint64_t myChunkBytes = 0;
  for (size_t j = 0; j < chunkSizes.size(); ++j) {
    chunkSizes[j] = decodeU64(sizeChunk.data() + 8 * j);
    if (__builtin_add_overflow(myChunkBytes, chunkSizes[j], &myChunkBytes)) {
      myChunkBytes = kDamagedChunk;
    }
  }

  // ---- data ----------------------------------------------------------------
  const bool projected = !projection_.empty();
  if (!chunk.has_value() && projected) {
    // Windowed positional reads of the projected byte ranges. The full
    // section is never fetched, so its CRC cannot be verified: one
    // collective move takes the cursor past data and trailer.
    chunk.emplace();
    if (!projectChunk(header, dataAt, chunkSizes, myChunkBytes, recordStart,
                      recordEnd, *chunk)) {
      return false;  // salvage skipped the record
    }
    file_->seekShared(*node_, recordEnd);
  } else {
    if (!chunk.has_value()) {
      // Phase 1: the conforming contiguous read. A corrupted size table
      // would send it to the wrong extents; readOrdered votes the table's
      // sum against the header before any node allocates or reads.
#if PCXX_OBS_ENABLED
      if (obs::NodeObs* o = node_->obs(); o != nullptr && o->trace != nullptr) {
        o->trace->flowStep(node_->id(), "ds.record", o->now(), flowId);
      }
#endif
      try {
        chunk = file_->readOrdered(*node_, myChunkBytes, header.dataBytes);
      } catch (const FormatError&) {
        if (!opts_.salvage) throw;
        return skipDamage(recordStart, recordEnd,
                          "size table inconsistent with record header");
      }
    } else {
      // Prefetched positionally: move the shared cursor (collective) to
      // where the ordered read would have left it.
      file_->seekShared(*node_, recordEnd - header.trailerBytes());
    }
    if (!checkTrailer(header, *chunk, recordStart, recordEnd)) return false;
    // The full, verified chunk is in memory: projection is a stride copy.
    if (projected && !projectChunk(header, std::nullopt, chunkSizes,
                                   myChunkBytes, recordStart, recordEnd,
                                   *chunk)) {
      return false;
    }
  }
  if (projected) PCXX_OBS_COUNT(node_->obs(), DsIndexProjections, 1);
  return finishRecord(sorted, std::move(header), std::move(*chunk),
                      std::move(chunkSizes), recordStart, recordEnd, flowId);
}

bool IStream::checkTrailer(const RecordHeader& header, const ByteBuffer& chunk,
                           std::uint64_t recordStart,
                           std::uint64_t recordEnd) {
  if (!header.hasDataCrc()) return true;
  // One collective carries each node's (block CRC, block length); every
  // node folds the same values in node order and reaches the same verdict.
  Byte mine[12];
  encodeU32(crc32(chunk), mine);
  encodeU64(chunk.size(), mine + 4);
  const auto blocks = node_->allgatherBytes(mine);
  std::uint32_t dataCrc = 0;
  for (const ByteBuffer& b : blocks) {
    dataCrc = crc32Combine(dataCrc, decodeU32(b.data()),
                           decodeU64(b.data() + 4));
  }
  const std::uint64_t trailerAt = file_->sharedOffset();
  ByteBuffer trailer(4);
  if (node_->id() == 0) {
    if (file_->readAt(*node_, trailerAt, trailer) != 4) trailer.clear();
  }
  node_->broadcastBytes(0, trailer);
  if (trailer.size() != 4) {
    if (opts_.salvage) {
      return skipDamage(recordStart, chainEnd(),
                        "data checksum trailer missing (torn tail)");
    }
    throw FormatError("record data checksum trailer missing (truncated?)");
  }
  if (decodeU32(trailer.data()) != dataCrc) {
    if (opts_.salvage) {
      return skipDamage(recordStart, recordEnd, "data checksum mismatch");
    }
    throw FormatError(
        "record data checksum mismatch: the element data was corrupted");
  }
  file_->seekShared(*node_, trailerAt + 4);
  return true;
}

IStream::ProjectionMap IStream::projectionFor(
    const RecordHeader& header) const {
  ProjectionMap map;
  const auto& inserts = header.inserts;
  if (projection_.back() >= inserts.size()) {
    throw UsageError("projection names insert " +
                     std::to_string(projection_.back()) +
                     " but the record has only " +
                     std::to_string(inserts.size()) + " insert(s)");
  }
  // Within an element the inserts' fixed-size values are stored
  // contiguously in insertion order, so a projected field's offset is the
  // sum of the fixed sizes before it — which requires every insert up to
  // the last projected one to BE fixed-size (trailing variable-size
  // inserts are simply never visited).
  std::uint64_t off = 0;
  size_t next = 0;
  for (std::uint32_t i = 0;
       i < inserts.size() && next < projection_.size(); ++i) {
    const InsertDesc& desc = inserts[i];
    if (desc.fixedPerElement == 0) {
      throw UsageError(
          "field projection requires fixed-size fields: insert " +
          std::to_string(i) +
          " has a variable per-element size, so later field offsets are "
          "not stride-computable");
    }
    if (projection_[next] == i) {
      map.offsets.push_back(off);
      map.lengths.push_back(desc.fixedPerElement);
      map.descs.push_back(desc);
      map.bytesPerElement += desc.fixedPerElement;
      ++next;
    }
    off += desc.fixedPerElement;
  }
  map.coverStart = map.offsets.front();
  map.coverEnd = map.offsets.back() + map.lengths.back();
  return map;
}

namespace {

// A projected read fetches windows, not elements: one readAt spans
// neighbouring elements while the unprojected gap before the next cover is
// at most kProjectionGapBytes, and stops growing at kProjectionWindowBytes,
// which bounds the scratch buffer. With four nodes contending on a 4-vCPU
// x86 host a readAt costs ~2.5 us (memory) to ~3.5 us (posix) beyond its
// copy, the price of copying 8-21 KiB, and under the chunk codec every
// readAt decodes whole 64 KiB chunks however few bytes it wants. A gap of
// one codec chunk (one stripe unit) therefore never copies more than a few
// ops' worth of bytes for the op it saves.
constexpr std::uint64_t kProjectionGapBytes = 64 * 1024;
constexpr std::uint64_t kProjectionWindowBytes = 1024 * 1024;

}  // namespace

void IStream::ProjectionMap::gather(const Byte* cover,
                                    std::span<const std::uint64_t> sizes,
                                    Byte* dst) const {
  std::uint64_t pos = 0;
  for (const std::uint64_t sz : sizes) {
    for (size_t f = 0; f < offsets.size(); ++f) {
      std::memcpy(dst, cover + (pos + offsets[f] - coverStart), lengths[f]);
      dst += lengths[f];
    }
    pos += sz;
  }
}

bool IStream::projectChunk(RecordHeader& header,
                           std::optional<std::uint64_t> dataAt,
                           std::vector<std::uint64_t>& chunkSizes,
                           std::uint64_t myChunkBytes,
                           std::uint64_t recordStart, std::uint64_t recordEnd,
                           ByteBuffer& chunk) {
  // Throws UsageError identically on every node — the header bytes were
  // broadcast — so no vote is needed for shape violations.
  const ProjectionMap map = projectionFor(header);

  // One collective serves both the element placement (element j of my
  // chunk starts after the preceding nodes' chunks) and the size-table
  // vote: the chunk totals must sum to the header's dataBytes. An element
  // without the projected prefix is node-local damage; kDamagedChunk makes
  // it fail the vote everywhere.
  std::uint64_t mine = myChunkBytes;
  for (const std::uint64_t sz : chunkSizes) {
    if (sz < map.coverEnd) mine = kDamagedChunk;
  }
  const auto lens = node_->allgatherU64(mine);
  std::uint64_t sum = 0;
  bool overflow = false;
  for (const std::uint64_t len : lens) {
    overflow |= __builtin_add_overflow(sum, len, &sum);
  }
  if (overflow || sum != header.dataBytes) {
    if (opts_.salvage) {
      return skipDamage(recordStart, recordEnd,
                        "size table inconsistent with record header");
    }
    throw FormatError(
        "size table inconsistent with the record header (element sizes do "
        "not sum to its data bytes or do not cover the projected fields)");
  }

  ByteBuffer out(chunkSizes.size() * static_cast<size_t>(map.bytesPerElement));
  if (!dataAt.has_value()) {
    // The full chunk is already in memory: one window covers it.
    if (!chunkSizes.empty()) {
      map.gather(chunk.data() + map.coverStart, chunkSizes, out.data());
    }
  } else {
    std::uint64_t elemAt = *dataAt;
    for (int r = 0; r < node_->id(); ++r) {
      elemAt += lens[static_cast<size_t>(r)];
    }
    ByteBuffer scratch;
    Byte* dst = out.data();
    size_t j = 0;
    while (j < chunkSizes.size()) {
      const std::uint64_t runStart = elemAt + map.coverStart;
      std::uint64_t runEnd = elemAt + map.coverEnd;
      elemAt += chunkSizes[j];
      size_t k = j + 1;
      while (k < chunkSizes.size() &&
             elemAt + map.coverStart - runEnd <= kProjectionGapBytes &&
             elemAt + map.coverEnd - runStart <= kProjectionWindowBytes) {
        runEnd = elemAt + map.coverEnd;
        elemAt += chunkSizes[k++];
      }
      scratch.resize(static_cast<size_t>(runEnd - runStart));
      if (file_->readAt(*node_, runStart, scratch) != scratch.size()) {
        throw IoError("projected read ran past end of file at offset " +
                      std::to_string(runStart));
      }
      map.gather(scratch.data(), {chunkSizes.data() + j, k - j}, dst);
      dst += (k - j) * static_cast<size_t>(map.bytesPerElement);
      j = k;
    }
  }

  // Rewrite the record to its projected shape: extraction sees exactly the
  // projected fields, each element now a fixed bytesPerElement slice.
  chunk = std::move(out);
  header.inserts = map.descs;
  chunkSizes.assign(chunkSizes.size(), map.bytesPerElement);
  return true;
}

bool IStream::finishRecord(bool sorted, RecordHeader header, ByteBuffer chunk,
                           std::vector<std::uint64_t> chunkSizes,
                           std::uint64_t recordStart, std::uint64_t recordEnd,
                           std::uint64_t flowId) {
  const bool sameLayout = header.layout == layout_;
  if (!sorted || sameLayout) {
    // unsortedRead, or a sorted read where nothing moved: phase-1 data is
    // final. (When layouts match, file order restricted to this node IS the
    // node's local order, so read() and unsortedRead() coincide — the paper's
    // "communication can be avoided" case.)
    buffer_ = std::move(chunk);
    elemSizes_ = std::move(chunkSizes);
    elemOffsets_.assign(elemSizes_.size(), 0);
    std::uint64_t off = 0;
    for (size_t j = 0; j < elemSizes_.size(); ++j) {
      elemOffsets_[j] = off;
      off += elemSizes_[j];
    }
  } else {
    // ---- phase 2: plan-based redistribution (paper §4.1) -------------------
    PCXX_OBS_PHASE(node_->obs(), "ds.redist", DsRedistSeconds);
    try {
      // Stream-level memo over the process-wide cache: the records of one
      // file usually share a writer layout, so repeat reads skip even the
      // cache-key encoding.
      if (plan_ != nullptr && planWriter_.has_value() &&
          *planWriter_ == header.layout) {
        PCXX_OBS_COUNT(node_->obs(), RedistPlanHits, 1);
      } else {
        plan_ = redist::planFor(header.layout, layout_, *node_);
        planWriter_ = header.layout;
      }
      redist::execute(*node_, *plan_, chunk, chunkSizes,
                      opts_.redistChunkBytes, buffer_, elemOffsets_,
                      elemSizes_, redistScratch_, flowId);
    } catch (const FormatError& e) {
      // Plan building is pure arithmetic over the broadcast header bytes,
      // so a FormatError (duplicate / out-of-range global index from a
      // corrupt header) is raised identically on every node BEFORE any
      // collective — the skip below is collectively consistent without a
      // vote.
      if (opts_.salvage) return skipDamage(recordStart, recordEnd, e.what());
      throw;
    }
  }

  fs_->model().chargeBookkeeping(*node_,
                                 static_cast<std::uint64_t>(localCount_));

  record_ = std::move(header);
  extractCursors_.assign(static_cast<size_t>(localCount_), 0);
  nextExtract_ = 0;
  state_ = State::Extracting;
  // A record only counts as *recovered* when salvage mode is actually
  // scanning past damage; clean reads must report a clean SalvageReport.
  if (opts_.salvage) salvage_.recordsRecovered += 1;
  if (sorted) {
    PCXX_OBS_COUNT(node_->obs(), DsReads, 1);
  } else {
    PCXX_OBS_COUNT(node_->obs(), DsUnsortedReads, 1);
  }
#if PCXX_OBS_ENABLED
  // Terminate the record's flow chain: the record is fully assembled in
  // local order. "bp":"e" binds the arrow into the enclosing ds.read span.
  if (obs::NodeObs* o = node_->obs();
      flowId != 0 && o != nullptr && o->trace != nullptr) {
    o->trace->flowEnd(node_->id(), "ds.record", o->now(), flowId);
  }
#endif
  return true;
}

void IStream::setupPrefetch() {
  if (opts_.aioPrefetchDepth <= 0) return;
  // The plan runs on the prefetch thread: thread-safe pfs entry points and
  // pure decoding only, never a Node. Everything it needs is captured by
  // value. Anything the synchronous path would reject or salvage makes the
  // plan return false — a miss — so the node thread keeps ownership of all
  // error and salvage semantics.
  pfs::ParallelFilePtr file = file_;
  const int nodeId = node_->id();
  const std::int64_t localCount = localCount_;
  std::int64_t chunkStartElems = 0;
  for (int r = 0; r < nodeId; ++r) chunkStartElems += layout_.localCount(r);
  const std::int64_t layoutSize = layout_.size();
  auto plan = [file, nodeId, localCount, chunkStartElems, layoutSize](
                  std::uint64_t offset, aio::PrefetchedRecord& out,
                  pfs::BgIoStats& stats) -> bool {
    out.headerBytes = readHeaderBytes(
        [&](std::uint64_t off, std::span<Byte> buf) {
          return file->readAtBackground(nodeId, off, buf, stats);
        },
        offset);
    if (out.headerBytes.empty()) return false;
    std::optional<RecordHeader> hdr;
    try {
      hdr = RecordHeader::decode(out.headerBytes);
    } catch (const FormatError&) {
      return false;
    }
    if (hdr->elementCount() != layoutSize) return false;
    const std::uint64_t hdrLen = out.headerBytes.size();
    const std::uint64_t tableAt = offset + hdrLen;
    const std::uint64_t tableBytes = hdr->sizeTableBytes();
    const std::uint64_t recordEnd = recordEndOf(*hdr, offset, hdrLen);
    if (recordEnd > file->size()) return false;
    // A node cannot locate its phase-1 block without every preceding
    // node's chunk size, so the plan fetches the whole size table (there
    // are no collectives off the node thread).
    ByteBuffer table(static_cast<size_t>(tableBytes));
    if (file->readAtBackground(nodeId, tableAt, table, stats) != tableBytes) {
      return false;
    }
    std::uint64_t before = 0;
    std::uint64_t mine = 0;
    std::uint64_t all = 0;
    const std::int64_t total = hdr->elementCount();
    for (std::int64_t j = 0; j < total; ++j) {
      const std::uint64_t sz =
          decodeU64(table.data() + 8 * static_cast<size_t>(j));
      if (j < chunkStartElems) {
        before += sz;
      } else if (j < chunkStartElems + localCount) {
        mine += sz;
      }
      // Partial sums never exceed `all`, so only it can overflow.
      if (__builtin_add_overflow(all, sz, &all)) return false;
    }
    if (all != hdr->dataBytes) return false;  // damaged size table
    out.dataChunk.resize(static_cast<size_t>(mine));
    if (mine > 0 &&
        file->readAtBackground(nodeId, tableAt + tableBytes + before,
                               out.dataChunk, stats) != mine) {
      return false;
    }
    const auto sliceFrom =
        table.begin() + static_cast<std::ptrdiff_t>(8 * chunkStartElems);
    out.sizeChunk.assign(
        sliceFrom, sliceFrom + static_cast<std::ptrdiff_t>(8 * localCount));
    out.start = offset;
    out.next = recordEnd;
    out.bytesRead = 8 + hdrLen + tableBytes + mine;
    out.readOps = mine > 0 ? 4 : 3;
    return true;
  };
  aio::Prefetcher::Options po;
  po.depth = opts_.aioPrefetchDepth;
  po.waitDeadlineSeconds = opts_.aioDrainDeadlineSeconds;
  prefetcher_ =
      std::make_unique<aio::Prefetcher>(node_->machine(), std::move(plan), po);
  restartPrefetch();
}

void IStream::restartPrefetch() {
  if (prefetcher_ == nullptr) return;
  prefetcher_->start(file_->sharedOffset());
  prefetchLive_ = true;
  prefetchEpoch_ = node_->clock().now();
  prefetchPrevReady_ = prefetchEpoch_;
  prefetchConsumedAt_.clear();
}

std::optional<aio::PrefetchedRecord> IStream::tryPrefetched(
    std::uint64_t& flowId) {
  const std::uint64_t recordStart = file_->sharedOffset();
  std::optional<aio::PrefetchedRecord> rec;
  if (prefetchLive_) rec = prefetcher_->consume(recordStart);
  // Background accounting accrues whether or not the record is usable.
  prefetcher_->foldStats(node_->obs());
#if !PCXX_OBS_ENABLED
  (void)flowId;
#endif

  // The collective reads of the record tail must be entered by every node
  // together, so the fast path is all-or-nothing: one miss anywhere makes
  // this record synchronous everywhere.
  const std::uint64_t myHit = rec.has_value() ? 1 : 0;
  if (node_->allreduceSumU64(myHit) !=
      static_cast<std::uint64_t>(node_->nprocs())) {
    prefetchLive_ = false;  // readNext re-aims the chain after the record
    PCXX_OBS_COUNT(node_->obs(), AioPrefetchMisses, 1);
    return std::nullopt;
  }

  // Modeled fetch timeline, maintained on the node thread so the simulated
  // overlap is independent of real scheduling: fetch k starts once fetch
  // k-1 finished AND its slot was free (record k-depth consumed); the
  // reader stalls only until this fetch's modeled completion.
  rt::VirtualClock& clock = node_->clock();
  const double fetchSeconds = fs_->model().backgroundOpSeconds(
      node_->nprocs(), rec->readOps, rec->bytesRead, file_->size(),
      /*isWrite=*/false);
  const size_t idx = prefetchConsumedAt_.size();
  const size_t depth = static_cast<size_t>(opts_.aioPrefetchDepth);
  const double gate =
      idx < depth ? prefetchEpoch_ : prefetchConsumedAt_[idx - depth];
  const double fetchStart = std::max(prefetchPrevReady_, gate);
  const double ready = fetchStart + fetchSeconds;
  prefetchPrevReady_ = ready;
  if (ready > clock.now()) {
    PCXX_OBS_SECONDS(node_->obs(), AioStallSeconds, ready - clock.now());
    // stallTo: prefetch catch-up is a local pipeline stall, already charged
    // to aio.stall_seconds — keep it out of the sync-wait bucket.
    clock.stallTo(ready);
  }
  prefetchConsumedAt_.push_back(clock.now());
#if PCXX_OBS_ENABLED
  {
    obs::NodeObs* o = node_->obs();
    if (o != nullptr && o->trace != nullptr && !o->wallTime) {
      // The record's flow chain starts inside the modeled prefetch span:
      // the background fetch is where the bytes came from, and the step on
      // the node track marks where they were consumed.
      flowId = node_->machine().nextFlowId();
      const int track = o->trace->prefetchTrack(o->nodeId);
      o->trace->begin(track, "aio.prefetch", fetchStart);
      o->trace->flowStart(track, "ds.record", fetchStart, flowId);
      o->trace->end(track, "aio.prefetch", ready);
      o->trace->flowStep(o->nodeId, "ds.record", o->now(), flowId);
    }
  }
#endif
  PCXX_OBS_COUNT(node_->obs(), AioPrefetchHits, 1);
  return rec;
}

}  // namespace pcxx::ds
