#include "dstream/istream.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "util/crc32.h"

#include "util/log.h"

namespace pcxx::ds {

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

const dsindex::IndexEntry* IStream::indexEntryAt(std::uint64_t offset) const {
  const auto it = std::lower_bound(
      index_.entries.begin(), index_.entries.end(), offset,
      [](const dsindex::IndexEntry& e, std::uint64_t off) {
        return e.offset < off;
      });
  if (it == index_.entries.end() || it->offset != offset) return nullptr;
  return &*it;
}

IStream::~IStream() {
  state_ = State::Closed;
  prefetcher_.reset();  // before file_: the plan holds a file reference
  file_.reset();
}

void IStream::close() {
  state_ = State::Closed;
  prefetcher_.reset();  // before file_: the plan holds a file reference
  file_.reset();
}

void IStream::rewind() {
  if (state_ == State::Closed) {
    throw StateError("rewind on a closed d/stream");
  }
  file_->seekShared(*node_, kFileHeaderBytes);
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
    file_->seekShared(*node_, index_.entries[static_cast<size_t>(k)].offset);
    record_.reset();
    state_ = State::Ready;
    restartPrefetch();
    return;
  }
  // No usable footer: replay the chain from the top with k header-only
  // skips — same result, O(k) header reads.
  PCXX_OBS_COUNT(node_->obs(), DsIndexFallbacks, 1);
  file_->seekShared(*node_, kFileHeaderBytes);
  record_.reset();
  state_ = State::Ready;
  restartPrefetch();
  for (std::uint32_t i = 0; i < k; ++i) {
    if (atEnd()) {
      throw UsageError("seekRecord(" + std::to_string(k) +
                       "): the record chain ends after " + std::to_string(i) +
                       " record(s)");
    }
    skipRecord();
  }
  // Mirror the indexed path's k >= recordCount rejection: a chain of
  // exactly k records must throw too, not silently park at end-of-chain.
  if (atEnd()) {
    throw UsageError("seekRecord(" + std::to_string(k) +
                     "): the record chain has only " + std::to_string(k) +
                     " record(s)");
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
  ByteBuffer headerBytes;
  if (node_->id() == 0) {
    Byte prefix[8];
    if (file_->readAt(*node_, recordStart, prefix) == 8) {
      try {
        const std::uint64_t len = RecordHeader::encodedLength(prefix);
        headerBytes.resize(len);
        if (file_->readAt(*node_, recordStart, headerBytes) != len) {
          headerBytes.clear();
        }
      } catch (const FormatError&) {
        headerBytes.clear();
      }
    }
  }
  node_->broadcastBytes(0, headerBytes);
  if (headerBytes.empty()) {
    throw FormatError("truncated or invalid record header at offset " +
                      std::to_string(recordStart));
  }
  RecordHeader header = RecordHeader::decode(headerBytes);
  file_->seekShared(*node_, recordStart + headerBytes.size() +
                                header.sizeTableBytes() + header.dataBytes +
                                header.trailerBytes());
  // Skipping discards any partially extracted record (Figure 2 allows
  // read -> read, and skip is a cheaper read).
  record_.reset();
  state_ = State::Ready;
  restartPrefetch();
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
  return false;
}

bool IStream::readRecordOnce(bool sorted) {
  // ---- read-ahead fast path ------------------------------------------------
  if (prefetcher_ != nullptr) {
    const int got = tryPrefetched(sorted);
    if (got >= 0) return got != 0;
    // Miss: fall through to the synchronous path, which owns all error and
    // salvage semantics.
  }

  // ---- record header (node 0 reads, then broadcast) -----------------------
  const std::uint64_t recordStart = file_->sharedOffset();

  // Record-scoped correlation id: opens a "ds.record" flow chain that the
  // ordered data read and the redistribution exchange extend, so Perfetto
  // links each record to the work that reconstructed it.
  std::uint64_t rid = 0;
#if PCXX_OBS_ENABLED
  obs::NodeObs* fobs = node_->obs();
  if (fobs != nullptr && fobs->trace != nullptr) {
    rid = node_->machine().nextFlowId();
    fobs->trace->flowStart(node_->id(), "ds.record", fobs->now(), rid);
  }
#endif

  ByteBuffer headerBytes;
  if (node_->id() == 0) {
    // Indexed fast path: the footer already knows this record's header
    // length, so one read replaces the prefix-then-header pair. Any
    // disagreement with the bytes falls back to the probing path.
    bool direct = false;
    if (indexValid_) {
      if (const dsindex::IndexEntry* entry = indexEntryAt(recordStart)) {
        headerBytes.resize(entry->headerBytes);
        if (file_->readAt(*node_, recordStart, headerBytes) ==
            entry->headerBytes) {
          try {
            direct =
                headerBytes.size() >= 8 &&
                RecordHeader::encodedLength(
                    std::span<const Byte>(headerBytes.data(), 8)) ==
                    entry->headerBytes;
          } catch (const FormatError&) {
            direct = false;
          }
        }
        if (!direct) headerBytes.clear();
      }
    }
    if (!direct) {
      Byte prefix[8];
      const std::uint64_t got = file_->readAt(*node_, recordStart, prefix);
      if (got == 8) {
        try {
          const std::uint64_t len = RecordHeader::encodedLength(prefix);
          headerBytes.resize(len);
          const std::uint64_t gotAll =
              file_->readAt(*node_, recordStart, headerBytes);
          if (gotAll != len) headerBytes.clear();
        } catch (const FormatError&) {
          headerBytes.clear();
        }
      }
    }
  }
  node_->broadcastBytes(0, headerBytes);
  if (headerBytes.empty()) {
    if (opts_.salvage) {
      // The framing itself is gone; nothing behind this point can be
      // located without it, so the rest of the record chain is the damage.
      return skipDamage(recordStart, chainEnd(),
                        "truncated or invalid record header (torn tail)");
    }
    throw FormatError("truncated or invalid record header at offset " +
                      std::to_string(recordStart) +
                      " (no further record in file?)");
  }
  std::optional<RecordHeader> decoded;
  try {
    decoded = RecordHeader::decode(headerBytes);
  } catch (const FormatError&) {
    // decode() throws identically on every node (the bytes were broadcast).
    if (opts_.salvage) {
      return skipDamage(recordStart, chainEnd(),
                        "record header checksum mismatch (torn tail)");
    }
    throw;
  }
  RecordHeader header = std::move(*decoded);
  PCXX_OBS_COUNT(node_->obs(), DsHeaderDecodes, 1);

  // Salvage pre-check: make sure the whole record extent fits the file
  // BEFORE entering the collective reads, so every node makes the same
  // skip-vs-read decision and no collective sees a short read.
  const std::uint64_t recordEnd = recordStart + headerBytes.size() +
                                  header.sizeTableBytes() + header.dataBytes +
                                  header.trailerBytes();
  if (opts_.salvage && recordEnd > chainEnd()) {
    return skipDamage(recordStart, chainEnd(),
                      "record extends past end of file (torn tail)");
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
  ByteBuffer sizeChunk(static_cast<size_t>(localCount_) * 8);
  file_->readOrdered(*node_, sizeChunk);
  std::vector<std::uint64_t> chunkSizes(static_cast<size_t>(localCount_));
  std::uint64_t myChunkBytes = 0;
  for (std::int64_t j = 0; j < localCount_; ++j) {
    chunkSizes[static_cast<size_t>(j)] =
        decodeU64(sizeChunk.data() + 8 * static_cast<size_t>(j));
    myChunkBytes += chunkSizes[static_cast<size_t>(j)];
  }
  if (opts_.salvage) {
    // A corrupted size table would send the data reads to the wrong
    // extents; cross-check its sum against the header before using it.
    // The allreduce keeps the skip decision collectively consistent.
    const std::uint64_t tableSum = node_->allreduceSumU64(myChunkBytes);
    if (tableSum != header.dataBytes) {
      return skipDamage(recordStart, recordEnd,
                        "size table inconsistent with record header");
    }
  }

  // ---- projected data (windowed positional reads) --------------------------
  if (!projection_.empty()) {
    ByteBuffer projChunk;
    if (!projectChunk(header,
                      recordStart + headerBytes.size() +
                          header.sizeTableBytes(),
                      chunkSizes, myChunkBytes, recordStart, recordEnd,
                      projChunk)) {
      return false;  // salvage skipped the record
    }
    // The record is consumed: advance the shared cursor past data + trailer
    // in one collective move (the data CRC cannot be verified — the full
    // section was never fetched).
    file_->seekShared(*node_, recordEnd);
    PCXX_OBS_COUNT(node_->obs(), DsIndexProjections, 1);
    return finishRecord(sorted, std::move(header), std::move(projChunk),
                        std::move(chunkSizes), recordStart, recordEnd, rid);
  }

  // ---- data (phase 1: conforming contiguous read) --------------------------
  ByteBuffer chunk(static_cast<size_t>(myChunkBytes));
#if PCXX_OBS_ENABLED
  if (fobs != nullptr && fobs->trace != nullptr) {
    fobs->trace->flowStep(node_->id(), "ds.record", fobs->now(), rid);
  }
#endif
  file_->readOrdered(*node_, chunk);

  // ---- optional data checksum trailer ---------------------------------------
  if (!checkTrailer(header, chunk, myChunkBytes, recordStart, recordEnd)) {
    return false;
  }

  return finishRecord(sorted, std::move(header), std::move(chunk),
                      std::move(chunkSizes), recordStart, recordEnd, rid);
}

bool IStream::checkTrailer(const RecordHeader& header, const ByteBuffer& chunk,
                           std::uint64_t myChunkBytes,
                           std::uint64_t recordStart,
                           std::uint64_t recordEnd) {
  if (!header.hasDataCrc()) return true;
  const auto crcs = node_->allgatherU64(crc32(chunk));
  const auto lens = node_->allgatherU64(myChunkBytes);
  std::uint32_t dataCrc = 0;
  for (int i = 0; i < node_->nprocs(); ++i) {
    dataCrc = crc32Combine(dataCrc,
                           static_cast<std::uint32_t>(
                               crcs[static_cast<size_t>(i)]),
                           lens[static_cast<size_t>(i)]);
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

// Chunk total a node reports in the projection allgather when one of its
// elements is smaller than the projected cover (a damaged size table).
constexpr std::uint64_t kShortElement = ~std::uint64_t{0};

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
  // chunk starts after the preceding nodes' chunks) and the damage vote:
  // an element without the projected prefix is node-local size-table
  // damage, and the sentinel keeps the skip/throw decision collective.
  std::uint64_t mine = myChunkBytes;
  for (const std::uint64_t sz : chunkSizes) {
    if (sz < map.coverEnd) mine = kShortElement;
  }
  const auto lens = node_->allgatherU64(mine);
  if (std::find(lens.begin(), lens.end(), kShortElement) != lens.end()) {
    if (opts_.salvage) {
      return skipDamage(recordStart, recordEnd,
                        "element smaller than the projected field region");
    }
    throw FormatError(
        "element smaller than the projected field region (size table "
        "inconsistent with the record's insert shapes)");
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
  } else if (opts_.redistUsePlan) {
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
  } else {
    PCXX_OBS_PHASE(node_->obs(), "ds.redist", DsRedistSeconds);
    if (!redistributeLegacy(header, chunk, chunkSizes, recordStart,
                            recordEnd, flowId)) {
      return false;
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

bool IStream::redistributeLegacy(const RecordHeader& header,
                                 const ByteBuffer& chunk,
                                 const std::vector<std::uint64_t>& chunkSizes,
                                 std::uint64_t recordStart,
                                 std::uint64_t recordEnd,
                                 std::uint64_t flowId) {
#if !PCXX_OBS_ENABLED
  (void)flowId;
#endif
  // ---- phase 2, seed path: sort + send to owner nodes (paper §4.1) --------
  // Format problems found here are NODE-LOCAL (each node sees only its own
  // chunk and its own arriving elements), so nothing may throw before the
  // collectives: errors are captured in `error` and, in salvage mode,
  // resolved by a vote after the exchange so every node skips together.
  std::string error;
  // Global indices of elements in file order, from the WRITER's layout.
  std::vector<std::int64_t> fileOrderGlobals;
  fileOrderGlobals.reserve(static_cast<size_t>(header.elementCount()));
  for (int proc = 0; proc < header.layout.nprocs(); ++proc) {
    const auto locals = header.layout.localElements(proc);
    fileOrderGlobals.insert(fileOrderGlobals.end(), locals.begin(),
                            locals.end());
  }
  // My chunk covers file positions [chunkStart, chunkStart + localCount_).
  std::int64_t chunkStart = 0;
  for (int r = 0; r < node_->id(); ++r) {
    chunkStart += layout_.localCount(r);
  }
  // Route each element of my chunk to its reading owner.
  std::vector<ByteBuffer> sendTo(static_cast<size_t>(node_->nprocs()));
  std::uint64_t off = 0;
  for (std::int64_t k = 0; k < localCount_; ++k) {
    const std::int64_t g =
        fileOrderGlobals[static_cast<size_t>(chunkStart + k)];
    const std::uint64_t bytes = chunkSizes[static_cast<size_t>(k)];
    off += bytes;
    if (g < 0 || g >= layout_.size()) {
      if (error.empty()) {
        error = "record header routes global index " + std::to_string(g) +
                " outside the collection during redistribution";
      }
      continue;
    }
    const int owner = layout_.ownerOf(g);
    ByteBuffer& out = sendTo[static_cast<size_t>(owner)];
    ByteWriter w(out);
    w.i64(g);
    w.u64(bytes);
    w.bytes({chunk.data() + (off - bytes), static_cast<size_t>(bytes)});
    if (owner != node_->id()) {
      PCXX_OBS_COUNT(node_->obs(), RedistElementsMoved, 1);
    }
  }
  for (int peer = 0; peer < node_->nprocs(); ++peer) {
    const auto& buf = sendTo[static_cast<size_t>(peer)];
    if (peer == node_->id() || buf.empty()) continue;
    PCXX_OBS_COUNT(node_->obs(), RedistBytesSent, buf.size());
    PCXX_OBS_COUNT(node_->obs(), RedistMessagesSent, 1);
    PCXX_OBS_PEER_BYTES(node_->obs(), peer, buf.size());
  }
  [[maybe_unused]] const double waitedBefore = node_->clock().waitedSeconds();
#if PCXX_OBS_ENABLED
  if (obs::NodeObs* o = node_->obs();
      flowId != 0 && o != nullptr && o->trace != nullptr) {
    o->trace->flowStep(node_->id(), "ds.record", o->now(), flowId);
  }
#endif
  const auto received = node_->alltoallv(sendTo);
  PCXX_OBS_SECONDS(node_->obs(), RedistWaitSeconds,
                   node_->clock().waitedSeconds() - waitedBefore);

  // Collect my owned elements, then order them by ascending global index
  // (= local order).
  std::map<std::int64_t, std::pair<const Byte*, std::uint64_t>> byGlobal;
  for (const ByteBuffer& buf : received) {
    ByteReader r(buf);
    while (r.remaining() > 0) {
      const std::int64_t g = r.i64();
      const std::uint64_t bytes = r.u64();
      const auto span = r.bytes(static_cast<size_t>(bytes));
      const auto [it, inserted] =
          byGlobal.emplace(g, std::make_pair(span.data(), bytes));
      if (!inserted && error.empty()) {
        // A corrupt header listed the same global index under two writer
        // positions; the map would silently keep one copy and a later
        // "missing element" error would point at the wrong index.
        error = "duplicate delivery for global index " + std::to_string(g) +
                " during redistribution — the record header's element "
                "mapping is corrupt";
      }
    }
  }
  const auto myGlobals = layout_.localElements(node_->id());
  if (error.empty() &&
      static_cast<std::int64_t>(byGlobal.size()) != localCount_) {
    error =
        "redistribution did not deliver exactly the local element set "
        "(file layout inconsistent with its header)";
  }
  if (error.empty()) {
    buffer_.clear();
    elemOffsets_.assign(myGlobals.size(), 0);
    elemSizes_.assign(myGlobals.size(), 0);
    std::uint64_t pos = 0;
    for (size_t j = 0; j < myGlobals.size(); ++j) {
      const auto it = byGlobal.find(myGlobals[j]);
      if (it == byGlobal.end()) {
        error = "redistribution missing element " +
                std::to_string(myGlobals[j]);
        break;
      }
      elemOffsets_[j] = pos;
      elemSizes_[j] = it->second.second;
      buffer_.insert(buffer_.end(), it->second.first,
                     it->second.first + it->second.second);
      pos += it->second.second;
    }
  }
  if (opts_.salvage) {
    // One node's corrupt chunk is invisible to the others; vote so the
    // whole machine skips the record together.
    const std::uint64_t bad =
        node_->allreduceSumU64(error.empty() ? 0 : 1);
    if (bad != 0) {
      return skipDamage(recordStart, recordEnd,
                        error.empty()
                            ? "a peer node detected inconsistent "
                              "redistribution routing"
                            : error);
    }
  } else if (!error.empty()) {
    throw FormatError(error);
  }
  return true;
}

void IStream::setupPrefetch() {
#if PCXX_AIO_ENABLED
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
    Byte prefix[8];
    if (file->readAtBackground(nodeId, offset, prefix, stats) != 8) {
      return false;
    }
    std::uint64_t hdrLen = 0;
    try {
      hdrLen = RecordHeader::encodedLength(prefix);
    } catch (const FormatError&) {
      return false;
    }
    out.headerBytes.resize(static_cast<size_t>(hdrLen));
    if (file->readAtBackground(nodeId, offset, out.headerBytes, stats) !=
        hdrLen) {
      return false;
    }
    std::optional<RecordHeader> hdr;
    try {
      hdr = RecordHeader::decode(out.headerBytes);
    } catch (const FormatError&) {
      return false;
    }
    if (hdr->elementCount() != layoutSize) return false;
    const std::uint64_t tableAt = offset + hdrLen;
    const std::uint64_t tableBytes = hdr->sizeTableBytes();
    const std::uint64_t recordEnd =
        tableAt + tableBytes + hdr->dataBytes + hdr->trailerBytes();
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
      all += sz;
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
#endif
}

void IStream::restartPrefetch() {
  if (prefetcher_ == nullptr) return;
  prefetcher_->start(file_->sharedOffset());
  prefetchLive_ = true;
  prefetchEpoch_ = node_->clock().now();
  prefetchPrevReady_ = prefetchEpoch_;
  prefetchConsumedAt_.clear();
}

int IStream::tryPrefetched(bool sorted) {
  const std::uint64_t recordStart = file_->sharedOffset();
  std::optional<aio::PrefetchedRecord> rec;
  if (prefetchLive_) rec = prefetcher_->consume(recordStart);
  // Background accounting accrues whether or not the record is usable.
  const pfs::BgIoStats bg = prefetcher_->takeStatsDelta();
  PCXX_OBS_COUNT(node_->obs(), PfsRetries, bg.retries);
  PCXX_OBS_COUNT(node_->obs(), PfsGiveUps, bg.giveUps);
  PCXX_OBS_SECONDS(node_->obs(), PfsBackoffSeconds, bg.backoffSeconds);
  PCXX_OBS_COUNT(node_->obs(), AioBgReadBytes, bg.bytesRead);
  PCXX_OBS_COUNT(node_->obs(), PfsCodecRawBytes, bg.codecRawBytes);
  PCXX_OBS_COUNT(node_->obs(), PfsCodecStoredBytes, bg.codecStoredBytes);
  PCXX_OBS_COUNT(node_->obs(), PfsCodecDedupHits, bg.codecDedupHits);
  PCXX_OBS_COUNT(node_->obs(), PfsCodecDamagedChunks, bg.codecDamagedChunks);
  PCXX_OBS_SECONDS(node_->obs(), PfsCodecSeconds, bg.codecSeconds);
#if !PCXX_OBS_ENABLED
  (void)bg;
#endif

  // The collective reads below must be entered by every node together, so
  // the fast path is all-or-nothing: one miss anywhere makes this record
  // synchronous everywhere.
  const std::uint64_t myHit = rec.has_value() ? 1 : 0;
  if (node_->allreduceSumU64(myHit) !=
      static_cast<std::uint64_t>(node_->nprocs())) {
    prefetchLive_ = false;  // readRecord re-aims the chain after the record
    PCXX_OBS_COUNT(node_->obs(), AioPrefetchMisses, 1);
    return -1;
  }

  aio::PrefetchedRecord r = std::move(*rec);
  // Modeled fetch timeline, maintained on the node thread so the simulated
  // overlap is independent of real scheduling: fetch k starts once fetch
  // k-1 finished AND its slot was free (record k-depth consumed); the
  // reader stalls only until this fetch's modeled completion.
  rt::VirtualClock& clock = node_->clock();
  const double fetchSeconds = fs_->model().backgroundOpSeconds(
      node_->nprocs(), r.readOps, r.bytesRead, file_->size(),
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
  std::uint64_t rid = 0;
#if PCXX_OBS_ENABLED
  {
    obs::NodeObs* o = node_->obs();
    if (o != nullptr && o->trace != nullptr && !o->wallTime) {
      // The record's flow chain starts inside the modeled prefetch span:
      // the background fetch is where the bytes came from, and the step on
      // the node track marks where they were consumed.
      rid = node_->machine().nextFlowId();
      const int track = o->trace->prefetchTrack(o->nodeId);
      o->trace->begin(track, "aio.prefetch", fetchStart);
      o->trace->flowStart(track, "ds.record", fetchStart, rid);
      o->trace->end(track, "aio.prefetch", ready);
      o->trace->flowStep(o->nodeId, "ds.record", o->now(), rid);
    }
  }
#endif
  PCXX_OBS_COUNT(node_->obs(), AioPrefetchHits, 1);

  // The plan decoded these exact bytes, so this cannot throw; every node
  // holds an identical copy (no broadcast needed).
  RecordHeader header = RecordHeader::decode(r.headerBytes);
  PCXX_OBS_COUNT(node_->obs(), DsHeaderDecodes, 1);

  std::vector<std::uint64_t> chunkSizes(static_cast<size_t>(localCount_));
  std::uint64_t myChunkBytes = 0;
  for (std::int64_t j = 0; j < localCount_; ++j) {
    chunkSizes[static_cast<size_t>(j)] =
        decodeU64(r.sizeChunk.data() + 8 * static_cast<size_t>(j));
    myChunkBytes += chunkSizes[static_cast<size_t>(j)];
  }
  if (opts_.salvage) {
    // Mirror the synchronous path's collective cross-check (the plan
    // already validated the table against the header, so this passes on
    // every node that voted hit).
    const std::uint64_t tableSum = node_->allreduceSumU64(myChunkBytes);
    if (tableSum != header.dataBytes) {
      skipDamage(recordStart, r.next,
                 "size table inconsistent with record header");
      restartPrefetch();
      return 0;
    }
  }
  // The chunks were fetched positionally; advance the shared cursor past
  // the data section (collective) so the stream sits exactly where the
  // synchronous path would before its trailer check.
  file_->seekShared(*node_, r.next - header.trailerBytes());
  if (!checkTrailer(header, r.dataChunk, myChunkBytes, recordStart, r.next)) {
    restartPrefetch();
    return 0;
  }
  if (!projection_.empty()) {
    // The full chunk is already in memory (and CRC-verified above), so the
    // projection is a stride copy rather than a strided read.
    if (!projectChunk(header, std::nullopt, chunkSizes, myChunkBytes,
                      recordStart, r.next, r.dataChunk)) {
      restartPrefetch();
      return 0;
    }
    PCXX_OBS_COUNT(node_->obs(), DsIndexProjections, 1);
  }
  if (!finishRecord(sorted, std::move(header), std::move(r.dataChunk),
                    std::move(chunkSizes), recordStart, r.next, rid)) {
    // Salvage skipped a record whose header routes a corrupt element set;
    // the shared cursor moved past it.
    restartPrefetch();
    return 0;
  }
  return 1;
}

}  // namespace pcxx::ds
