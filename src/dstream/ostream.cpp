#include "dstream/ostream.h"

#include <cstring>

#include "util/crc32.h"

#include "util/log.h"

namespace pcxx::ds {

OStream::OStream(pfs::Pfs& fs, const coll::Distribution* d,
                 const coll::Align* a, const std::string& fileName,
                 StreamOptions opts)
    : node_(&rt::thisNode()),
      fs_(&fs),
      layout_(*d, *a),
      opts_(opts),
      localCount_(0) {
  openFile(fileName);
}

OStream::OStream(pfs::Pfs& fs, const coll::Distribution* d,
                 const std::string& fileName, StreamOptions opts)
    : node_(&rt::thisNode()), fs_(&fs), layout_(*d), opts_(opts),
      localCount_(0) {
  openFile(fileName);
}

OStream::OStream(const coll::Distribution* d, const coll::Align* a,
                 const std::string& fileName, StreamOptions opts)
    : OStream(defaultPfs(), d, a, fileName, opts) {}

OStream::OStream(const coll::Distribution* d, const std::string& fileName,
                 StreamOptions opts)
    : OStream(defaultPfs(), d, fileName, opts) {}

OStream::OStream(pfs::Pfs& fs, pfs::ParallelFilePtr file, coll::Layout layout,
                 StreamOptions opts)
    : node_(&rt::thisNode()),
      fs_(&fs),
      file_(std::move(file)),
      layout_(std::move(layout)),
      opts_(opts),
      localCount_(layout_.localCount(node_->id())) {
  PCXX_REQUIRE(file_ != nullptr, "OStream requires an open file");
  pending_.resize(static_cast<size_t>(localCount_));
  setupAsync();
}

void OStream::setupAsync() {
  if (opts_.aioQueueDepth <= 0) return;
  aio::Writer::Options wo;
  wo.queueDepth = opts_.aioQueueDepth;
  wo.poolBuffers = opts_.aioPoolBuffers;
  wo.drainDeadlineSeconds = opts_.aioDrainDeadlineSeconds;
  writer_ = std::make_unique<aio::Writer>(*node_, file_, wo);
}

void OStream::openFile(const std::string& fileName) {
  localCount_ = layout_.localCount(node_->id());
  pending_.resize(static_cast<size_t>(localCount_));
  if (opts_.append && fs_->exists(fileName)) {
    file_ = fs_->open(*node_, fileName, pfs::OpenMode::Read);
    // Validate the existing file header, then position at the end.
    ByteBuffer hdr(kFileHeaderBytes);
    if (node_->id() == 0) {
      const std::uint64_t got = file_->readAt(*node_, 0, hdr);
      if (got != kFileHeaderBytes) {
        hdr.clear();
      }
    }
    node_->broadcastBytes(0, hdr);
    verifyFileHeader(hdr);
    // Probe for an existing index footer.
    //  - Valid: adopt its entries and position at the footer so new records
    //    overwrite it (the grown footer is re-appended on close).
    //  - Corrupt, trailer intact: the self-checksummed trailer still pins
    //    the exact chain end, so position there and let new records
    //    overwrite the broken footer body; the old records' entries are
    //    unknown, so the file continues as a plain (footer-less) chain.
    //    Appending AFTER the broken footer instead would bury it mid-chain
    //    and make every new record unreadable.
    //  - Corrupt, trailer untrusted: the footer's extent is unknown, so
    //    any append either buries it mid-chain or overwrites records —
    //    refuse.
    //  - Absent: plain chain, append at end of file.
    // Whenever the old footer region will be overwritten, the stale
    // trailer at the old EOF is zeroed before the first record write (see
    // write()): a surviving trailer would keep pinning readers' chain end
    // at the old footer offset, silently hiding the appended records.
    enum : Byte { kAbsent = 0, kValid = 1, kOverwrite = 2, kRefuse = 3 };
    ByteBuffer ctl(1 + 8 + 8);
    ByteBuffer indexBody;
    if (node_->id() == 0) {
      const std::uint64_t fileBytes = file_->size();
      const dsindex::ProbeResult probe = dsindex::probeFooter(
          [&](std::uint64_t off, std::span<Byte> out) {
            return file_->readAt(*node_, off, out);
          },
          fileBytes, kFileHeaderBytes);
      if (probe.status == dsindex::ProbeStatus::Valid) {
        ctl[0] = kValid;
        indexBody = probe.index.encodeBody();
      } else if (probe.status == dsindex::ProbeStatus::Corrupt) {
        ctl[0] = probe.haveFooterOffset ? kOverwrite : kRefuse;
      } else {
        ctl[0] = kAbsent;
      }
      encodeU64(probe.footerOffset, ctl.data() + 1);
      encodeU64(fileBytes, ctl.data() + 9);
    }
    node_->broadcastBytes(0, ctl);
    node_->broadcastBytes(0, indexBody);
    const Byte probeCode = ctl[0];
    const std::uint64_t footerOffset = decodeU64(ctl.data() + 1);
    const std::uint64_t fileBytes = decodeU64(ctl.data() + 9);
    switch (probeCode) {
      case kValid:
        index_ = dsindex::FileIndex::decodeBody(indexBody);
        footerEnabled_ = true;
        staleTrailerAt_ = fileBytes - dsindex::kTrailerBytes;
        file_->seekShared(*node_, footerOffset);
        break;
      case kOverwrite:
        staleTrailerAt_ = fileBytes - dsindex::kTrailerBytes;
        file_->seekShared(*node_, footerOffset);
        break;
      case kRefuse:
        throw FormatError(
            "append: existing file carries a corrupt index footer of "
            "unknown extent; appending would make the new records "
            "unreadable (run dsdump --repair first)");
      default:
        file_->seekShared(*node_, fileBytes);
        break;
    }
    setupAsync();
    return;
  }
  if (opts_.codec.empty()) {
    file_ = fs_->open(*node_, fileName, pfs::OpenMode::Create);
  } else {
    PCXX_REQUIRE(opts_.codec == "none" || opts_.codec == "lz",
                 "StreamOptions::codec must be \"\", \"none\" or \"lz\"");
    pfs::CodecSpec spec;
    spec.enabled = opts_.codec == "lz";
    spec.codec = pfs::CodecId::Lz;
    if (opts_.codecChunkBytes != 0) spec.chunkBytes = opts_.codecChunkBytes;
    spec.dedupBase = opts_.codecDedupBase;
    file_ = fs_->open(*node_, fileName, pfs::OpenMode::Create, spec);
  }
  footerEnabled_ = opts_.indexFooter;
  if (node_->id() == 0) {
    const ByteBuffer hdr = encodeFileHeader();
    file_->writeAt(*node_, 0, hdr);
  }
  file_->seekShared(*node_, kFileHeaderBytes);
  setupAsync();
}

OStream::~OStream() {
  if (state_ == State::Closed) return;
  const bool pendingInserts = state_ == State::Inserting;
  if (pendingInserts) {
    PCXX_LOG_WARN(
        "OStream('%s') destroyed with inserts that were never written",
        file_ != nullptr ? file_->name().c_str() : "?");
  }
  state_ = State::Closed;
  const bool writeBehindFailed = writer_ != nullptr && writer_->failed();
  if (writeBehindFailed) {
    PCXX_LOG_WARN(
        "OStream('%s') destroyed with an unobserved write-behind failure; "
        "the file keeps its durable prefix (call close() to observe errors)",
        file_ != nullptr ? file_->name().c_str() : "?");
  }
  writer_.reset();  // best-effort flush of queued blocks; never throws
  if (!writeBehindFailed) {
    // appendFooter is collective-free, so it is safe here; a failure only
    // costs the accelerator (readers fall back to chain replay). Pending
    // inserts never touched the file — the cursor is still record-aligned
    // after the last write() — so the footer stays correct even on the
    // warning path above; skipping it would leave an append-mode file
    // whose stale trailer was zeroed with footer remnants mid-chain.
    // Only an unobserved write-behind failure forbids it: the cursor may
    // then sit past the durable bytes and the footer would lie.
    try {
      appendFooter();
    } catch (...) {
    }
  }
  file_.reset();
}

void OStream::close() {
  if (state_ == State::Closed) return;
  if (state_ == State::Inserting) {
    throw StateError(
        "close(): stream has pending inserts; call write() first");
  }
  state_ = State::Closed;
  if (writer_ != nullptr) {
    // Drain before releasing the file: a failed background flush must
    // surface here as its typed error, not vanish with the stream.
    try {
      writer_->drain();
    } catch (...) {
      writer_.reset();
      file_.reset();
      throw;
    }
    writer_.reset();
  }
  appendFooter();
  file_.reset();
}

std::uint32_t OStream::layoutDigest() {
  if (!layoutDigestReady_) {
    ByteBuffer enc;
    ByteWriter w(enc);
    layout_.encode(w);
    layoutDigest_ = crc32(enc);
    layoutDigestReady_ = true;
  }
  return layoutDigest_;
}

void OStream::appendFooter() {
  if (!footerEnabled_ || file_ == nullptr) return;
  footerEnabled_ = false;  // at most one footer per stream
  const std::uint64_t footerAt = file_->sharedOffset();
  if (node_->id() == 0) {
    const ByteBuffer footer = index_.encodeFooter(footerAt);
    file_->writeAt(*node_, footerAt, footer);
    if (opts_.syncOnWrite) file_->syncStorage();
  }
  PCXX_OBS_COUNT(node_->obs(), DsIndexFooterWrites, 1);
}

void OStream::checkInsert(const coll::Layout& collectionLayout) const {
  if (state_ == State::Closed) {
    throw StateError("insert on a closed d/stream");
  }
  // The interleaving constraint (paper §3): all collections inserted
  // before a write must share the stream's size and layout.
  if (collectionLayout != layout_) {
    throw UsageError(
        "inserted collection's distribution/alignment does not match the "
        "d/stream's; interleaved inserts require identical layouts");
  }
}

void OStream::beginInsert(std::uint32_t tag, InsertKind kind,
                          std::uint32_t fixedPerElement) {
  PCXX_OBS_COUNT(node_->obs(), DsInserts, 1);
  descs_.push_back(InsertDesc{tag, kind, fixedPerElement});
  state_ = State::Inserting;
}

std::vector<Entry>& OStream::entriesFor(std::int64_t localIdx) {
  return pending_[static_cast<size_t>(localIdx)];
}

HeaderMode OStream::chooseHeaderMode() const {
  switch (opts_.headerPolicy) {
    case StreamOptions::HeaderPolicy::ForceGathered:
      return HeaderMode::Gathered;
    case StreamOptions::HeaderPolicy::ForceParallel:
      return HeaderMode::Parallel;
    case StreamOptions::HeaderPolicy::Auto:
      break;
  }
  return layout_.size() >= opts_.parallelHeaderThreshold
             ? HeaderMode::Parallel
             : HeaderMode::Gathered;
}

void OStream::write() {
  if (state_ == State::Closed) {
    throw StateError("write on a closed d/stream");
  }
  if (state_ != State::Inserting) {
    throw StateError("write() requires at least one insert (Figure 2)");
  }
  if (writer_ != nullptr) writer_->rethrowPending();
  PCXX_OBS_PHASE(node_->obs(), "ds.write", DsWriteSeconds);

  // First record after an append-mode open that adopted (or is
  // overwriting) an existing footer: zero the old trailer before any
  // record byte lands. If the trailer survived — new bytes shorter than
  // the old footer plus a teardown that never appends a fresh footer —
  // readers would pin the chain end at the old footer offset and silently
  // never see the records written below.
  if (staleTrailerAt_ != 0) {
    if (node_->id() == 0) {
      const ByteBuffer zeros(static_cast<size_t>(dsindex::kTrailerBytes));
      file_->writeAt(*node_, staleTrailerAt_, zeros);
    }
    staleTrailerAt_ = 0;
  }

  // Record-scoped correlation id: opens a "ds.record" flow chain on this
  // node's track that the downstream stages (pfs ordered writes or the aio
  // flusher's modeled flush span) extend/terminate, so Perfetto links the
  // record to the background work that carried its bytes.
  std::uint64_t rid = 0;
#if PCXX_OBS_ENABLED
  obs::NodeObs* fobs = node_->obs();
  if (fobs != nullptr && fobs->trace != nullptr) {
    rid = node_->machine().nextFlowId();
    fobs->trace->flowStart(node_->id(), "ds.record", fobs->now(), rid);
  }
#endif

  // Step 0: traverse the pointer lists — per-element sizes and the packed
  // local data buffer (the "per-node buffer" of Figure 4). In async mode
  // the data is packed straight into a recycled staging buffer, so the
  // steady state allocates nothing.
  std::uint64_t localBytes = 0;
  ByteBuffer sizeTableLocal;
  ByteBuffer data =
      writer_ != nullptr ? writer_->acquireBuffer() : ByteBuffer{};
  {
    PCXX_OBS_PHASE(node_->obs(), "ds.bufferFill", DsBufferFillSeconds);
    sizeTableLocal.reserve(static_cast<size_t>(localCount_) * 8);
    for (const auto& entries : pending_) {
      std::uint64_t elemBytes = 0;
      for (const Entry& e : entries) elemBytes += e.bytes;
      Byte enc[8];
      encodeU64(elemBytes, enc);
      sizeTableLocal.insert(sizeTableLocal.end(), enc, enc + 8);
      localBytes += elemBytes;
    }
    data.reserve(static_cast<size_t>(localBytes));
    for (const auto& entries : pending_) {
      for (const Entry& e : entries) {
        const Byte* p = static_cast<const Byte*>(e.ptr);
        data.insert(data.end(), p, p + e.bytes);
      }
    }
    fs_->model().chargeBookkeeping(*node_, static_cast<std::uint64_t>(
                                               localCount_));
  }
  PCXX_OBS_COUNT(node_->obs(), DsBufferFillBytes, data.size());
  PCXX_OBS_COUNT(node_->obs(), DsSizeTableBytes, sizeTableLocal.size());
  PCXX_OBS_TRACE_COUNTER(node_->obs(), "ds.bufferBytes", data.size());

  // Step 1 (paper §4.1): distribution and size information. All nodes
  // construct the identical record header.
  ByteBuffer headerBytes;
  std::uint32_t dataCrc = 0;
  std::uint64_t totalBytes = 0;
  // The allgather replaces the former allreduce at the same collective
  // cost: its sum is the record's total data bytes, and the per-node
  // vector is exactly the extent table the index footer records.
  std::vector<std::uint64_t> extents;
  {
    PCXX_OBS_PHASE(node_->obs(), "ds.header", DsHeaderSeconds);
    extents = node_->allgatherU64(localBytes);
    for (const std::uint64_t b : extents) totalBytes += b;
  }
  const HeaderMode mode = chooseHeaderMode();
  RecordHeader header{recordSeq_, mode, layout_, descs_, totalBytes};
  if (opts_.checksumData) header.flags |= kRecordFlagDataCrc;
  {
    PCXX_OBS_PHASE(node_->obs(), "ds.header", DsHeaderSeconds);
    headerBytes = header.encode();

    // Each node checksums only its own block; the data-section CRC is the
    // in-order combination. The block lengths are the extents gathered
    // above.
    if (opts_.checksumData) {
      const auto crcs = node_->allgatherU64(crc32(data));
      for (int i = 0; i < node_->nprocs(); ++i) {
        dataCrc = crc32Combine(dataCrc,
                               static_cast<std::uint32_t>(
                                   crcs[static_cast<size_t>(i)]),
                               extents[static_cast<size_t>(i)]);
      }
    }
  }
  PCXX_OBS_COUNT(node_->obs(), DsHeaderEncodes, 1);
  PCXX_OBS_COUNT(node_->obs(), DsHeaderBytes, headerBytes.size());

  // syncOnWrite in async mode rides the last background job of the record
  // (the flusher syncs storage after that block lands) instead of the
  // collective sync(); see docs/ASYNC.md for the durability ordering.
  const bool syncViaFlusher = writer_ != nullptr && opts_.syncOnWrite;

  // The shared cursor sits exactly at the record's first byte in both
  // header modes (reservations advance it synchronously even when the
  // data travels via the write-behind flusher).
  const std::uint64_t recordStart = file_->sharedOffset();

  if (mode == HeaderMode::Parallel) {
    // Node 0 writes the header; the size table and data go out as two
    // parallel node-order writes.
    if (node_->id() == 0) {
      file_->writeAt(*node_, recordStart, headerBytes);
    }
    file_->seekShared(*node_, recordStart + headerBytes.size());
    if (writer_ != nullptr) {
      // Async: the collective reservations advance the shared cursor (and
      // all node-order bookkeeping) exactly like writeOrdered, but the
      // blocks themselves travel via the write-behind flusher.
      const pfs::OrderedReservation tableRes =
          file_->reserveOrdered(*node_, sizeTableLocal.size());
      ByteBuffer tableBuf = writer_->acquireBuffer();
      tableBuf.assign(sizeTableLocal.begin(), sizeTableLocal.end());
      writer_->submit(tableRes.offset, std::move(tableBuf),
                      tableRes.transferSeconds, false, rid);
      const pfs::OrderedReservation dataRes =
          file_->reserveOrdered(*node_, data.size());
      writer_->submit(dataRes.offset, std::move(data),
                      dataRes.transferSeconds, syncViaFlusher, rid);
    } else {
      file_->writeOrdered(*node_, sizeTableLocal);
#if PCXX_OBS_ENABLED
      if (fobs != nullptr && fobs->trace != nullptr) {
        fobs->trace->flowStep(node_->id(), "ds.record", fobs->now(), rid);
      }
#endif
      file_->writeOrdered(*node_, data);
#if PCXX_OBS_ENABLED
      // Synchronous chains terminate here: the record's bytes are on
      // storage. (Async chains terminate on the flusher track instead.)
      if (fobs != nullptr && fobs->trace != nullptr) {
        fobs->trace->flowEnd(node_->id(), "ds.record", fobs->now(), rid);
      }
#endif
    }
  } else {
    // Gathered: the size table is collected to node 0 and written at the
    // head of node 0's block, together with the header and node 0's data —
    // one parallel write total (the paper's small-collection optimization).
    auto gathered = node_->gatherBytes(0, sizeTableLocal);
    ByteBuffer block;
    if (node_->id() == 0) {
      if (writer_ != nullptr) block = writer_->acquireBuffer();
      block.reserve(headerBytes.size() +
                    static_cast<size_t>(header.sizeTableBytes()) +
                    data.size());
      block.insert(block.end(), headerBytes.begin(), headerBytes.end());
      for (const auto& part : gathered) {
        block.insert(block.end(), part.begin(), part.end());
      }
      block.insert(block.end(), data.begin(), data.end());
    }
    ByteBuffer& myBlock = node_->id() == 0 ? block : data;
    if (writer_ != nullptr) {
      const pfs::OrderedReservation res =
          file_->reserveOrdered(*node_, myBlock.size());
      writer_->submit(res.offset, std::move(myBlock), res.transferSeconds,
                      syncViaFlusher, rid);
      if (node_->id() == 0) {
        writer_->releaseBuffer(std::move(data));  // folded into the block
      }
    } else {
#if PCXX_OBS_ENABLED
      if (fobs != nullptr && fobs->trace != nullptr) {
        fobs->trace->flowStep(node_->id(), "ds.record", fobs->now(), rid);
      }
#endif
      file_->writeOrdered(*node_, myBlock);
#if PCXX_OBS_ENABLED
      if (fobs != nullptr && fobs->trace != nullptr) {
        fobs->trace->flowEnd(node_->id(), "ds.record", fobs->now(), rid);
      }
#endif
    }
  }

  if (opts_.checksumData) {
    const std::uint64_t trailerAt = file_->sharedOffset();
    if (node_->id() == 0) {
      Byte enc[4];
      encodeU32(dataCrc, enc);
      file_->writeAt(*node_, trailerAt, enc);
    }
    file_->seekShared(*node_, trailerAt + 4);
  }

  if (opts_.syncOnWrite && writer_ == nullptr) {
    file_->sync(*node_);
  }

  if (footerEnabled_) {
    dsindex::IndexEntry entry;
    entry.offset = recordStart;
    entry.headerBytes = static_cast<std::uint32_t>(headerBytes.size());
    entry.recordFlags = header.flags;
    entry.recordBytes = file_->sharedOffset() - recordStart;
    entry.dataBytes = totalBytes;
    entry.layoutDigest = layoutDigest();
    entry.extents = extents;
    index_.entries.push_back(std::move(entry));
  }

  // Reset per-record state (Figure 2: back to the post-open state).
  for (auto& entries : pending_) entries.clear();
  arena_.clear();
  descs_.clear();
  ++recordSeq_;
  state_ = State::Ready;
  PCXX_OBS_COUNT(node_->obs(), DsWrites, 1);
  PCXX_OBS_TRACE_COUNTER(node_->obs(), "ds.bufferBytes", 0);
}

}  // namespace pcxx::ds
