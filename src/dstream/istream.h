// IStream: the input d/stream (paper §3, §4.1).
//
//   IStream s(&d, &a, "wholeGridFile");
//   s.read();            // or s.unsortedRead();
//   s >> g;              // extract the whole collection
//   s >> g.field(&ParticleList::numberOfParticles);
//
// read() first reads the record header (distribution + size information,
// stored ahead of the data), then the per-element size table, then the
// data — the reader needs no external metadata, and the record can be read
// under a different node count or distribution than it was written with:
// in that case read() performs the two-phase redistribution (a conforming
// contiguous read followed by an all-to-all exchange to the owner nodes;
// the PASSION-style strategy the paper cites). unsortedRead() skips the
// exchange entirely: element data is handed to local elements in arbitrary
// order, for workloads where element indices carry no meaning (paper §3).
// All methods are collective.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "aio/aio.h"
#include "collection/collection.h"
#include "dsindex/dsindex.h"
#include "dstream/element_io.h"
#include "dstream/record.h"
#include "dstream/salvage.h"
#include "dstream/stream_common.h"
#include "dstream/typetag.h"
#include "pfs/parallel_file.h"
#include "redist/redist.h"
#include "runtime/machine.h"

namespace pcxx::ds {

class IStream {
 public:
  /// Open `fileName` on `fs` for reading into collections distributed by
  /// (d, a). Verifies the d/stream file header.
  IStream(pfs::Pfs& fs, const coll::Distribution* d, const coll::Align* a,
          const std::string& fileName, StreamOptions opts = {});

  /// Same, with identity alignment.
  IStream(pfs::Pfs& fs, const coll::Distribution* d,
          const std::string& fileName, StreamOptions opts = {});

  /// Paper-style constructors using the process-default file system.
  IStream(const coll::Distribution* d, const coll::Align* a,
          const std::string& fileName, StreamOptions opts = {});
  IStream(const coll::Distribution* d, const std::string& fileName,
          StreamOptions opts = {});

  /// Attach to an already-open shared file.
  IStream(pfs::Pfs& fs, pfs::ParallelFilePtr file, coll::Layout layout,
          StreamOptions opts = {});

  ~IStream();
  IStream(const IStream&) = delete;
  IStream& operator=(const IStream&) = delete;

  /// Read the next record; extracted arrays preserve element order even if
  /// the node count or distribution changed since the write.
  void read() { readNext(/*sorted=*/true); }

  /// Read the next record without the order guarantee (and without the
  /// interprocessor communication).
  void unsortedRead() { readNext(/*sorted=*/false); }

  /// Position the stream at record `k` (collective). On a file with a valid
  /// index footer this is a single cursor move — no I/O; without one the
  /// chain is replayed with k header-only skips (and `dsindex.fallbacks`
  /// counts the degradation). Throws UsageError when the file has fewer
  /// than k+1 records.
  void seekRecord(std::uint32_t k);

  /// seekRecord(k) followed by a sorted read: random access to one record
  /// in O(1) pfs read ops on an indexed file. Collective.
  void readRecord(std::uint32_t k) {
    seekRecord(k);
    read();
  }

  /// Read an arbitrary subset of records: for each index k (in the given
  /// order) the record is seeked, read, and handed to `extract(k)` for
  /// extraction. Only the selected records' bytes are fetched; each read
  /// reuses the stream's redistribution plans as usual. Collective.
  template <typename Fn>
  void readRecords(std::span<const std::uint32_t> indices, Fn&& extract) {
    for (const std::uint32_t k : indices) {
      readRecord(k);
      extract(k);
    }
  }
  template <typename Fn>
  void readRecords(const std::vector<std::uint32_t>& indices, Fn&& extract) {
    readRecords(std::span<const std::uint32_t>(indices),
                std::forward<Fn>(extract));
  }

  /// Field projection: restrict subsequent reads to the given insert
  /// positions ("fields") of each record, in ascending order. The
  /// interleave format stores an element's fixed-size fields contiguously,
  /// so a projected read fetches only those byte ranges (a strided read)
  /// instead of the whole data section; currentRecord().inserts and the
  /// extract sequence then see exactly the projected fields. Every
  /// projected insert — and every insert before it — must have a fixed
  /// per-element size (trailing variable-size inserts may be skipped);
  /// violations surface as UsageError at the next read. Projected reads
  /// skip data-CRC verification (the full section is never fetched). An
  /// empty list clears the projection. Node-local configuration: call it
  /// identically on every node before the next collective read.
  void project(std::vector<std::uint32_t> fields);

  /// Skip the next record without reading its element data (only the
  /// header is read to learn the extent). Returns the skipped record's
  /// header. Collective.
  RecordHeader skipRecord();

  /// Extract into a whole collection (mirrors the corresponding insert).
  template <typename T>
  IStream& operator>>(coll::Collection<T>& g) {
    checkExtract(g.layout(), typeTag<T>(), InsertKind::Collection);
    const std::int64_t n = g.localCount();
    for (std::int64_t j = 0; j < n; ++j) {
      ElementExtractor ex(elementData(j), elementSize(j), extractCursor(j));
      extractElement(ex, g.local(j));
    }
    ++nextExtract_;
    return *this;
  }

  /// Extract one field of every element.
  template <typename T, typename M>
  IStream& operator>>(coll::FieldRef<T, M> f) {
    coll::Collection<T>& g = f.collection();
    checkExtract(g.layout(), typeTag<M>(), InsertKind::Field);
    const std::int64_t n = g.localCount();
    for (std::int64_t j = 0; j < n; ++j) {
      ElementExtractor ex(elementData(j), elementSize(j), extractCursor(j));
      ex >> f.of(g.local(j));
    }
    ++nextExtract_;
    return *this;
  }

  /// True when the shared cursor has reached the end of the file (no more
  /// records).
  bool atEnd() const;

  /// Reposition at the first record (collective), so the file can be read
  /// again — e.g. a second analysis pass over a frame series.
  void rewind();

  void close();

  const coll::Layout& layout() const { return layout_; }

  /// Header of the record currently being extracted (after read()).
  const RecordHeader& currentRecord() const;

  /// True when a read() actually produced a record to extract. In salvage
  /// mode a read() that reached a torn tail (or end of file) leaves no
  /// record; without salvage this is equivalent to "a read() succeeded and
  /// extraction has not been invalidated".
  bool hasRecord() const { return state_ == State::Extracting; }

  /// What salvage-mode reads recovered and skipped so far (records and
  /// damaged byte ranges). Meaningful once StreamOptions::salvage is set.
  const SalvageReport& salvageReport() const { return salvage_; }

  /// True when read-ahead prefetch is active for this stream.
  bool asyncActive() const { return prefetcher_ != nullptr; }

  /// True when a valid index footer is driving this stream (seeks are O(1)).
  bool indexed() const { return indexValid_; }

  /// Record count per the index footer; nullopt without a valid footer.
  std::optional<std::uint64_t> indexedRecordCount() const {
    if (!indexValid_) return std::nullopt;
    return index_.entries.size();
  }

 private:
  enum class State { Ready, Extracting, Closed };

  /// Within-element geometry of an active projection against one record's
  /// insert list: where each projected field lives inside the fixed-size
  /// prefix every element carries.
  struct ProjectionMap {
    std::vector<std::uint64_t> offsets;   // within-element, per projected field
    std::vector<std::uint32_t> lengths;   // bytes per element, per field
    std::vector<InsertDesc> descs;        // the projected insert descriptors
    std::uint64_t bytesPerElement = 0;    // sum of lengths
    std::uint64_t coverStart = 0;         // first projected byte
    std::uint64_t coverEnd = 0;           // one past the last projected byte

    /// The gather kernel of every projected read: copy the projected
    /// fields of consecutive elements of `sizes` bytes each to `dst`.
    /// `cover` points at the first element's first projected byte.
    void gather(const Byte* cover, std::span<const std::uint64_t> sizes,
                Byte* dst) const;
  };

  void openFile(const std::string& fileName);
  /// Probe the file tail for an index footer and adopt it (or record the
  /// fallback). With `viaBroadcast` node 0 probes and broadcasts the result
  /// (the named-open constructors); otherwise every node reads the tiny
  /// footer itself — the attach constructor must stay collective-free.
  void probeIndex(bool viaBroadcast);
  const dsindex::IndexEntry* indexEntryAt(std::uint64_t offset) const;
  void setupPrefetch();
  /// (Re)point the read-ahead chain at the shared cursor.
  void restartPrefetch();
  void readNext(bool sorted);
  ProjectionMap projectionFor(const RecordHeader& header) const;
  /// Rewrite this node's chunk of a record to the projected fields (and
  /// header/chunkSizes to the projected shape). With `dataAt`, the record's
  /// data section starts there and `chunk` is filled by windowed
  /// positional reads of the projected byte ranges; without it `chunk`
  /// already holds the full chunk (prefetch path). Collective. False =
  /// salvage skipped the record.
  bool projectChunk(RecordHeader& header, std::optional<std::uint64_t> dataAt,
                    std::vector<std::uint64_t>& chunkSizes,
                    std::uint64_t myChunkBytes, std::uint64_t recordStart,
                    std::uint64_t recordEnd, ByteBuffer& chunk);
  /// One record-read attempt. True: a record is ready for extraction.
  /// False (salvage mode only): damage was skipped — the shared cursor has
  /// advanced past it and the caller should retry or stop at end of file.
  bool readRecordOnce(bool sorted);
  /// Consume a prefetched record if every node has it. Returns 1 (record
  /// ready), 0 (salvage skipped damage), or -1 (miss — take the
  /// synchronous path). Collective.
  int tryPrefetched(bool sorted);
  /// Verify the optional CRC trailer and advance past it. True when valid
  /// or absent; false when salvage mode skipped the record.
  bool checkTrailer(const RecordHeader& header, const ByteBuffer& chunk,
                    std::uint64_t myChunkBytes, std::uint64_t recordStart,
                    std::uint64_t recordEnd);
  /// Common tail of a record read: redistribution (or in-place placement),
  /// bookkeeping, and the transition to Extracting. Returns false when
  /// salvage mode skipped the record because its header routes an
  /// inconsistent element set (duplicate or out-of-range global indices).
  /// `flowId` (0 = untraced) extends the record's trace flow chain through
  /// the redistribution exchange.
  bool finishRecord(bool sorted, RecordHeader header, ByteBuffer chunk,
                    std::vector<std::uint64_t> chunkSizes,
                    std::uint64_t recordStart, std::uint64_t recordEnd,
                    std::uint64_t flowId);
  /// Seed-era phase 2 (StreamOptions::redistUsePlan = false): per-record
  /// enumeration of every node's element list and a std::map collection.
  /// Kept for A/B comparison against the plan engine; byte-identical
  /// output. Returns false when salvage mode skipped corrupt routing.
  bool redistributeLegacy(const RecordHeader& header, const ByteBuffer& chunk,
                          const std::vector<std::uint64_t>& chunkSizes,
                          std::uint64_t recordStart, std::uint64_t recordEnd,
                          std::uint64_t flowId);
  /// Record damage [from, to) in the salvage report and advance past it.
  bool skipDamage(std::uint64_t from, std::uint64_t to, std::string reason);
  void checkExtract(const coll::Layout& collectionLayout, std::uint32_t tag,
                    InsertKind kind) const;

  /// One past the last record byte: the footer offset when an intact
  /// trailer pinned it, else the end of the file.
  std::uint64_t chainEnd() const {
    return dataEndFixed_ ? dataEnd_ : file_->size();
  }

  const Byte* elementData(std::int64_t j) const {
    return buffer_.data() + elemOffsets_[static_cast<size_t>(j)];
  }
  std::uint64_t elementSize(std::int64_t j) const {
    return elemSizes_[static_cast<size_t>(j)];
  }
  std::uint64_t& extractCursor(std::int64_t j) {
    return extractCursors_[static_cast<size_t>(j)];
  }

  rt::Node* node_;
  pfs::Pfs* fs_;
  pfs::ParallelFilePtr file_;
  coll::Layout layout_;
  StreamOptions opts_;
  State state_ = State::Ready;
  std::int64_t localCount_;

  std::optional<RecordHeader> record_;
  SalvageReport salvage_;
  ByteBuffer buffer_;                      // this node's element data
  std::vector<std::uint64_t> elemOffsets_; // per local element, into buffer_
  std::vector<std::uint64_t> elemSizes_;
  std::vector<std::uint64_t> extractCursors_;
  size_t nextExtract_ = 0;

  // Redistribution state for sorted reads under a changed layout. The
  // stream memoizes the last plan (records of one file usually share a
  // writer layout) on top of the process-wide redist::PlanCache; the
  // scratch keeps exchange buffers at high-water capacity so steady-state
  // redistribution allocates nothing.
  redist::PlanPtr plan_;
  std::optional<coll::Layout> planWriter_;  ///< writer layout of plan_
  redist::ExchangeScratch redistScratch_;

  // Read-ahead state (null prefetcher_ = synchronous path). The modeled
  // fetch timeline is maintained here on the node thread — fetch k starts
  // when fetch k-1 finished AND slot capacity freed (record k-depth was
  // consumed) — so simulated results are independent of real scheduling.
  std::unique_ptr<aio::Prefetcher> prefetcher_;
  bool prefetchLive_ = false;
  double prefetchEpoch_ = 0.0;      ///< modeled time the chain started
  double prefetchPrevReady_ = 0.0;  ///< modeled end of the previous fetch
  std::vector<double> prefetchConsumedAt_;  ///< consume time per chain slot

  // dsindex footer state. With a verified footer, index_ drives O(1)
  // seeks and dataEnd_ bounds the chain exactly (the footer bytes are
  // never mistaken for a record). An intact trailer alone still fixes
  // dataEnd_ even when the body is damaged.
  dsindex::FileIndex index_;
  bool indexValid_ = false;
  bool dataEndFixed_ = false;
  std::uint64_t dataEnd_ = 0;
  std::vector<std::uint32_t> projection_;  ///< sorted unique insert indices
};

}  // namespace pcxx::ds
