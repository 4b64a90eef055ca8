#include "dstream/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "runtime/rio.h"
#include "util/log.h"
#include "util/strfmt.h"

namespace pcxx::ds {

CheckpointManager::CheckpointManager(pfs::Pfs& fs, CheckpointOptions options)
    : fs_(&fs), options_(std::move(options)) {
  PCXX_REQUIRE(options_.keepLast >= 1,
               "CheckpointManager must keep at least one epoch");
  PCXX_REQUIRE(!options_.baseName.empty(),
               "CheckpointManager requires a base name");
}

std::string CheckpointManager::epochFileName(std::uint64_t epoch) const {
  return strfmt("%s.%llu", options_.baseName.c_str(),
                static_cast<unsigned long long>(epoch));
}

std::string CheckpointManager::markerFileName() const {
  return options_.baseName + ".latest";
}

std::int64_t CheckpointManager::latestEpoch(rt::Node& node) {
  if (!fs_->exists(markerFileName())) return -1;
  auto f = fs_->open(node, markerFileName(), pfs::OpenMode::Read);
  ByteBuffer buf(8);
  std::uint64_t got = 0;
  if (node.id() == 0) {
    got = f->readAt(node, 0, buf);
  }
  ByteBuffer share;
  if (node.id() == 0 && got == 8) share = buf;
  node.broadcastBytes(0, share);
  if (share.size() != 8) return -1;
  return static_cast<std::int64_t>(decodeU64(share.data()));
}

void CheckpointManager::writeMarker(rt::Node& node, std::uint64_t epoch) {
  auto f = fs_->open(node, markerFileName(), pfs::OpenMode::Create);
  if (node.id() == 0) {
    Byte enc[8];
    encodeU64(epoch, enc);
    f->writeAt(node, 0, enc);
  }
  f->sync(node);
}

void CheckpointManager::prune(rt::Node& node, std::uint64_t latest) {
  // With cross-epoch dedup the oldest kept epoch may hold references into
  // its predecessor; retain that one extra epoch so no kept epoch ever
  // loses its reference target.
  const std::uint64_t keep =
      static_cast<std::uint64_t>(options_.keepLast) +
      (options_.dedupAcrossEpochs ? 1 : 0);
  if (latest + 1 <= keep) return;
  // Epochs are consecutive from this manager; also sweep a margin below
  // the retention window in case an earlier manager left files behind.
  const std::uint64_t firstKept = latest + 1 - keep;
  const std::uint64_t sweepFrom =
      firstKept > 8 ? firstKept - 8 : 0;
  for (std::uint64_t e = sweepFrom; e < firstKept; ++e) {
    if (fs_->exists(epochFileName(e))) {
      fs_->remove(node, epochFileName(e));
    }
  }
}

std::uint64_t CheckpointManager::saveWith(
    rt::Node& node, const coll::Layout& layout,
    const std::function<void(OStream&)>& writer) {
  // Resume epoch numbering from the marker if another manager instance
  // (e.g. a restarted process) wrote checkpoints before us.
  if (nextEpoch_ == 0) {
    const std::int64_t existing = latestEpoch(node);
    if (existing >= 0) {
      nextEpoch_ = static_cast<std::uint64_t>(existing) + 1;
    }
  }
  const std::uint64_t epoch = nextEpoch_++;

  StreamOptions so;
  so.checksumData = options_.checksumData;
  so.syncOnWrite = options_.syncOnWrite;
  so.aioQueueDepth = options_.aioQueueDepth;
  so.codec = options_.codec;
  if (options_.dedupAcrossEpochs) {
    if (so.codec.empty()) so.codec = "lz";  // dedup requires chunk framing
    if (epoch > 0 && fs_->exists(epochFileName(epoch - 1))) {
      so.codecDedupBase = epochFileName(epoch - 1);
    }
  }
  {
    OStream s(*fs_, &layout.distribution(), &layout.align(),
              epochFileName(epoch), so);
    writer(s);
    s.write();
    // Explicit close: drains the write-behind queue, so a background flush
    // failure throws here — not from the destructor — and the marker below
    // never moves to a torn epoch.
    PCXX_OBS_SPAN(node.obs(), "ckpt.close");
    s.close();
  }
  // Only after the epoch file is durable does the marker move; a crash
  // before this line leaves the previous epoch authoritative.
  {
    PCXX_OBS_SPAN(node.obs(), "ckpt.writeMarker");
    writeMarker(node, epoch);
  }
  {
    PCXX_OBS_SPAN(node.obs(), "ckpt.prune");
    prune(node, epoch);
  }
  return epoch;
}

bool CheckpointManager::tryRestore(
    const coll::Layout& layout, std::uint64_t epoch,
    const std::function<void(IStream&)>& reader) {
  if (!fs_->exists(epochFileName(epoch))) return false;
  try {
    // The read is the verification: every check it makes (file header,
    // record framing and CRCs, record extent, size-table sum, data
    // checksum) reaches the same verdict on every node, so a damaged epoch
    // throws everywhere and catching here keeps the machine healthy.
    StreamOptions ro;
    ro.aioPrefetchDepth = options_.aioPrefetchDepth;
    IStream s(*fs_, &layout.distribution(), &layout.align(),
              epochFileName(epoch), ro);
    s.read();
    reader(s);
    return true;
  } catch (const Error& e) {
    PCXX_LOG_WARN("checkpoint epoch %llu unreadable: %s",
                  static_cast<unsigned long long>(epoch), e.what());
    return false;
  }
}

std::vector<std::uint64_t> CheckpointManager::scanEpochs() {
  const std::string prefix = options_.baseName + ".";
  std::vector<std::uint64_t> epochs;
  for (const std::string& name : fs_->listFiles(prefix)) {
    const std::string suffix = name.substr(prefix.size());
    if (suffix.empty()) continue;
    bool digits = true;
    for (char c : suffix) {
      if (c < '0' || c > '9') { digits = false; break; }
    }
    if (!digits) continue;  // e.g. the ".latest" marker itself
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(suffix.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') continue;
    epochs.push_back(static_cast<std::uint64_t>(v));
  }
  std::sort(epochs.rbegin(), epochs.rend());
  const size_t cap = static_cast<size_t>(options_.keepLast) + 1;
  if (epochs.size() > cap) epochs.resize(cap);
  return epochs;
}

std::int64_t CheckpointManager::restoreWith(
    rt::Node& node, const coll::Layout& layout,
    const std::function<void(IStream&)>& reader) {
  const std::int64_t marked = latestEpoch(node);

  // Candidate epochs, newest first: the marker's target and the retained
  // window below it when the marker is intact; otherwise (lost or torn
  // marker — e.g. a crash between its truncation and its 8-byte write) the
  // epoch files actually on disk.
  std::vector<std::uint64_t> candidates;
  if (marked >= 0) {
    const std::uint64_t start = static_cast<std::uint64_t>(marked);
    for (std::uint64_t back = 0;
         back <= start &&
         back <= static_cast<std::uint64_t>(options_.keepLast);
         ++back) {
      candidates.push_back(start - back);
    }
  } else {
    candidates = scanEpochs();
  }
  if (candidates.empty()) return -1;

  std::vector<std::uint64_t> rejected;
  for (const std::uint64_t epoch : candidates) {
    bool restored = false;
    {
      PCXX_OBS_SPAN(node.obs(), "ckpt.tryEpoch");
      restored = tryRestore(layout, epoch, reader);
    }
    if (restored) {
      // Resume numbering past every epoch we know about, so the next save
      // never collides with a newer-but-corrupt file still on disk.
      nextEpoch_ = candidates.front() + 1;
      return static_cast<std::int64_t>(epoch);
    }
    if (fs_->exists(epochFileName(epoch))) rejected.push_back(epoch);
  }

  // A marker that names an epoch is a promise that a checkpoint was made
  // durable; failing every candidate then is data loss and must not look
  // like "no checkpoint exists". Without a marker file, torn leftovers of
  // a first save that never completed roll back to a fresh start.
  if (fs_->exists(markerFileName())) {
    std::string list;
    for (const std::uint64_t e : rejected) {
      list += strfmt("%s%llu", list.empty() ? "" : ", ",
                     static_cast<unsigned long long>(e));
    }
    throw CheckpointError(
        strfmt("no recoverable epoch for '%s' (rejected: %s)",
               options_.baseName.c_str(),
               list.empty() ? "none on disk" : list.c_str()),
        std::move(rejected));
  }
  return -1;
}

}  // namespace pcxx::ds
