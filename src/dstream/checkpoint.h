// Crash-safe checkpoint management on top of d/streams.
//
// The paper names checkpointing as the library's first application
// ("save the state of complex distributed data-sets periodically so that
// computation can be resumed at a later point", §2) but leaves epoch
// management to the program. CheckpointManager supplies the standard
// discipline a long-running application needs:
//
//   * each save() writes a NEW epoch file (<base>.<epoch>), with data
//     checksums and fsync on by default;
//   * a marker file (<base>.latest) is updated only AFTER the epoch file
//     is durable, so a crash mid-checkpoint always leaves the previous
//     epoch recoverable;
//   * old epochs beyond `keepLast` are pruned after the marker moves;
//   * restoreLatest() restores the marker's target through one read(),
//     so the node count and distribution may differ from the saving run.
//     The read itself is the validation: it rejects a damaged epoch with
//     the same error on every node, and restore falls back to older
//     epochs when the target is missing or damaged.
//
// All methods are collective (every node of the machine calls them).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "dstream/istream.h"
#include "dstream/ostream.h"

namespace pcxx::ds {

/// Thrown by restore when the marker names a checkpoint but neither it nor
/// any retained fallback epoch could be restored — silent data loss would
/// otherwise masquerade as "no checkpoint exists". Carries the epochs that
/// were tried and rejected.
class CheckpointError : public Error {
 public:
  CheckpointError(const std::string& what,
                  std::vector<std::uint64_t> rejected)
      : Error("checkpoint error: " + what),
        rejectedEpochs(std::move(rejected)) {}

  std::vector<std::uint64_t> rejectedEpochs;
};

struct CheckpointOptions {
  std::string baseName = "checkpoint";
  /// Epoch files retained after a successful save (>= 1).
  int keepLast = 2;
  bool checksumData = true;
  bool syncOnWrite = true;
  /// Write-behind queue depth for epoch writes (StreamOptions::aioQueueDepth;
  /// 0 = synchronous). The marker-after-durable discipline is preserved:
  /// save() drains the queue and observes any flush failure BEFORE the
  /// marker moves, so a crash inside a background flush leaves the previous
  /// epoch authoritative.
  int aioQueueDepth = 0;
  /// Read-ahead depth for restores (StreamOptions::aioPrefetchDepth).
  int aioPrefetchDepth = 0;
  /// Chunk codec for epoch files (StreamOptions::codec: "" = pfs default,
  /// "none", "lz"). Restores auto-detect framing, so mixed-codec epoch
  /// chains restore fine.
  std::string codec;
  /// Store chunks identical to the PREVIOUS epoch as references instead of
  /// payload (SCF epochs overlap heavily). Forces "lz" framing when no
  /// codec was chosen, and retention keeps one extra epoch so the oldest
  /// kept epoch's reference target always outlives it (references are
  /// depth-1: an epoch only ever points at its immediate predecessor).
  bool dedupAcrossEpochs = false;
};

class CheckpointManager {
 public:
  CheckpointManager(pfs::Pfs& fs, CheckpointOptions options);

  /// Write one epoch whose single record holds `data`. Returns the epoch id.
  template <typename T>
  std::uint64_t save(coll::Collection<T>& data) {
    return saveWith(data.node(), data.layout(),
                    [&](OStream& s) { s << data; });
  }

  /// General form: `writer` inserts into the stream (one or more inserts);
  /// the manager calls write(), makes it durable, moves the marker, prunes.
  std::uint64_t saveWith(rt::Node& node, const coll::Layout& layout,
                         const std::function<void(OStream&)>& writer);

  /// Epoch the marker currently points to, or -1 when no checkpoint exists.
  std::int64_t latestEpoch(rt::Node& node);

  /// Restore the newest recoverable epoch into `data`; returns the epoch
  /// id, or -1 if no checkpoint exists. Throws CheckpointError when the
  /// marker names an epoch but nothing retained could be restored.
  template <typename T>
  std::int64_t restoreLatest(coll::Collection<T>& data) {
    return restoreWith(data.node(), data.layout(),
                       [&](IStream& s) { s >> data; });
  }

  /// General form of restoreLatest. Tries the marker's epoch first, then
  /// walks backwards over retained epochs if it is damaged. A lost or torn
  /// marker falls back to enumerating epoch files, so a crash mid-marker
  /// never hides an otherwise durable checkpoint.
  std::int64_t restoreWith(rt::Node& node, const coll::Layout& layout,
                           const std::function<void(IStream&)>& reader);

  std::string epochFileName(std::uint64_t epoch) const;
  std::string markerFileName() const;

 private:
  void writeMarker(rt::Node& node, std::uint64_t epoch);
  void prune(rt::Node& node, std::uint64_t latest);
  bool tryRestore(const coll::Layout& layout, std::uint64_t epoch,
                  const std::function<void(IStream&)>& reader);
  /// Epochs with files on disk, newest first, capped at keepLast + 1 — the
  /// marker-loss fallback candidate list.
  std::vector<std::uint64_t> scanEpochs();

  pfs::Pfs* fs_;
  CheckpointOptions options_;
  std::uint64_t nextEpoch_ = 0;
};

}  // namespace pcxx::ds
