// The parallel file system substrate.
//
// This layer reproduces the I/O interface the paper's library is built on —
// Intel Paragon PFS / CM-5 sfs style parallel files:
//
//   * independent positional reads/writes from any node, and
//   * *node-order collective* transfers ("parallel I/O primitives which
//     transfer a contiguous block of data from each compute node to the
//     file system simultaneously and write those blocks to the file in node
//     order" — paper §4.1), implemented here as writeOrdered/readOrdered
//     against a shared file cursor.
//
// A Pfs instance is the "file system": it owns the storage backend choice
// (in-memory or a real POSIX directory), the virtual-time performance model,
// and the fault-injection hook. Files opened through it are shared across
// nodes; all collective methods must be called by every node of the machine.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pfs/backend.h"
#include "pfs/codec.h"
#include "pfs/fault.h"
#include "pfs/perf_model.h"
#include "runtime/machine.h"

namespace pcxx::pfs {

/// File system configuration.
struct PfsConfig {
  enum class Backend { Memory, Posix };

  Backend backend = Backend::Memory;
  /// Directory for Posix-backed files.
  std::string dir = ".";
  /// Virtual-time model; PerfParams{} (disabled) means real-time mode.
  PerfParams perf;
  /// I/O nodes the file system stripes over (scales modeled bandwidth).
  int nIoNodes = 1;
  std::uint64_t stripeUnit = 64 * 1024;
  /// Default chunk-codec spec applied to Create-mode opens (per-open specs
  /// override it; the PCXX_CODEC env var overrides both — see Pfs).
  CodecSpec codec;
};

enum class OpenMode {
  Create,  ///< truncate / create for writing
  Read,    ///< existing file for reading
};

/// Bounded-retry policy for transient storage failures (Pfs::setRetryPolicy).
///
/// A transient IoError (thrown by a fault hook or the storage backend) is
/// retried up to maxAttempts total tries; each retry first charges an
/// exponential backoff with deterministic jitter to the issuing node's
/// VirtualClock (a background op's to its BgIoStats), so retried runs show
/// the delay in modeled time. A short
/// completion (a hook granting only k of n bytes) resumes from the
/// completed prefix rather than re-transferring it. CrashInjected and
/// non-IoError exceptions are fatal and never retried. An op that exhausts
/// its attempts or its modeled-time deadline rethrows the last failure.
struct RetryPolicy {
  /// Total tries per op (1 = no retries; the default Pfs behavior).
  int maxAttempts = 1;
  /// Backoff before retry k (1-based) is base * factor^(k-1), capped.
  double backoffBase = 1e-3;
  double backoffFactor = 2.0;
  double backoffMax = 1.0;
  /// Jitter fraction: each backoff is scaled by a deterministic factor in
  /// [1 - jitter, 1 + jitter] drawn from (seed, opIndex, nodeId). The
  /// backoffMax cap applies AFTER jitter: the returned backoff never
  /// exceeds backoffMax.
  double jitter = 0.1;
  /// Give up once an op's modeled elapsed time (including backoff) exceeds
  /// this many virtual seconds.
  double opDeadlineSeconds = 60.0;
  std::uint64_t seed = 0;

  /// Backoff (seconds, jitter applied) before retry `retryIndex` (1-based)
  /// of op `opIndex` on `nodeId`. Pure function of the policy fields.
  double backoffFor(int retryIndex, std::uint64_t opIndex, int nodeId) const;
};

class Pfs;

/// Accounting for storage ops issued by background (pcxx::aio) threads,
/// which own no VirtualClock: modeled backoff accumulates here (doubling as
/// the per-op retry deadline clock) and the owning node folds the totals
/// into its metrics when it drains the pipeline. One instance per pipeline;
/// written only by that pipeline's background thread.
struct BgIoStats {
  std::uint64_t writeOps = 0;
  std::uint64_t readOps = 0;
  std::uint64_t bytesWritten = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t retries = 0;
  std::uint64_t giveUps = 0;
  double backoffSeconds = 0.0;
  // Chunk-codec work done by this background thread (codec stage below the
  // op; deltas of pfs::codecThreadStats() captured around each storage op).
  std::uint64_t codecRawBytes = 0;
  std::uint64_t codecStoredBytes = 0;
  std::uint64_t codecDedupHits = 0;
  std::uint64_t codecDamagedChunks = 0;
  double codecSeconds = 0.0;
};

/// Result of reserveOrdered(): where this node's block will land once a
/// background flusher transfers it, plus the modeled bulk-transfer share
/// the caller should charge to its write-behind timeline.
struct OrderedReservation {
  std::uint64_t offset = 0;      ///< this node's block offset in the file
  std::uint64_t totalBytes = 0;  ///< all nodes' contributions combined
  /// Modeled transfer duration (collective bulk time minus the collective
  /// synchronization share, which reserveOrdered charges inline).
  double transferSeconds = 0.0;
};

/// An open parallel file. Thread-safe; collective methods must be invoked
/// by all nodes of the machine with matching arguments.
class ParallelFile {
 public:
  // -- independent operations ----------------------------------------------

  /// Positional write from one node.
  void writeAt(rt::Node& node, std::uint64_t offset,
               std::span<const Byte> data);

  /// Positional read from one node; returns bytes read (fewer than
  /// requested only at end of file).
  std::uint64_t readAt(rt::Node& node, std::uint64_t offset,
                       std::span<Byte> out);

  /// EOF-relative positional read: fill `out` with the final `out.size()`
  /// bytes of the file (one readAt at size() - out.size()). Returns bytes
  /// read — fewer than requested only when the file is shorter than the
  /// request. Index-footer probes use this to find the trailer at EOF.
  std::uint64_t readTail(rt::Node& node, std::span<Byte> out);

  // -- collective operations (node-order parallel I/O) ----------------------

  /// Every node contributes one contiguous block; blocks are placed at the
  /// shared cursor in node order and the cursor advances by the total.
  /// Returns the file offset where this node's block begins.
  std::uint64_t writeOrdered(rt::Node& node, std::span<const Byte> myBlock);

  /// Every node reads one contiguous block of `myBytes` from the shared
  /// cursor in node order and gets it back; the cursor advances by the
  /// total. The caller states the total it expects (e.g. a record's data
  /// bytes): the block sizes ride the allgather that places the blocks, and
  /// if they overflow or do not sum to `expectedTotal`, every node throws
  /// the same FormatError before any node allocates or reads. A node whose
  /// block runs past end of file throws IoError; callers that bound the
  /// region by the file size first never see it.
  ByteBuffer readOrdered(rt::Node& node, std::uint64_t myBytes,
                         std::uint64_t expectedTotal);

  /// Collective: reserve a node-order region at the shared cursor without
  /// performing any storage I/O. Advances the cursor and the cumulative
  /// write accounting exactly as writeOrdered would — so a later
  /// writeAtBackground of each node's block produces a byte-identical file
  /// — but charges only the collective-synchronization share of the
  /// modeled cost inline; the transfer share is returned for the caller's
  /// write-behind timeline. Every node must eventually transfer its block
  /// to the returned offset (pcxx::aio::Writer does).
  OrderedReservation reserveOrdered(rt::Node& node, std::uint64_t myBytes);

  /// Collective: set the shared cursor.
  void seekShared(rt::Node& node, std::uint64_t offset);

  /// Current shared cursor position.
  std::uint64_t sharedOffset() const { return cursor_.load(); }

  /// Collective: flush to durable storage.
  void sync(rt::Node& node);

  std::uint64_t size() { return storage_->size(); }
  const std::string& name() const { return name_; }

  // -- background operations (pcxx::aio flusher / prefetch threads) ---------

  /// Positional write issued by a background thread on behalf of `nodeId`.
  /// Fault hook, retry policy, short-completion resumption, and
  /// CrashInjected durable-prefix semantics match writeAt, but no Node is
  /// touched: backoff is accounted to `stats` instead of a VirtualClock,
  /// and the cumulative-write accounting is NOT advanced (the matching
  /// reserveOrdered already advanced it).
  void writeAtBackground(int nodeId, std::uint64_t offset,
                         std::span<const Byte> data, BgIoStats& stats);

  /// Read counterpart (no cursor or model interaction); returns bytes read
  /// (fewer than requested only at end of file).
  std::uint64_t readAtBackground(int nodeId, std::uint64_t offset,
                                 std::span<Byte> out, BgIoStats& stats);

  /// Flush the storage backend directly (no collective, no timing charge):
  /// the write-behind flusher's substitute for the collective sync() when
  /// StreamOptions::syncOnWrite rides an async record.
  void syncStorage() { storage_->sync(); }

 private:
  friend class Pfs;
  ParallelFile(Pfs* fs, std::string fsName,
               std::shared_ptr<StorageBackend> storage);

  /// The one storage op loop under every read and write: the fault hook,
  /// RetryPolicy backoff and deadline, resumption from the completed prefix
  /// after a short completion, and CrashInjected after a write's durable
  /// prefix. A write takes `in`, a read fills `out` (fewer bytes only at end
  /// of file). `charge` says where retries and codec work are accounted: a
  /// node (clock and metrics) or a background pipeline (BgIoStats). `done`
  /// holds the bytes transferred, also when the op throws. Returns the op
  /// index of the last attempt.
  template <class Charge>
  std::uint64_t transfer(Charge charge, OpKind kind, std::uint64_t offset,
                         std::span<const Byte> in, std::span<Byte> out,
                         std::uint64_t& done);
  /// Runs the observe hook (post-op) with the modeled duration.
  void runObserveHook(OpKind kind, std::uint64_t offset, std::uint64_t bytes,
                      int nodeId, std::uint64_t opIndex, double duration);

  Pfs* fs_;
  std::string name_;
  std::shared_ptr<StorageBackend> storage_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> cumWritten_{0};
};

using ParallelFilePtr = std::shared_ptr<ParallelFile>;

/// A parallel file system instance.
///
/// Chunk codec resolution: a Create-mode open uses the per-open CodecSpec
/// when one is passed, else PfsConfig::codec. The PCXX_CODEC environment
/// variable (read once at construction) overrides both: "off"/"none"/"0"
/// force-disables the codec everywhere; "lz" default-enables LZ framing for
/// opens that did not ask for a codec explicitly. Read-mode opens always
/// auto-detect framing from the file itself, so readers need no
/// configuration at all.
class Pfs {
 public:
  explicit Pfs(PfsConfig config);

  /// Collective: open `fsName`. Create truncates; Read requires existence
  /// (throws IoError otherwise).
  ParallelFilePtr open(rt::Node& node, const std::string& fsName,
                       OpenMode mode);

  /// Collective open with an explicit chunk-codec spec (Create mode only;
  /// Read-mode opens detect framing from the file). PCXX_CODEC=off still
  /// wins over `codec.enabled`.
  ParallelFilePtr open(rt::Node& node, const std::string& fsName,
                       OpenMode mode, const CodecSpec& codec);

  /// Collective: delete a file (removes the memory image / POSIX file).
  void remove(rt::Node& node, const std::string& fsName);

  /// Does a file exist (independent, no timing charge)?
  bool exists(const std::string& fsName);

  /// Names of all files starting with `prefix`, sorted (independent, no
  /// timing charge). Lets recovery code enumerate epoch files when a
  /// marker is lost.
  std::vector<std::string> listFiles(const std::string& prefix);

  PerfModel& model() { return model_; }
  const PfsConfig& config() const { return config_; }

  /// Install (or clear, with nullptr) the fault-injection hook. Runs
  /// before each storage access and may throw.
  void setFaultHook(FaultHook hook);

  /// Install (or clear, with nullptr) the observation hook. Runs after
  /// each storage access with OpContext::opDurationSeconds filled from the
  /// perf model; must not throw. Feeds metrics without disturbing the
  /// fault-injection hook.
  void setObserveHook(FaultHook hook);

  /// Install the retry policy applied to every storage read/write issued
  /// through this file system. The default ({}, maxAttempts = 1) retries
  /// nothing.
  void setRetryPolicy(RetryPolicy policy);
  RetryPolicy retryPolicy() const;

  /// Test helper: overwrite one byte of a file's storage directly,
  /// bypassing timing and fault hooks. Offsets are LOGICAL: on a
  /// codec-framed file the flip lands in the decoded byte space (the
  /// chunk is re-sealed around it), modeling bit rot in the record
  /// payload exactly as on an unframed file.
  void corruptByte(const std::string& fsName, std::uint64_t offset,
                   Byte value);

  /// Test helper: truncate a file's storage directly (logical bytes).
  void truncateFile(const std::string& fsName, std::uint64_t newSize);

  /// Test helper: overwrite one PHYSICAL byte of the raw store underneath
  /// any codec framing (corrupts frame headers / compressed payloads; on
  /// an unframed file this is identical to corruptByte).
  void corruptStoredByte(const std::string& fsName, std::uint64_t offset,
                         Byte value);

  /// Test helper: the file's physical size in the raw store (frame
  /// overhead included on framed files).
  std::uint64_t storedFileSize(const std::string& fsName);

  /// Total storage operations issued so far (reads + writes).
  std::uint64_t opCount() const { return opCounter_.load(); }

 private:
  friend class ParallelFile;

  enum class CodecEnv { Unset, ForceOff, ForceLz };

  ParallelFilePtr openImpl(rt::Node& node, const std::string& fsName,
                           OpenMode mode, const CodecSpec* codec);
  std::shared_ptr<StorageBackend> backendFor(const std::string& fsName,
                                             OpenMode mode,
                                             const CodecSpec* codec);
  /// The raw (unframed) store for an existing file; nullptr when the file
  /// does not exist. Caller must NOT hold mu_.
  std::shared_ptr<StorageBackend> rawStorageFor(const std::string& fsName);
  /// Spec a Create-mode open will actually use (env override applied).
  CodecSpec effectiveCodecSpec(const CodecSpec* codec) const;
  std::string posixPath(const std::string& fsName) const;

  CodecEnv codecEnv_ = CodecEnv::Unset;
  PfsConfig config_;
  PerfModel model_;
  std::mutex mu_;
  // Memory backend registry so files persist across open/close within a
  // process (mirrors a file system's namespace).
  std::map<std::string, std::shared_ptr<StorageBackend>> memFiles_;
  // Slot used by open() to hand the shared file object from node 0 to the
  // other nodes (guarded by mu_ and the surrounding barriers).
  ParallelFilePtr pendingOpen_;
  FaultHook faultHook_;
  FaultHook observeHook_;
  RetryPolicy retryPolicy_;
  mutable std::mutex hookMu_;
  std::atomic<std::uint64_t> opCounter_{0};
};

}  // namespace pcxx::pfs
