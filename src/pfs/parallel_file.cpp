#include "pfs/parallel_file.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/strfmt.h"

namespace pcxx::pfs {
namespace {

// The chunk codec runs below the storage ops on whatever thread issues
// them and accounts into thread-local counters; these helpers fold the
// delta accumulated by one op into the issuing node's metrics (sync paths)
// or the pipeline's BgIoStats (pcxx::aio threads), preserving the
// owner-write discipline of both sinks.
void foldCodecObs(rt::Node& node, const CodecThreadStats& before) {
  const CodecThreadStats& now = codecThreadStats();
  if (now.rawBytes != before.rawBytes)
    PCXX_OBS_COUNT(node.obs(), PfsCodecRawBytes, now.rawBytes - before.rawBytes);
  if (now.storedBytes != before.storedBytes)
    PCXX_OBS_COUNT(node.obs(), PfsCodecStoredBytes,
                   now.storedBytes - before.storedBytes);
  if (now.dedupHits != before.dedupHits)
    PCXX_OBS_COUNT(node.obs(), PfsCodecDedupHits,
                   now.dedupHits - before.dedupHits);
  if (now.damagedChunks != before.damagedChunks)
    PCXX_OBS_COUNT(node.obs(), PfsCodecDamagedChunks,
                   now.damagedChunks - before.damagedChunks);
  if (now.seconds != before.seconds)
    PCXX_OBS_SECONDS(node.obs(), PfsCodecSeconds, now.seconds - before.seconds);
  (void)node;
  (void)before;
  (void)now;
}

void foldCodecBg(BgIoStats& stats, const CodecThreadStats& before) {
  const CodecThreadStats& now = codecThreadStats();
  stats.codecRawBytes += now.rawBytes - before.rawBytes;
  stats.codecStoredBytes += now.storedBytes - before.storedBytes;
  stats.codecDedupHits += now.dedupHits - before.dedupHits;
  stats.codecDamagedChunks += now.damagedChunks - before.damagedChunks;
  stats.codecSeconds += now.seconds - before.seconds;
}

}  // namespace

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

double RetryPolicy::backoffFor(int retryIndex, std::uint64_t opIndex,
                               int nodeId) const {
  double b = backoffBase;
  for (int i = 1; i < retryIndex && b < backoffMax; ++i) b *= backoffFactor;
  if (jitter > 0.0) {
    // Stateless deterministic jitter: hash (seed, opIndex, nodeId) so the
    // same retry of the same op always waits the same modeled time.
    std::uint64_t h = seed ^ (opIndex * 0x9E3779B97F4A7C15ull) ^
                      (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(nodeId))
                       << 32);
    const double u = static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
    b *= 1.0 + jitter * (2.0 * u - 1.0);
  }
  // The cap is a hard bound on the returned value, so it must apply AFTER
  // jitter: clamping first let jitter push the backoff up to a factor of
  // (1 + jitter) past the documented maximum.
  return std::min(b, backoffMax);
}

// ---------------------------------------------------------------------------
// ParallelFile
// ---------------------------------------------------------------------------

ParallelFile::ParallelFile(Pfs* fs, std::string fsName,
                           std::shared_ptr<StorageBackend> storage)
    : fs_(fs), name_(std::move(fsName)), storage_(std::move(storage)) {}

std::uint64_t ParallelFile::performWrite(rt::Node& node, std::uint64_t offset,
                                         std::span<const Byte> data) {
  const RetryPolicy rp = fs_->retryPolicy();
  const double start = node.clock().now();
  std::uint64_t done = 0;
  std::uint64_t lastIndex = 0;
  std::exception_ptr lastError;
  for (int attempt = 1;; ++attempt) {
    const std::uint64_t want = data.size() - done;
    const std::uint64_t index = fs_->opCounter_.fetch_add(1);
    lastIndex = index;
    FaultHook hook;
    {
      std::lock_guard<std::mutex> lock(fs_->hookMu_);
      hook = fs_->faultHook_;
    }
    OpOutcome outcome{want, false};
    bool failed = false;
    if (hook) {
      OpContext ctx{name_, OpKind::Write, offset + done, want, node.id(),
                    index};
      ctx.outcome = &outcome;
      try {
        hook(ctx);
      } catch (const CrashInjected&) {
        throw;  // fatal by contract; nothing of this attempt was applied
      } catch (const IoError&) {
        failed = true;
        lastError = std::current_exception();
      }
    }
    if (!failed) {
      const std::uint64_t granted = std::min(outcome.completeBytes, want);
      if (granted > 0) {
        storage_->writeAt(offset + done,
                          data.subspan(static_cast<size_t>(done),
                                       static_cast<size_t>(granted)));
        done += granted;
      }
      if (outcome.crash) {
        throw CrashInjected(strfmt(
            "write on '%s' at op %llu: %llu of %llu bytes durable",
            name_.c_str(), static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(done),
            static_cast<unsigned long long>(data.size())));
      }
      if (done == data.size()) return lastIndex;
      lastError = nullptr;  // short completion, not an exception
    }
    // Transient failure or short completion: retry if the policy allows;
    // a retry resumes from the completed prefix.
    if (attempt >= rp.maxAttempts ||
        node.clock().now() - start >= rp.opDeadlineSeconds) {
      PCXX_OBS_COUNT(node.obs(), PfsGiveUps, 1);
      if (lastError) std::rethrow_exception(lastError);
      throw IoError(strfmt(
          "short write on '%s': only %llu of %llu bytes completed at "
          "offset %llu",
          name_.c_str(), static_cast<unsigned long long>(done),
          static_cast<unsigned long long>(data.size()),
          static_cast<unsigned long long>(offset)));
    }
    const double backoff = rp.backoffFor(attempt, index, node.id());
    node.clock().advance(backoff);
    PCXX_OBS_COUNT(node.obs(), PfsRetries, 1);
    PCXX_OBS_SECONDS(node.obs(), PfsBackoffSeconds, backoff);
  }
}

std::uint64_t ParallelFile::performRead(rt::Node& node, std::uint64_t offset,
                                        std::span<Byte> out,
                                        std::uint64_t* got) {
  const RetryPolicy rp = fs_->retryPolicy();
  const double start = node.clock().now();
  std::uint64_t done = 0;
  std::uint64_t lastIndex = 0;
  std::exception_ptr lastError;
  for (int attempt = 1;; ++attempt) {
    const std::uint64_t want = out.size() - done;
    const std::uint64_t index = fs_->opCounter_.fetch_add(1);
    lastIndex = index;
    FaultHook hook;
    {
      std::lock_guard<std::mutex> lock(fs_->hookMu_);
      hook = fs_->faultHook_;
    }
    OpOutcome outcome{want, false};
    bool failed = false;
    if (hook) {
      OpContext ctx{name_, OpKind::Read, offset + done, want, node.id(),
                    index};
      ctx.outcome = &outcome;
      try {
        hook(ctx);
      } catch (const CrashInjected&) {
        throw;
      } catch (const IoError&) {
        failed = true;
        lastError = std::current_exception();
      }
    }
    if (!failed) {
      if (outcome.crash) {
        throw CrashInjected(strfmt("read on '%s' at op %llu", name_.c_str(),
                                   static_cast<unsigned long long>(index)));
      }
      const std::uint64_t limit = std::min(outcome.completeBytes, want);
      const std::uint64_t n =
          storage_->readAt(offset + done,
                           out.subspan(static_cast<size_t>(done),
                                       static_cast<size_t>(limit)));
      done += n;
      if (done == out.size() || n < limit) {
        // Complete, or a true end-of-file (the backend granted less than
        // the fault-free limit): not a fault.
        *got = done;
        return lastIndex;
      }
      // n == limit < want: a hook-limited short read; retry the remainder.
      lastError = nullptr;
    }
    if (attempt >= rp.maxAttempts ||
        node.clock().now() - start >= rp.opDeadlineSeconds) {
      PCXX_OBS_COUNT(node.obs(), PfsGiveUps, 1);
      if (lastError) std::rethrow_exception(lastError);
      throw IoError(strfmt(
          "short read on '%s': only %llu of %llu bytes completed at "
          "offset %llu",
          name_.c_str(), static_cast<unsigned long long>(done),
          static_cast<unsigned long long>(out.size()),
          static_cast<unsigned long long>(offset)));
    }
    const double backoff = rp.backoffFor(attempt, index, node.id());
    node.clock().advance(backoff);
    PCXX_OBS_COUNT(node.obs(), PfsRetries, 1);
    PCXX_OBS_SECONDS(node.obs(), PfsBackoffSeconds, backoff);
  }
}

void ParallelFile::writeAtBackground(int nodeId, std::uint64_t offset,
                                     std::span<const Byte> data,
                                     BgIoStats& stats) {
  const RetryPolicy rp = fs_->retryPolicy();
  const CodecThreadStats codecBefore = codecThreadStats();
  const double start = stats.backoffSeconds;
  std::uint64_t done = 0;
  std::uint64_t lastIndex = 0;
  std::exception_ptr lastError;
  for (int attempt = 1;; ++attempt) {
    const std::uint64_t want = data.size() - done;
    const std::uint64_t index = fs_->opCounter_.fetch_add(1);
    lastIndex = index;
    FaultHook hook;
    {
      std::lock_guard<std::mutex> lock(fs_->hookMu_);
      hook = fs_->faultHook_;
    }
    OpOutcome outcome{want, false};
    bool failed = false;
    if (hook) {
      OpContext ctx{name_, OpKind::Write, offset + done, want, nodeId, index};
      ctx.outcome = &outcome;
      try {
        hook(ctx);
      } catch (const CrashInjected&) {
        throw;  // fatal by contract; nothing of this attempt was applied
      } catch (const IoError&) {
        failed = true;
        lastError = std::current_exception();
      }
    }
    if (!failed) {
      const std::uint64_t granted = std::min(outcome.completeBytes, want);
      if (granted > 0) {
        storage_->writeAt(offset + done,
                          data.subspan(static_cast<size_t>(done),
                                       static_cast<size_t>(granted)));
        done += granted;
      }
      if (outcome.crash) {
        throw CrashInjected(strfmt(
            "background write on '%s' at op %llu: %llu of %llu bytes durable",
            name_.c_str(), static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(done),
            static_cast<unsigned long long>(data.size())));
      }
      if (done == data.size()) {
        stats.writeOps += 1;
        stats.bytesWritten += data.size();
        foldCodecBg(stats, codecBefore);
        runObserveHook(OpKind::Write, offset, data.size(), nodeId, lastIndex,
                       0.0);
        return;
      }
      lastError = nullptr;  // short completion, not an exception
    }
    // Transient failure or short completion: the accumulated modeled
    // backoff stands in for the issuing node's clock in the deadline check.
    if (attempt >= rp.maxAttempts ||
        stats.backoffSeconds - start >= rp.opDeadlineSeconds) {
      stats.giveUps += 1;
      if (lastError) std::rethrow_exception(lastError);
      throw IoError(strfmt(
          "short background write on '%s': only %llu of %llu bytes "
          "completed at offset %llu",
          name_.c_str(), static_cast<unsigned long long>(done),
          static_cast<unsigned long long>(data.size()),
          static_cast<unsigned long long>(offset)));
    }
    stats.retries += 1;
    stats.backoffSeconds += rp.backoffFor(attempt, index, nodeId);
  }
}

std::uint64_t ParallelFile::readAtBackground(int nodeId, std::uint64_t offset,
                                             std::span<Byte> out,
                                             BgIoStats& stats) {
  const RetryPolicy rp = fs_->retryPolicy();
  const CodecThreadStats codecBefore = codecThreadStats();
  const double start = stats.backoffSeconds;
  std::uint64_t done = 0;
  std::uint64_t lastIndex = 0;
  std::exception_ptr lastError;
  for (int attempt = 1;; ++attempt) {
    const std::uint64_t want = out.size() - done;
    const std::uint64_t index = fs_->opCounter_.fetch_add(1);
    lastIndex = index;
    FaultHook hook;
    {
      std::lock_guard<std::mutex> lock(fs_->hookMu_);
      hook = fs_->faultHook_;
    }
    OpOutcome outcome{want, false};
    bool failed = false;
    if (hook) {
      OpContext ctx{name_, OpKind::Read, offset + done, want, nodeId, index};
      ctx.outcome = &outcome;
      try {
        hook(ctx);
      } catch (const CrashInjected&) {
        throw;
      } catch (const IoError&) {
        failed = true;
        lastError = std::current_exception();
      }
    }
    if (!failed) {
      if (outcome.crash) {
        throw CrashInjected(strfmt("background read on '%s' at op %llu",
                                   name_.c_str(),
                                   static_cast<unsigned long long>(index)));
      }
      const std::uint64_t limit = std::min(outcome.completeBytes, want);
      const std::uint64_t n =
          storage_->readAt(offset + done,
                           out.subspan(static_cast<size_t>(done),
                                       static_cast<size_t>(limit)));
      done += n;
      if (done == out.size() || n < limit) {
        // Complete, or a true end-of-file: not a fault.
        stats.readOps += 1;
        stats.bytesRead += done;
        foldCodecBg(stats, codecBefore);
        runObserveHook(OpKind::Read, offset, out.size(), nodeId, lastIndex,
                       0.0);
        return done;
      }
      lastError = nullptr;
    }
    if (attempt >= rp.maxAttempts ||
        stats.backoffSeconds - start >= rp.opDeadlineSeconds) {
      stats.giveUps += 1;
      if (lastError) std::rethrow_exception(lastError);
      throw IoError(strfmt(
          "short background read on '%s': only %llu of %llu bytes "
          "completed at offset %llu",
          name_.c_str(), static_cast<unsigned long long>(done),
          static_cast<unsigned long long>(out.size()),
          static_cast<unsigned long long>(offset)));
    }
    stats.retries += 1;
    stats.backoffSeconds += rp.backoffFor(attempt, index, nodeId);
  }
}

void ParallelFile::runObserveHook(OpKind kind, std::uint64_t offset,
                                  std::uint64_t bytes, int nodeId,
                                  std::uint64_t opIndex, double duration) {
  FaultHook hook;
  {
    std::lock_guard<std::mutex> lock(fs_->hookMu_);
    hook = fs_->observeHook_;
  }
  if (hook) {
    OpContext ctx{name_, kind, offset, bytes, nodeId, opIndex};
    ctx.opDurationSeconds = duration;
    hook(ctx);
  }
}

void ParallelFile::writeAt(rt::Node& node, std::uint64_t offset,
                           std::span<const Byte> data) {
  PCXX_OBS_PHASE(node.obs(), "pfs.writeAt", PfsWriteSeconds);
  PCXX_OBS_COUNT(node.obs(), PfsWriteOps, 1);
  PCXX_OBS_COUNT(node.obs(), PfsWriteBytes, data.size());
  PCXX_OBS_HIST(node.obs(), PfsWriteSize, data.size());
  const double t0 = node.clock().now();
  const CodecThreadStats codecBefore = codecThreadStats();
  const std::uint64_t index = performWrite(node, offset, data);
  foldCodecObs(node, codecBefore);
  const std::uint64_t cum = cumWritten_.fetch_add(data.size()) + data.size();
  // The size probe takes a storage lock (or an fstat); skip it when the
  // model would discard it.
  if (fs_->model_.enabled()) {
    fs_->model_.chargeIndependentOp(node, offset, data.size(),
                                    storage_->size(), cum, /*isWrite=*/true);
  }
  runObserveHook(OpKind::Write, offset, data.size(), node.id(), index,
                 node.clock().now() - t0);
}

std::uint64_t ParallelFile::readAt(rt::Node& node, std::uint64_t offset,
                                   std::span<Byte> out) {
  PCXX_OBS_PHASE(node.obs(), "pfs.readAt", PfsReadSeconds);
  PCXX_OBS_COUNT(node.obs(), PfsReadOps, 1);
  PCXX_OBS_COUNT(node.obs(), PfsReadBytes, out.size());
  PCXX_OBS_HIST(node.obs(), PfsReadSize, out.size());
  const double t0 = node.clock().now();
  std::uint64_t n = 0;
  const CodecThreadStats codecBefore = codecThreadStats();
  const std::uint64_t index = performRead(node, offset, out, &n);
  foldCodecObs(node, codecBefore);
  if (fs_->model_.enabled()) {
    fs_->model_.chargeIndependentOp(node, offset, out.size(),
                                    storage_->size(), cumWritten_.load(),
                                    /*isWrite=*/false);
  }
  runObserveHook(OpKind::Read, offset, out.size(), node.id(), index,
                 node.clock().now() - t0);
  return n;
}

std::uint64_t ParallelFile::readTail(rt::Node& node, std::span<Byte> out) {
  if (out.empty()) return 0;
  const std::uint64_t fileBytes = storage_->size();
  const std::uint64_t n = std::min<std::uint64_t>(out.size(), fileBytes);
  if (n == 0) return 0;
  return readAt(node, fileBytes - n, out.subspan(0, static_cast<size_t>(n)));
}

std::uint64_t ParallelFile::writeOrdered(rt::Node& node,
                                         std::span<const Byte> myBlock) {
  PCXX_OBS_PHASE(node.obs(), "pfs.writeOrdered", PfsWriteSeconds);
  PCXX_OBS_COUNT(node.obs(), PfsWriteOps, 1);
  PCXX_OBS_COUNT(node.obs(), PfsWriteBytes, myBlock.size());
  PCXX_OBS_COUNT(node.obs(), PfsCollectiveOps, 1);
  PCXX_OBS_HIST(node.obs(), PfsWriteSize, myBlock.size());
  const double t0 = node.clock().now();
  const std::uint64_t base = cursor_.load();
  const std::uint64_t cumBefore = cumWritten_.load();
  const auto sizes = node.allgatherU64(myBlock.size());
  std::uint64_t myOffset = base;
  std::uint64_t total = 0;
  std::uint64_t maxNode = 0;
  for (int i = 0; i < node.nprocs(); ++i) {
    if (i < node.id()) myOffset += sizes[static_cast<size_t>(i)];
    total += sizes[static_cast<size_t>(i)];
    maxNode = std::max(maxNode, sizes[static_cast<size_t>(i)]);
  }
  const CodecThreadStats codecBefore = codecThreadStats();
  const std::uint64_t index = performWrite(node, myOffset, myBlock);
  foldCodecObs(node, codecBefore);

  // All nodes complete the collective transfer together; charge the modeled
  // duration uniformly (the collective below also synchronizes clocks).
  node.barrier();
  const double duration = fs_->model_.collectiveBulkDuration(
      node.nprocs(), total, maxNode, storage_->size(), cumBefore,
      /*isWrite=*/true);
  node.clock().advance(duration);
  cursor_.store(base + total);
  cumWritten_.store(cumBefore + total);
  node.barrier();
  runObserveHook(OpKind::Write, myOffset, myBlock.size(), node.id(), index,
                 node.clock().now() - t0);
  return myOffset;
}

OrderedReservation ParallelFile::reserveOrdered(rt::Node& node,
                                                std::uint64_t myBytes) {
  PCXX_OBS_PHASE(node.obs(), "pfs.reserveOrdered", PfsWriteSeconds);
  PCXX_OBS_COUNT(node.obs(), PfsWriteOps, 1);
  PCXX_OBS_COUNT(node.obs(), PfsWriteBytes, myBytes);
  PCXX_OBS_COUNT(node.obs(), PfsCollectiveOps, 1);
  PCXX_OBS_HIST(node.obs(), PfsWriteSize, myBytes);
  const std::uint64_t base = cursor_.load();
  const std::uint64_t cumBefore = cumWritten_.load();
  const auto sizes = node.allgatherU64(myBytes);
  OrderedReservation r;
  r.offset = base;
  std::uint64_t maxNode = 0;
  for (int i = 0; i < node.nprocs(); ++i) {
    if (i < node.id()) r.offset += sizes[static_cast<size_t>(i)];
    r.totalBytes += sizes[static_cast<size_t>(i)];
    maxNode = std::max(maxNode, sizes[static_cast<size_t>(i)]);
  }
  node.barrier();
  // The file size writeOrdered's model charge would see is the region end:
  // the background transfer will have extended the file that far.
  const std::uint64_t sizeAfter =
      std::max<std::uint64_t>(storage_->size(), base + r.totalBytes);
  const double full = fs_->model_.collectiveBulkDuration(
      node.nprocs(), r.totalBytes, maxNode, sizeAfter, cumBefore,
      /*isWrite=*/true);
  const double syncShare =
      fs_->model_.enabled()
          ? fs_->model_.params().collectiveSync(node.nprocs())
          : 0.0;
  r.transferSeconds = std::max(0.0, full - syncShare);
  node.clock().advance(syncShare);
  cursor_.store(base + r.totalBytes);
  cumWritten_.store(cumBefore + r.totalBytes);
  node.barrier();
  return r;
}

std::uint64_t ParallelFile::readOrdered(rt::Node& node,
                                        std::span<Byte> myBlock) {
  PCXX_OBS_PHASE(node.obs(), "pfs.readOrdered", PfsReadSeconds);
  PCXX_OBS_COUNT(node.obs(), PfsReadOps, 1);
  PCXX_OBS_COUNT(node.obs(), PfsReadBytes, myBlock.size());
  PCXX_OBS_COUNT(node.obs(), PfsCollectiveOps, 1);
  PCXX_OBS_HIST(node.obs(), PfsReadSize, myBlock.size());
  const double t0 = node.clock().now();
  const std::uint64_t base = cursor_.load();
  const auto sizes = node.allgatherU64(myBlock.size());
  std::uint64_t myOffset = base;
  std::uint64_t total = 0;
  std::uint64_t maxNode = 0;
  for (int i = 0; i < node.nprocs(); ++i) {
    if (i < node.id()) myOffset += sizes[static_cast<size_t>(i)];
    total += sizes[static_cast<size_t>(i)];
    maxNode = std::max(maxNode, sizes[static_cast<size_t>(i)]);
  }
  std::uint64_t got = 0;
  const CodecThreadStats codecBefore = codecThreadStats();
  const std::uint64_t index = performRead(node, myOffset, myBlock, &got);
  foldCodecObs(node, codecBefore);
  const bool shortRead = got != myBlock.size();

  node.barrier();
  const double duration = fs_->model_.collectiveBulkDuration(
      node.nprocs(), total, maxNode, storage_->size(), cumWritten_.load(),
      /*isWrite=*/false);
  node.clock().advance(duration);
  cursor_.store(base + total);
  node.barrier();
  runObserveHook(OpKind::Read, myOffset, myBlock.size(), node.id(), index,
                 node.clock().now() - t0);
  if (shortRead) {
    throw IoError("readOrdered: file '" + name_ + "' ended early (wanted " +
                  std::to_string(myBlock.size()) + " bytes at offset " +
                  std::to_string(myOffset) + ", got " + std::to_string(got) +
                  ")");
  }
  return myOffset;
}

void ParallelFile::seekShared(rt::Node& node, std::uint64_t offset) {
  PCXX_OBS_COUNT(node.obs(), PfsCollectiveOps, 1);
  node.barrier();
  cursor_.store(offset);
  node.barrier();
}

void ParallelFile::sync(rt::Node& node) {
  PCXX_OBS_COUNT(node.obs(), PfsCollectiveOps, 1);
  node.barrier();
  if (node.id() == 0) storage_->sync();
  const double duration = fs_->model_.enabled()
                              ? fs_->model_.params().collectiveSync(
                                    node.nprocs())
                              : 0.0;
  node.clock().advance(duration);
  node.barrier();
}

// ---------------------------------------------------------------------------
// Pfs
// ---------------------------------------------------------------------------

Pfs::Pfs(PfsConfig config)
    : config_(std::move(config)),
      model_(config_.perf, config_.nIoNodes, config_.stripeUnit) {
  // Environment kill switch / default for the chunk codec, read once so a
  // whole test run can be flipped without touching configuration code.
  if (const char* env = std::getenv("PCXX_CODEC")) {
    const std::string v(env);
    if (v == "off" || v == "none" || v == "0") {
      codecEnv_ = CodecEnv::ForceOff;
    } else if (v == "lz" || v == "on" || v == "1") {
      codecEnv_ = CodecEnv::ForceLz;
    }
  }
}

std::string Pfs::posixPath(const std::string& fsName) const {
  return config_.dir + "/" + fsName;
}

CodecSpec Pfs::effectiveCodecSpec(const CodecSpec* codec) const {
  CodecSpec s = codec != nullptr ? *codec : config_.codec;
  if (codecEnv_ == CodecEnv::ForceOff) {
    s.enabled = false;  // the kill switch wins over everything
  } else if (codecEnv_ == CodecEnv::ForceLz && codec == nullptr &&
             !config_.codec.enabled) {
    // Default-enable only where nothing asked for a codec explicitly.
    s.enabled = true;
    s.codec = CodecId::Lz;
  }
  return s;
}

std::shared_ptr<StorageBackend> Pfs::backendFor(const std::string& fsName,
                                                OpenMode mode,
                                                const CodecSpec* codec) {
  if (config_.backend == PfsConfig::Backend::Memory) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memFiles_.find(fsName);
    if (mode == OpenMode::Read) {
      if (it == memFiles_.end()) {
        throw IoError("pfs file '" + fsName + "' does not exist");
      }
      // Readers auto-detect framing; the dedup base (if named) lives in
      // the same namespace. mu_ is held across the attach scan, which
      // also keeps the resolver's map lookup safe.
      return wrapCodecIfFramed(
          it->second,
          [this](const std::string& base) -> std::shared_ptr<StorageBackend> {
            auto bit = memFiles_.find(base);
            return bit == memFiles_.end() ? nullptr : bit->second;
          });
    }
    // Create: fresh storage (truncate semantics). The registry keeps the
    // RAW store so physical test helpers and later attaches see the real
    // bytes; the returned handle is the codec view when one is active.
    auto storage = std::make_shared<MemStorage>();
    memFiles_[fsName] = storage;
    const CodecSpec spec = effectiveCodecSpec(codec);
    if (!spec.enabled) return storage;
    std::shared_ptr<StorageBackend> baseInner;
    if (!spec.dedupBase.empty()) {
      auto bit = memFiles_.find(spec.dedupBase);
      if (bit != memFiles_.end()) baseInner = bit->second;
    }
    return CodecStorage::create(storage, spec, std::move(baseInner));
  }
  // Posix backend.
  const std::string path = posixPath(fsName);
  if (mode == OpenMode::Read) {
    if (!std::filesystem::exists(path)) {
      throw IoError("pfs file '" + fsName + "' does not exist at " + path);
    }
    return wrapCodecIfFramed(
        std::make_shared<PosixStorage>(path),
        [this](const std::string& base) -> std::shared_ptr<StorageBackend> {
          const std::string basePath = posixPath(base);
          if (!std::filesystem::exists(basePath)) return nullptr;
          return std::make_shared<PosixStorage>(basePath);
        });
  }
  auto storage = std::make_shared<PosixStorage>(path);
  storage->truncate(0);
  const CodecSpec spec = effectiveCodecSpec(codec);
  if (!spec.enabled) return storage;
  std::shared_ptr<StorageBackend> baseInner;
  if (!spec.dedupBase.empty()) {
    const std::string basePath = posixPath(spec.dedupBase);
    if (std::filesystem::exists(basePath)) {
      baseInner = std::make_shared<PosixStorage>(basePath);
    }
  }
  return CodecStorage::create(std::move(storage), spec, std::move(baseInner));
}

ParallelFilePtr Pfs::open(rt::Node& node, const std::string& fsName,
                          OpenMode mode) {
  return openImpl(node, fsName, mode, nullptr);
}

ParallelFilePtr Pfs::open(rt::Node& node, const std::string& fsName,
                          OpenMode mode, const CodecSpec& codec) {
  return openImpl(node, fsName, mode, &codec);
}

ParallelFilePtr Pfs::openImpl(rt::Node& node, const std::string& fsName,
                              OpenMode mode, const CodecSpec* codec) {
  PCXX_OBS_SPAN(node.obs(), "pfs.open");
  PCXX_OBS_COUNT(node.obs(), PfsCollectiveOps, 1);
  // Node 0 resolves the backend; the resulting file object is shared.
  node.barrier();
  ParallelFilePtr file;
  std::shared_ptr<StorageBackend> storage;
  std::exception_ptr failure;
  if (node.id() == 0) {
    try {
      storage = backendFor(fsName, mode, codec);
    } catch (...) {
      failure = std::current_exception();
    }
  }
  // Propagate open failure to all nodes consistently.
  const double failFlag =
      node.allreduceMax(node.id() == 0 && failure ? 1.0 : 0.0);
  if (failFlag > 0.0) {
    if (node.id() == 0) std::rethrow_exception(failure);
    throw IoError("pfs open('" + fsName + "') failed on node 0");
  }
  // Share the pointer via the collective staging area: node 0 stores it in
  // a member slot guarded by barriers.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (node.id() == 0) {
      pendingOpen_ = ParallelFilePtr(new ParallelFile(this, fsName, storage));
    }
  }
  node.barrier();
  {
    std::lock_guard<std::mutex> lock(mu_);
    file = pendingOpen_;
  }
  node.barrier();
  if (node.id() == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    pendingOpen_.reset();
  }
  // Charge the open cost (one collective synchronization).
  if (model_.enabled()) {
    node.clock().advance(model_.params().collectiveSync(node.nprocs()));
  }
  node.barrier();
  return file;
}

void Pfs::remove(rt::Node& node, const std::string& fsName) {
  node.barrier();
  if (node.id() == 0) {
    if (config_.backend == PfsConfig::Backend::Memory) {
      std::lock_guard<std::mutex> lock(mu_);
      memFiles_.erase(fsName);
    } else {
      std::filesystem::remove(posixPath(fsName));
    }
  }
  node.barrier();
}

bool Pfs::exists(const std::string& fsName) {
  if (config_.backend == PfsConfig::Backend::Memory) {
    std::lock_guard<std::mutex> lock(mu_);
    return memFiles_.count(fsName) != 0;
  }
  return std::filesystem::exists(posixPath(fsName));
}

std::vector<std::string> Pfs::listFiles(const std::string& prefix) {
  std::vector<std::string> out;
  if (config_.backend == PfsConfig::Backend::Memory) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, storage] : memFiles_) {
      if (name.rfind(prefix, 0) == 0) out.push_back(name);
    }
  } else {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(config_.dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0) out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Pfs::setFaultHook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(hookMu_);
  faultHook_ = std::move(hook);
}

void Pfs::setObserveHook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(hookMu_);
  observeHook_ = std::move(hook);
}

void Pfs::setRetryPolicy(RetryPolicy policy) {
  PCXX_REQUIRE(policy.maxAttempts >= 1,
               "RetryPolicy needs at least one attempt");
  std::lock_guard<std::mutex> lock(hookMu_);
  retryPolicy_ = policy;
}

RetryPolicy Pfs::retryPolicy() const {
  std::lock_guard<std::mutex> lock(hookMu_);
  return retryPolicy_;
}

std::shared_ptr<StorageBackend> Pfs::rawStorageFor(
    const std::string& fsName) {
  if (config_.backend == PfsConfig::Backend::Memory) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memFiles_.find(fsName);
    return it == memFiles_.end() ? nullptr : it->second;
  }
  const std::string path = posixPath(fsName);
  if (!std::filesystem::exists(path)) return nullptr;
  return std::make_shared<PosixStorage>(path);
}

void Pfs::corruptByte(const std::string& fsName, std::uint64_t offset,
                      Byte value) {
  auto raw = rawStorageFor(fsName);
  PCXX_REQUIRE(raw != nullptr, "corruptByte: no such file");
  // Corrupt the LOGICAL byte: on a framed file the codec re-seals the
  // chunk around the flip, so the damage models record-payload bit rot
  // (what this helper's callers simulate), not frame damage — that is
  // what corruptStoredByte is for.
  auto storage = wrapCodecIfFramed(
      std::move(raw),
      [this](const std::string& base) { return rawStorageFor(base); });
  const Byte b = value;
  storage->writeAt(offset, {&b, 1});
}

void Pfs::truncateFile(const std::string& fsName, std::uint64_t newSize) {
  auto raw = rawStorageFor(fsName);
  PCXX_REQUIRE(raw != nullptr, "truncateFile: no such file");
  auto storage = wrapCodecIfFramed(
      std::move(raw),
      [this](const std::string& base) { return rawStorageFor(base); });
  storage->truncate(newSize);
}

void Pfs::corruptStoredByte(const std::string& fsName, std::uint64_t offset,
                            Byte value) {
  auto raw = rawStorageFor(fsName);
  PCXX_REQUIRE(raw != nullptr, "corruptStoredByte: no such file");
  const Byte b = value;
  raw->writeAt(offset, {&b, 1});
}

std::uint64_t Pfs::storedFileSize(const std::string& fsName) {
  auto raw = rawStorageFor(fsName);
  PCXX_REQUIRE(raw != nullptr, "storedFileSize: no such file");
  return raw->size();
}

}  // namespace pcxx::pfs
