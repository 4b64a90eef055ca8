// Storage backends for the parallel file system substrate.
//
// A StorageBackend is a flat, thread-safe byte array with read/write-at
// semantics. The pfs layer puts striping, node-order collective operations,
// timing models, and fault injection on top; backends only store bytes.
//
//  * MemStorage   — in-memory; used by tests and by simulation-mode benches
//                   (data correctness is still fully exercised). Reads,
//                   and the node blocks of a collective write, share a
//                   reader-writer lock, so they copy concurrently; a write
//                   outside a collective's reserved range, a reallocation
//                   and truncate hold it exclusively.
//  * PosixStorage — a real file accessed with pread/pwrite; used by
//                   real-time benches and by the examples so outputs are
//                   inspectable on disk.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace pcxx::pfs {

/// Flat byte storage with positional I/O. All methods are thread-safe.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Write `data` at `offset`, extending the file as needed.
  virtual void writeAt(std::uint64_t offset, std::span<const Byte> data) = 0;

  /// Read up to `out.size()` bytes at `offset`; returns bytes actually read
  /// (fewer only at end-of-file).
  virtual std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) = 0;

  virtual std::uint64_t size() = 0;
  virtual void truncate(std::uint64_t newSize) = 0;
  /// Flush to durable storage (no-op for memory).
  virtual void sync() = 0;

  /// A collective write is about to land: its node blocks tile
  /// [begin, end) and each node writeAt()s its own block, concurrently with
  /// its peers. Every node calls this first, with the same range. It makes
  /// room up to `end` without zero-filling it and leaves size() alone: size()
  /// stays the highest byte actually written. Returns whether it reserved:
  /// only then must a node whose block fails zeroUnwritten() its rest. The
  /// default reserves nothing: a file grows on write and reads its holes as
  /// zeros.
  virtual bool reserveForWrite(std::uint64_t begin, std::uint64_t end) {
    (void)begin;
    (void)end;
    return false;
  }

  /// Zero [offset, offset + len) of the reserved range without changing
  /// size(). Called on failure: a node whose block gives up or crashes
  /// zeroes the part it did not write, which a peer's bytes may put below
  /// size().
  virtual void zeroUnwritten(std::uint64_t offset, std::uint64_t len) {
    (void)offset;
    (void)len;
  }
};

/// In-memory backend: a byte buffer whose growth does not zero-fill.
///
/// Every byte below size() is written data or zero. A write that opens a
/// gap past size() zeroes the gap itself, under the exclusive lock. Bytes
/// in [size(), reserved_) are zero, written, or the block of a collective
/// write still in flight, whose node writes it or zeroes it; so a write
/// that ends inside the reserved range copies under the shared lock and
/// zeroes nothing. The buffer keeps its memory when the file shrinks.
class MemStorage final : public StorageBackend {
 public:
  void writeAt(std::uint64_t offset, std::span<const Byte> data) override;
  std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) override;
  std::uint64_t size() override;
  void truncate(std::uint64_t newSize) override;
  void sync() override {}
  bool reserveForWrite(std::uint64_t begin, std::uint64_t end) override;
  void zeroUnwritten(std::uint64_t offset, std::uint64_t len) override;

 private:
  /// Reallocate so the buffer holds `end` bytes. Holds mu_ exclusively.
  void growLocked(std::uint64_t end);

  std::shared_mutex mu_;  ///< shared: copies; exclusive: buffer and gaps
  std::mutex growMu_;     ///< serialises reserveForWrite past reserved_
  std::unique_ptr<Byte[]> buf_;
  std::atomic<std::uint64_t> room_{0};      ///< bytes buf_ holds
  std::atomic<std::uint64_t> size_{0};      ///< highest byte written
  std::atomic<std::uint64_t> reserved_{0};  ///< end of the reserved range
};

/// POSIX file backend (pread/pwrite on a real file descriptor).
class PosixStorage final : public StorageBackend {
 public:
  /// Opens (creating if necessary) the file at `path`. Throws IoError.
  explicit PosixStorage(const std::string& path);
  ~PosixStorage() override;

  PosixStorage(const PosixStorage&) = delete;
  PosixStorage& operator=(const PosixStorage&) = delete;

  void writeAt(std::uint64_t offset, std::span<const Byte> data) override;
  std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) override;
  std::uint64_t size() override;
  void truncate(std::uint64_t newSize) override;
  void sync() override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace pcxx::pfs
