// Storage backends for the parallel file system substrate.
//
// A StorageBackend is a flat, thread-safe byte array with read/write-at
// semantics. The pfs layer puts striping, node-order collective operations,
// timing models, and fault injection on top; backends only store bytes.
//
//  * MemStorage   — in-memory; used by tests and by simulation-mode benches
//                   (data correctness is still fully exercised). Reads and
//                   size() share a reader-writer lock, so nodes' readAt
//                   copies run concurrently; writeAt and truncate hold it
//                   exclusively, so a read never overlaps a write.
//  * PosixStorage — a real file accessed with pread/pwrite; used by
//                   real-time benches and by the examples so outputs are
//                   inspectable on disk.
#pragma once

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
};

/// In-memory backend.
class MemStorage final : public StorageBackend {
 public:
  void writeAt(std::uint64_t offset, std::span<const Byte> data) override;
  std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) override;
  std::uint64_t size() override;
  void truncate(std::uint64_t newSize) override;
  void sync() override {}

 private:
  std::shared_mutex mu_;
  ByteBuffer data_;
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
