#include "pfs/backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/error.h"
#include "util/strfmt.h"

namespace pcxx::pfs {

// ---------------------------------------------------------------------------
// MemStorage
// ---------------------------------------------------------------------------

void MemStorage::writeAt(std::uint64_t offset, std::span<const Byte> data) {
  std::uint64_t end = 0;
  if (__builtin_add_overflow(offset, data.size(), &end)) {
    throw IoError(strfmt("memory file: a write of %zu bytes at offset %llu "
                         "ends past 2^64",
                         data.size(), static_cast<unsigned long long>(offset)));
  }
  if (end <= reserved_.load(std::memory_order_acquire)) {
    // A block of a collective (or a write into one's range): the room is
    // there and any gap below `offset` is zero or a peer's block.
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::copy(data.begin(), data.end(), buf_.get() + offset);
    std::uint64_t size = size_.load(std::memory_order_relaxed);
    while (size < end && !size_.compare_exchange_weak(
                             size, end, std::memory_order_release,
                             std::memory_order_relaxed)) {
    }
    return;
  }
  std::lock_guard<std::shared_mutex> lock(mu_);
  growLocked(end);
  const std::uint64_t size = size_.load(std::memory_order_relaxed);
  if (offset > size) std::fill(buf_.get() + size, buf_.get() + offset, Byte{0});
  std::copy(data.begin(), data.end(), buf_.get() + offset);
  if (end > size) size_.store(end, std::memory_order_release);
}

std::uint64_t MemStorage::readAt(std::uint64_t offset, std::span<Byte> out) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const std::uint64_t size = size_.load(std::memory_order_acquire);
  if (offset >= size) return 0;
  const std::uint64_t n = std::min<std::uint64_t>(out.size(), size - offset);
  std::copy_n(buf_.get() + offset, n, out.begin());
  return n;
}

std::uint64_t MemStorage::size() {
  return size_.load(std::memory_order_acquire);
}

void MemStorage::truncate(std::uint64_t newSize) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  const std::uint64_t size = size_.load(std::memory_order_relaxed);
  if (newSize > size) {
    growLocked(newSize);
    std::fill(buf_.get() + size, buf_.get() + newSize, Byte{0});
  }
  // Cut-off bytes stay in the buffer: take them out of the reserved range,
  // so the next write past them zeroes them.
  if (newSize < reserved_.load(std::memory_order_relaxed)) {
    reserved_.store(newSize, std::memory_order_release);
  }
  size_.store(newSize, std::memory_order_release);
}

bool MemStorage::reserveForWrite(std::uint64_t begin, std::uint64_t end) {
  if (end < begin) {
    throw IoError("memory file: a reserved range ends before it begins");
  }
  if (end <= reserved_.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> grow(growMu_);
  const std::uint64_t reserved = reserved_.load(std::memory_order_relaxed);
  if (end <= reserved) return true;  // a peer reserved it
  // Every byte below `clean` is data or zero; a gap from it to `begin` is
  // not, and only a gap or a reallocation takes the exclusive lock.
  const std::uint64_t clean =
      std::max(reserved, size_.load(std::memory_order_acquire));
  if (end > room_.load(std::memory_order_relaxed) || begin > clean) {
    std::lock_guard<std::shared_mutex> lock(mu_);
    growLocked(end);
    // Again under the lock: an exclusive write may have moved size().
    const std::uint64_t from =
        std::max(reserved_.load(std::memory_order_relaxed),
                 size_.load(std::memory_order_relaxed));
    if (begin > from) {
      std::fill(buf_.get() + from, buf_.get() + begin, Byte{0});
    }
  }
  reserved_.store(end, std::memory_order_release);
  return true;
}

void MemStorage::zeroUnwritten(std::uint64_t offset, std::uint64_t len) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const std::uint64_t room = room_.load(std::memory_order_relaxed);
  if (offset >= room) return;
  const std::uint64_t n = std::min(len, room - offset);
  std::fill_n(buf_.get() + offset, n, Byte{0});
}

void MemStorage::growLocked(std::uint64_t end) {
  const std::uint64_t room = room_.load(std::memory_order_relaxed);
  if (end <= room) return;
  // Doubling, as vector growth would; the copy takes every byte that may
  // hold data, the reserved range included.
  const std::uint64_t size = size_.load(std::memory_order_relaxed);
  const std::uint64_t keep =
      std::max(size, reserved_.load(std::memory_order_relaxed));
  const std::uint64_t newRoom = std::max(end, 2 * size);
  auto fresh = std::make_unique_for_overwrite<Byte[]>(newRoom);
  std::copy_n(buf_.get(), keep, fresh.get());
  buf_ = std::move(fresh);
  room_.store(newRoom, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// PosixStorage
// ---------------------------------------------------------------------------

PosixStorage::PosixStorage(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw IoError("open('" + path + "'): " + std::strerror(errno));
  }
}

PosixStorage::~PosixStorage() {
  if (fd_ >= 0) ::close(fd_);
}

void PosixStorage::writeAt(std::uint64_t offset, std::span<const Byte> data) {
  const Byte* p = data.data();
  std::uint64_t remaining = data.size();
  std::uint64_t off = offset;
  while (remaining > 0) {
    const ssize_t n = ::pwrite(fd_, p, remaining, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("pwrite('" + path_ + "'): " + std::strerror(errno));
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    remaining -= static_cast<std::uint64_t>(n);
  }
}

std::uint64_t PosixStorage::readAt(std::uint64_t offset, std::span<Byte> out) {
  Byte* p = out.data();
  std::uint64_t remaining = out.size();
  std::uint64_t off = offset;
  std::uint64_t total = 0;
  while (remaining > 0) {
    const ssize_t n = ::pread(fd_, p, remaining, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("pread('" + path_ + "'): " + std::strerror(errno));
    }
    if (n == 0) break;  // end of file
    p += n;
    off += static_cast<std::uint64_t>(n);
    remaining -= static_cast<std::uint64_t>(n);
    total += static_cast<std::uint64_t>(n);
  }
  return total;
}

std::uint64_t PosixStorage::size() {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    throw IoError("fstat('" + path_ + "'): " + std::strerror(errno));
  }
  return static_cast<std::uint64_t>(st.st_size);
}

void PosixStorage::truncate(std::uint64_t newSize) {
  if (::ftruncate(fd_, static_cast<off_t>(newSize)) != 0) {
    throw IoError("ftruncate('" + path_ + "'): " + std::strerror(errno));
  }
}

void PosixStorage::sync() {
  if (::fsync(fd_) != 0) {
    throw IoError("fsync('" + path_ + "'): " + std::strerror(errno));
  }
}

}  // namespace pcxx::pfs
