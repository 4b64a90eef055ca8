#include "pfs/backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/error.h"

namespace pcxx::pfs {

// ---------------------------------------------------------------------------
// MemStorage
// ---------------------------------------------------------------------------

void MemStorage::writeAt(std::uint64_t offset, std::span<const Byte> data) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  const std::uint64_t end = offset + data.size();
  if (end > data_.size()) data_.resize(end);
  std::copy(data.begin(), data.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(offset));
}

std::uint64_t MemStorage::readAt(std::uint64_t offset, std::span<Byte> out) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (offset >= data_.size()) return 0;
  const std::uint64_t n =
      std::min<std::uint64_t>(out.size(), data_.size() - offset);
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(offset),
              static_cast<std::ptrdiff_t>(n), out.begin());
  return n;
}

std::uint64_t MemStorage::size() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return data_.size();
}

void MemStorage::truncate(std::uint64_t newSize) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  data_.resize(newSize);
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
