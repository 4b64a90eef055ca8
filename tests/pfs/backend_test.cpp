// Unit tests for the storage backends (memory and POSIX).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "src/pfs/backend.h"
#include "src/util/error.h"

namespace {

using namespace pcxx;
using namespace pcxx::pfs;

class BackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "posix") {
      dir_ = std::filesystem::temp_directory_path() /
             ("pcxx_backend_" + std::to_string(::getpid()));
      std::filesystem::create_directories(dir_);
      storage_ = std::make_unique<PosixStorage>((dir_ / "file").string());
    } else {
      storage_ = std::make_unique<MemStorage>();
    }
  }
  void TearDown() override {
    storage_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<StorageBackend> storage_;
  std::filesystem::path dir_;
};

TEST_P(BackendTest, StartsEmpty) {
  EXPECT_EQ(storage_->size(), 0u);
  ByteBuffer out(10);
  EXPECT_EQ(storage_->readAt(0, out), 0u);
}

TEST_P(BackendTest, WriteReadRoundTrip) {
  ByteBuffer data{1, 2, 3, 4, 5};
  storage_->writeAt(0, data);
  EXPECT_EQ(storage_->size(), 5u);
  ByteBuffer out(5);
  EXPECT_EQ(storage_->readAt(0, out), 5u);
  EXPECT_EQ(out, data);
}

/// Reads the whole store and checks its size.
ByteBuffer readAll(StorageBackend& s, std::uint64_t expectSize) {
  EXPECT_EQ(s.size(), expectSize);
  ByteBuffer out(static_cast<size_t>(expectSize));
  EXPECT_EQ(s.readAt(0, out), expectSize);
  return out;
}

bool allEqual(const ByteBuffer& b, size_t from, size_t to, Byte v) {
  return std::all_of(b.begin() + static_cast<std::ptrdiff_t>(from),
                     b.begin() + static_cast<std::ptrdiff_t>(to),
                     [v](Byte x) { return x == v; });
}

TEST_P(BackendTest, WriteBeyondEndCreatesHole) {
  storage_->writeAt(0, ByteBuffer(8, 0x11));
  storage_->writeAt(100, ByteBuffer{9, 9});
  const ByteBuffer all = readAll(*storage_, 102);
  EXPECT_TRUE(allEqual(all, 0, 8, 0x11));
  EXPECT_TRUE(allEqual(all, 8, 100, 0));  // the hole reads as zeros
  EXPECT_TRUE(allEqual(all, 100, 102, 9));
}

TEST_P(BackendTest, PartialReadAtEof) {
  ByteBuffer data{1, 2, 3};
  storage_->writeAt(0, data);
  ByteBuffer out(10);
  EXPECT_EQ(storage_->readAt(1, out), 2u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
}

TEST_P(BackendTest, OverwriteInPlace) {
  storage_->writeAt(0, ByteBuffer{1, 2, 3, 4});
  storage_->writeAt(1, ByteBuffer{9, 9});
  ByteBuffer out(4);
  storage_->readAt(0, out);
  EXPECT_EQ(out, (ByteBuffer{1, 9, 9, 4}));
}

TEST_P(BackendTest, TruncateShrinksAndGrows) {
  storage_->writeAt(0, ByteBuffer{1, 2, 3, 4});
  storage_->truncate(2);
  EXPECT_EQ(storage_->size(), 2u);
  storage_->truncate(6);
  EXPECT_EQ(storage_->size(), 6u);
  ByteBuffer out(6);
  EXPECT_EQ(storage_->readAt(0, out), 6u);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[3], 0);  // regrown region is zero
}

// Bytes cut off by a truncate never come back: not when a later write opens
// a gap over them, nor when a write lands past the old content.
TEST_P(BackendTest, TruncatedBytesNeverComeBack) {
  storage_->writeAt(0, ByteBuffer(256, 0xAA));
  storage_->truncate(16);
  EXPECT_EQ(storage_->size(), 16u);
  storage_->writeAt(64, ByteBuffer(4, 0x22));
  ByteBuffer all = readAll(*storage_, 68);
  EXPECT_TRUE(allEqual(all, 0, 16, 0xAA));
  EXPECT_TRUE(allEqual(all, 16, 64, 0));
  EXPECT_TRUE(allEqual(all, 64, 68, 0x22));

  storage_->writeAt(300, ByteBuffer(4, 0x33));
  all = readAll(*storage_, 304);
  EXPECT_TRUE(allEqual(all, 68, 300, 0));
  EXPECT_TRUE(allEqual(all, 300, 304, 0x33));

  storage_->truncate(8);
  storage_->truncate(200);
  all = readAll(*storage_, 200);
  EXPECT_TRUE(allEqual(all, 0, 8, 0xAA));
  EXPECT_TRUE(allEqual(all, 8, 200, 0));
}

// offset + size wraps past 2^64: an IoError, and the store is untouched.
TEST_P(BackendTest, WriteWhoseEndWrapsIsAnIoError) {
  storage_->writeAt(0, ByteBuffer{1, 2, 3, 4});
  EXPECT_THROW(storage_->writeAt(UINT64_MAX - 1, ByteBuffer(4, 9)), IoError);
  EXPECT_EQ(readAll(*storage_, 4), (ByteBuffer{1, 2, 3, 4}));
}

TEST_P(BackendTest, SyncSucceeds) {
  storage_->writeAt(0, ByteBuffer{1});
  EXPECT_NO_THROW(storage_->sync());
}

TEST_P(BackendTest, LargeWrite) {
  ByteBuffer big(3 * 1024 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<Byte>(i * 7);
  }
  storage_->writeAt(0, big);
  ByteBuffer out(big.size());
  EXPECT_EQ(storage_->readAt(0, out), big.size());
  EXPECT_EQ(out, big);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values("memory", "posix"));

TEST(PosixStorage, PersistsAcrossReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pcxx_persist_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "f").string();
  {
    PosixStorage s(path);
    s.writeAt(0, ByteBuffer{42, 43});
    s.sync();
  }
  {
    PosixStorage s(path);
    ByteBuffer out(2);
    EXPECT_EQ(s.readAt(0, out), 2u);
    EXPECT_EQ(out[0], 42);
  }
  std::filesystem::remove_all(dir);
}

TEST(PosixStorage, OpenInMissingDirectoryThrows) {
  EXPECT_THROW(PosixStorage("/nonexistent_dir_pcxx/f"), IoError);
}

// reserveForWrite makes room without moving size(): size() is the highest
// byte a write has landed, and it moves as the blocks land in any order.
TEST(MemStorageReserve, SizeIsTheHighestByteWrittenNotTheReservedEnd) {
  MemStorage storage;
  storage.reserveForWrite(0, 100);
  EXPECT_EQ(storage.size(), 0u);
  ByteBuffer out(100);
  EXPECT_EQ(storage.readAt(0, out), 0u);
  storage.writeAt(50, ByteBuffer(50, 2));
  EXPECT_EQ(storage.size(), 100u);
  storage.writeAt(0, ByteBuffer(50, 1));
  EXPECT_EQ(storage.size(), 100u);
  EXPECT_EQ(storage.readAt(0, out), 100u);
  EXPECT_TRUE(allEqual(out, 0, 50, 1));
  EXPECT_TRUE(allEqual(out, 50, 100, 2));
}

// A reserved range over memory a truncate left behind: the block that is
// never written is zeroed by its node, and the zeroing moves no size().
TEST(MemStorageReserve, ZeroUnwrittenClearsStaleBytesAndKeepsSize) {
  MemStorage storage;
  storage.writeAt(0, ByteBuffer(256, 0xAA));
  storage.truncate(0);
  storage.reserveForWrite(0, 256);
  storage.writeAt(128, ByteBuffer(128, 0x22));
  storage.zeroUnwritten(0, 128);
  ByteBuffer all = readAll(storage, 256);
  EXPECT_TRUE(allEqual(all, 0, 128, 0));
  EXPECT_TRUE(allEqual(all, 128, 256, 0x22));

  storage.reserveForWrite(256, 512);
  storage.zeroUnwritten(256, 256);
  EXPECT_EQ(storage.size(), 256u);
}

// A reserved range that starts past size() zeroes the gap below it, so
// memory a truncate left behind never shows between the old end and the
// first block.
TEST(MemStorageReserve, ReserveZeroesTheGapBelowItsRange) {
  MemStorage storage;
  storage.writeAt(0, ByteBuffer(256, 0xAA));
  storage.truncate(16);
  storage.reserveForWrite(64, 128);
  storage.writeAt(64, ByteBuffer(64, 0x22));
  const ByteBuffer all = readAll(storage, 128);
  EXPECT_TRUE(allEqual(all, 0, 16, 0xAA));
  EXPECT_TRUE(allEqual(all, 16, 64, 0));
  EXPECT_TRUE(allEqual(all, 64, 128, 0x22));
  EXPECT_THROW(storage.reserveForWrite(10, 5), IoError);
}

// A truncate takes the cut-off bytes out of the reserved range: a later
// write into the old range zeroes the gap over them like any write past
// size().
TEST(MemStorageReserve, TruncatedBytesLeaveTheReservedRange) {
  MemStorage storage;
  storage.reserveForWrite(0, 256);
  storage.writeAt(0, ByteBuffer(256, 0xAA));
  storage.truncate(16);
  storage.writeAt(64, ByteBuffer(4, 0x22));
  const ByteBuffer all = readAll(storage, 68);
  EXPECT_TRUE(allEqual(all, 0, 16, 0xAA));
  EXPECT_TRUE(allEqual(all, 16, 64, 0));
  EXPECT_TRUE(allEqual(all, 64, 68, 0x22));
}

// Readers share MemStorage's lock; an appending writer holds it alone. Four
// readers copy windows of a prefilled prefix while the writer grows the file
// (reallocating its buffer): every read must be exact and size() must never
// go backwards. Labelled stress, so the TSan leg runs it.
TEST(MemStorageConcurrency, PrefixReadsStayExactWhileWriterAppends) {
  MemStorage storage;
  constexpr size_t kPrefix = 16 * 1024;
  constexpr size_t kBlock = 1024;
  constexpr int kAppends = 512;
  ByteBuffer prefix(kPrefix);
  for (size_t i = 0; i < kPrefix; ++i) {
    prefix[i] = static_cast<Byte>(i * 31 + 7);
  }
  storage.writeAt(0, prefix);

  std::atomic<bool> done{false};
  std::atomic<int> badReads{0};
  std::atomic<int> shrinks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t lastSize = 0;
      for (int i = 0; i < 200 || !done.load(); ++i) {
        // A window that moves with the iteration, so readers overlap each
        // other and the writer at different offsets.
        const size_t offset = (static_cast<size_t>(i) * 977 + 4096 * t) %
                              (kPrefix - kBlock);
        const size_t len = kBlock + static_cast<size_t>(i % 7) * 512;
        ByteBuffer out(std::min(len, kPrefix - offset));
        if (storage.readAt(offset, out) != out.size() ||
            !std::equal(out.begin(), out.end(), prefix.begin() + offset)) {
          ++badReads;
        }
        const std::uint64_t size = storage.size();
        if (size < lastSize) ++shrinks;
        lastSize = size;
      }
    });
  }
  std::thread writer([&] {
    ByteBuffer block(kBlock);
    for (int k = 0; k < kAppends; ++k) {
      std::fill(block.begin(), block.end(), static_cast<Byte>(k));
      storage.writeAt(kPrefix + static_cast<std::uint64_t>(k) * kBlock, block);
    }
    done = true;
  });
  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(badReads.load(), 0);
  EXPECT_EQ(shrinks.load(), 0);
  EXPECT_EQ(storage.size(), kPrefix + kAppends * kBlock);
  ByteBuffer last(kBlock);
  storage.readAt(kPrefix + (kAppends - 1) * kBlock, last);
  EXPECT_EQ(last, ByteBuffer(kBlock, static_cast<Byte>(kAppends - 1)));
}

// The blocks of a collective write share the lock. Four writer threads
// reserve each round's range and copy disjoint tiles of it, in parallel,
// while four readers check windows of the prefix that earlier rounds
// finished. The store starts small, so reserving reallocates under the
// readers. Every read must be exact and size() must never go backwards.
TEST(MemStorageConcurrency, DisjointCollectiveCopiesWhileReadersReadPrefix) {
  MemStorage storage;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kTile = 1536;
  constexpr std::uint64_t kRound = kWriters * kTile;
  constexpr int kRounds = 200;
  constexpr std::uint64_t kPrefix = 16 * 1024;
  constexpr size_t kWindow = 1024;
  const auto pattern = [](std::uint64_t i) {
    return static_cast<Byte>(i * 131 + 17);
  };
  ByteBuffer prefix(kPrefix);
  for (std::uint64_t i = 0; i < kPrefix; ++i) prefix[i] = pattern(i);
  storage.writeAt(0, prefix);

  std::atomic<std::uint64_t> finished{kPrefix};
  std::atomic<bool> done{false};
  std::atomic<int> badReads{0};
  std::atomic<int> shrinks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t lastSize = 0;
      for (int i = 0; i < 200 || !done.load(); ++i) {
        const std::uint64_t end = finished.load(std::memory_order_acquire);
        const std::uint64_t offset =
            (static_cast<std::uint64_t>(i) * 977 + 4096 * t) % (end - kWindow);
        ByteBuffer out(kWindow + static_cast<size_t>(i % 3) * 256);
        out.resize(std::min<std::uint64_t>(out.size(), end - offset));
        bool exact = storage.readAt(offset, out) == out.size();
        for (size_t k = 0; exact && k < out.size(); ++k) {
          exact = out[k] == pattern(offset + k);
        }
        if (!exact) ++badReads;
        const std::uint64_t size = storage.size();
        if (size < lastSize || size < end) ++shrinks;
        lastSize = size;
      }
    });
  }
  std::barrier roundDone(kWriters, [&]() noexcept {
    finished.fetch_add(kRound, std::memory_order_release);
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      ByteBuffer tile(kTile);
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t base =
            kPrefix + static_cast<std::uint64_t>(r) * kRound;
        storage.reserveForWrite(base, base + kRound);
        const std::uint64_t at = base + static_cast<std::uint64_t>(w) * kTile;
        for (std::uint64_t k = 0; k < kTile; ++k) tile[k] = pattern(at + k);
        storage.writeAt(at, tile);
        roundDone.arrive_and_wait();
      }
    });
  }
  for (auto& w : writers) w.join();
  done = true;
  for (auto& r : readers) r.join();

  EXPECT_EQ(badReads.load(), 0);
  EXPECT_EQ(shrinks.load(), 0);
  const std::uint64_t total = kPrefix + kRounds * kRound;
  const ByteBuffer all = readAll(storage, total);
  std::uint64_t wrong = 0;
  for (std::uint64_t i = 0; i < total; ++i) wrong += all[i] != pattern(i);
  EXPECT_EQ(wrong, 0u);
}

}  // namespace
