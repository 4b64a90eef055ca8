// Unit tests for the storage backends (memory and POSIX).
#include <gtest/gtest.h>

#include <atomic>
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

TEST_P(BackendTest, WriteBeyondEndCreatesHole) {
  ByteBuffer data{9, 9};
  storage_->writeAt(100, data);
  EXPECT_EQ(storage_->size(), 102u);
  ByteBuffer out(102);
  EXPECT_EQ(storage_->readAt(0, out), 102u);
  EXPECT_EQ(out[50], 0);  // hole reads as zero
  EXPECT_EQ(out[100], 9);
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

}  // namespace
