#include "scf/io_methods.h"

#include <cstring>

#include "dstream/istream.h"
#include "dstream/ostream.h"
#include "util/error.h"

namespace pcxx::scf {
namespace {

/// Fixed per-segment footprint when every segment holds `n` particles.
std::uint64_t segmentBytes(int n) {
  return sizeof(int) + 7ull * 8ull * static_cast<std::uint64_t>(n);
}

// ---------------------------------------------------------------------------
// Unbuffered: one OS request per field per segment.
// ---------------------------------------------------------------------------

class UnbufferedIo final : public IoMethod {
 public:
  std::string name() const override { return "Unbuffered I/O"; }

  void output(rt::Node& node, pfs::Pfs& fs,
              coll::Collection<Segment>& segments,
              const std::string& file) override {
    auto f = fs.open(node, file, pfs::OpenMode::Create);
    segments.forEachLocal([&](Segment& seg, std::int64_t g) {
      // Fixed geometry: segment g starts at g * segmentBytes(n).
      std::uint64_t off =
          static_cast<std::uint64_t>(g) * segmentBytes(seg.numberOfParticles);
      const auto n = static_cast<std::uint64_t>(seg.numberOfParticles);
      f->writeAt(node, off, asBytes(seg.numberOfParticles));
      off += sizeof(int);
      const double* fields[7] = {seg.x, seg.y, seg.z, seg.vx,
                                 seg.vy, seg.vz, seg.mass};
      for (const double* field : fields) {
        f->writeAt(node, off, asBytes(field, n));
        off += 8 * n;
      }
    });
    node.barrier();
  }

  void input(rt::Node& node, pfs::Pfs& fs,
             coll::Collection<Segment>& segments, const std::string& file,
             int particlesPerSegment) override {
    auto f = fs.open(node, file, pfs::OpenMode::Read);
    segments.forEachLocal([&](Segment& seg, std::int64_t g) {
      std::uint64_t off =
          static_cast<std::uint64_t>(g) * segmentBytes(particlesPerSegment);
      int n = 0;
      if (f->readAt(node, off, asWritableBytes(n)) != sizeof(int)) {
        throw IoError("unbuffered input: short read of particle count");
      }
      off += sizeof(int);
      if (n != seg.numberOfParticles) seg.allocate(n);
      double* fields[7] = {seg.x, seg.y, seg.z, seg.vx,
                           seg.vy, seg.vz, seg.mass};
      const auto bytes = 8ull * static_cast<std::uint64_t>(n);
      for (double*& field : fields) {
        std::span<Byte> out{reinterpret_cast<Byte*>(field),
                            static_cast<size_t>(bytes)};
        if (f->readAt(node, off, out) != bytes) {
          throw IoError("unbuffered input: short read of particle field");
        }
        off += bytes;
      }
    });
    node.barrier();
  }
};

// ---------------------------------------------------------------------------
// Manual buffering: pack locally, one parallel write / read. No size or
// distribution information in the file.
// ---------------------------------------------------------------------------

class ManualBufferingIo final : public IoMethod {
 public:
  std::string name() const override { return "Manual Buffering"; }

  void output(rt::Node& node, pfs::Pfs& fs,
              coll::Collection<Segment>& segments,
              const std::string& file) override {
    auto f = fs.open(node, file, pfs::OpenMode::Create);
    ByteBuffer buf;
    segments.forEachLocal([&](Segment& seg, std::int64_t) {
      const auto n = static_cast<std::uint64_t>(seg.numberOfParticles);
      const Byte* count = reinterpret_cast<const Byte*>(&seg.numberOfParticles);
      buf.insert(buf.end(), count, count + sizeof(int));
      const double* fields[7] = {seg.x, seg.y, seg.z, seg.vx,
                                 seg.vy, seg.vz, seg.mass};
      for (const double* field : fields) {
        const Byte* p = reinterpret_cast<const Byte*>(field);
        buf.insert(buf.end(), p, p + 8 * n);
      }
    });
    f->writeOrdered(node, buf);
  }

  void input(rt::Node& node, pfs::Pfs& fs,
             coll::Collection<Segment>& segments, const std::string& file,
             int particlesPerSegment) override {
    auto f = fs.open(node, file, pfs::OpenMode::Read);
    // The reader computes its share from the known geometry — this is what
    // "storing no element size or distribution information" costs.
    const std::uint64_t bytesPerSegment = segmentBytes(particlesPerSegment);
    const ByteBuffer buf = f->readOrdered(
        node,
        static_cast<std::uint64_t>(segments.localCount()) * bytesPerSegment,
        static_cast<std::uint64_t>(segments.size()) * bytesPerSegment);
    std::uint64_t off = 0;
    segments.forEachLocal([&](Segment& seg, std::int64_t) {
      int n = 0;
      std::memcpy(&n, buf.data() + off, sizeof(int));
      off += sizeof(int);
      if (n != seg.numberOfParticles) seg.allocate(n);
      double* fields[7] = {seg.x, seg.y, seg.z, seg.vx,
                           seg.vy, seg.vz, seg.mass};
      for (double*& field : fields) {
        const auto bytes = 8ull * static_cast<std::uint64_t>(n);
        std::memcpy(field, buf.data() + off, bytes);
        off += bytes;
      }
    });
  }
};

// ---------------------------------------------------------------------------
// pC++/streams.
// ---------------------------------------------------------------------------

class StreamsIo final : public IoMethod {
 public:
  explicit StreamsIo(bool sorted) : sorted_(sorted) {}

  std::string name() const override { return "pC++/streams"; }

  void output(rt::Node&, pfs::Pfs& fs, coll::Collection<Segment>& segments,
              const std::string& file) override {
    const coll::Layout& layout = segments.layout();
    ds::OStream s(fs, &layout.distribution(), &layout.align(), file);
    s << segments;
    s.write();
  }

  void input(rt::Node&, pfs::Pfs& fs, coll::Collection<Segment>& segments,
             const std::string& file, int) override {
    const coll::Layout& layout = segments.layout();
    ds::IStream s(fs, &layout.distribution(), &layout.align(), file);
    if (sorted_) {
      s.read();
    } else {
      s.unsortedRead();  // the paper's input path for these measurements
    }
    s >> segments;
  }

 private:
  bool sorted_;
};

// ---------------------------------------------------------------------------
// pC++/streams with overlapped I/O (pcxx::aio).
// ---------------------------------------------------------------------------

class StreamsAsyncIo final : public IoMethod {
 public:
  StreamsAsyncIo(bool sorted, int queueDepth, int prefetchDepth)
      : sorted_(sorted), queueDepth_(queueDepth),
        prefetchDepth_(prefetchDepth) {}

  std::string name() const override { return "pC++/streams (async)"; }

  void output(rt::Node&, pfs::Pfs& fs, coll::Collection<Segment>& segments,
              const std::string& file) override {
    const coll::Layout& layout = segments.layout();
    ds::StreamOptions so;
    so.aioQueueDepth = queueDepth_;
    ds::OStream s(fs, &layout.distribution(), &layout.align(), file, so);
    s << segments;
    s.write();
    // Explicit close drains the write-behind queue inside the measured
    // region (and surfaces flush failures here, not from the destructor).
    s.close();
  }

  void input(rt::Node&, pfs::Pfs& fs, coll::Collection<Segment>& segments,
             const std::string& file, int) override {
    const coll::Layout& layout = segments.layout();
    ds::StreamOptions so;
    so.aioPrefetchDepth = prefetchDepth_;
    ds::IStream s(fs, &layout.distribution(), &layout.align(), file, so);
    if (sorted_) {
      s.read();
    } else {
      s.unsortedRead();
    }
    s >> segments;
  }

 private:
  bool sorted_;
  int queueDepth_;
  int prefetchDepth_;
};

}  // namespace

std::unique_ptr<IoMethod> makeUnbufferedIo() {
  return std::make_unique<UnbufferedIo>();
}

std::unique_ptr<IoMethod> makeManualBufferingIo() {
  return std::make_unique<ManualBufferingIo>();
}

std::unique_ptr<IoMethod> makeStreamsIo(bool sorted) {
  return std::make_unique<StreamsIo>(sorted);
}

std::unique_ptr<IoMethod> makeStreamsAsyncIo(bool sorted, int queueDepth,
                                             int prefetchDepth) {
  return std::make_unique<StreamsAsyncIo>(sorted, queueDepth, prefetchDepth);
}

}  // namespace pcxx::scf
