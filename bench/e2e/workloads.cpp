// The four workloads. README.md says why each was chosen and which layers
// it loads; the comments here cover only what the code does not show.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "bench/e2e/e2e.h"
#include "src/collection/collection.h"
#include "src/dstream/checkpoint.h"
#include "src/dstream/istream.h"
#include "src/dstream/ostream.h"
#include "src/pfs/codec.h"
#include "src/pfs/parallel_file.h"
#include "src/scf/segment.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/strfmt.h"

namespace pcxx::e2e {
namespace {

using coll::Collection;
using coll::DistKind;
using coll::Distribution;
using Observe = Run::Observe;
using scf::Segment;

/// Ops of each kind that run in the traced regions of a traced run.
constexpr int kTracedOps = 8;
/// The virtual-time replay covers the first 64 timed ops.
constexpr int kReplayOps = 64;

std::uint64_t hash(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t state =
      seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  return splitmix64(state);
}

std::unique_ptr<rt::Machine> makeMachine(const Config& cfg, int nodes) {
  return std::make_unique<rt::Machine>(
      nodes, cfg.model ? rt::CommModel{100e-6, 1.25e-8} : rt::CommModel{});
}

std::unique_ptr<pfs::Pfs> makePfs(const Config& cfg, int nodes,
                                  const std::string& posixDir = "") {
  pfs::PfsConfig pc;
  if (!posixDir.empty()) {
    pc.backend = pfs::PfsConfig::Backend::Posix;
    pc.dir = posixDir;
  }
  if (cfg.model) pc.perf = pfs::paramsByName("paragon", nodes);
  return std::make_unique<pfs::Pfs>(pc);
}

// ---------------------------------------------------------------------------
// Segment data (SCF)
// ---------------------------------------------------------------------------

/// Particles in segment `g`: the mean +-2%, drawn from the seed, so record
/// sizes (and with them the virtual-time model) differ a little from seed
/// to seed.
int particlesOf(std::uint64_t seed, std::int64_t g, int mean) {
  const int spread = std::max(mean / 25, 1);
  return mean - spread / 2 +
         static_cast<int>(hash(seed, static_cast<std::uint64_t>(g)) %
                          static_cast<std::uint64_t>(spread + 1));
}

std::uint64_t recordPayload(std::uint64_t seed, std::int64_t segments,
                            int mean) {
  std::uint64_t bytes = 0;
  for (std::int64_t g = 0; g < segments; ++g) {
    bytes += sizeof(int) +
             56ull * static_cast<std::uint64_t>(particlesOf(seed, g, mean));
  }
  return bytes;
}

/// Plummer-sphere particles, sampled as scf::fillPlummer does, for global
/// segment `g`: a pure function of (seed, g), so any layout regenerates the
/// same data set.
void fillSegment(Segment& seg, std::uint64_t seed, std::int64_t g, int mean) {
  const int n = particlesOf(seed, g, mean);
  seg.allocate(n);
  Rng rng(hash(seed, static_cast<std::uint64_t>(g), 1));
  for (int k = 0; k < n; ++k) {
    const double u = std::max(rng.uniform01(), 1e-12);
    const double r = 1.0 / std::sqrt(std::pow(u, -2.0 / 3.0) - 1.0);
    const double theta = std::acos(2.0 * rng.uniform01() - 1.0);
    const double phi = 2.0 * M_PI * rng.uniform01();
    seg.x[k] = r * std::sin(theta) * std::cos(phi);
    seg.y[k] = r * std::sin(theta) * std::sin(phi);
    seg.z[k] = r * std::cos(theta);
    seg.vx[k] = rng.uniform(-0.1, 0.1);
    seg.vy[k] = rng.uniform(-0.1, 0.1);
    seg.vz[k] = rng.uniform(-0.1, 0.1);
    seg.mass[k] = 1.0 / static_cast<double>(n);
  }
}

void fillAll(Collection<Segment>& c, std::uint64_t seed, int mean) {
  c.forEachLocal([&](Segment& s, std::int64_t g) {
    fillSegment(s, seed, g, mean);
  });
}

/// Record `r`'s mark for segment `g`. It replaces x[0] before each write,
/// so a read that returns the wrong record or element fails the check.
double stampOf(std::int64_t g, std::uint64_t r) {
  return -1.0 - static_cast<double>(g) - 1e7 * static_cast<double>(r);
}

void stampAll(Collection<Segment>& c, std::uint64_t r) {
  c.forEachLocal([&](Segment& s, std::int64_t g) { s.x[0] = stampOf(g, r); });
}

/// Segments of `got` that differ from `want` in any value, byte-exact;
/// with `record` set, x[0] must hold that record's stamp instead.
std::int64_t mismatches(const Collection<Segment>& got,
                        const Collection<Segment>& want,
                        std::optional<std::uint64_t> record) {
  std::int64_t bad = 0;
  for (std::int64_t j = 0; j < want.localCount(); ++j) {
    const Segment& a = got.local(j);
    const Segment& b = want.local(j);
    const int n = b.numberOfParticles;
    if (a.numberOfParticles != n) {
      ++bad;
      continue;
    }
    const double x0 = record ? stampOf(want.globalIndexOf(j), *record) : b.x[0];
    const auto bytes = 8 * static_cast<size_t>(n);
    bool same = std::memcmp(&a.x[0], &x0, 8) == 0 &&
                std::memcmp(a.x + 1, b.x + 1, bytes - 8) == 0;
    const double* fa[] = {a.y, a.z, a.vx, a.vy, a.vz, a.mass};
    const double* fb[] = {b.y, b.z, b.vx, b.vy, b.vz, b.mass};
    for (int f = 0; f < 6; ++f) {
      same = same && std::memcmp(fa[f], fb[f], bytes) == 0;
    }
    bad += same ? 0 : 1;
  }
  return bad;
}

/// The bytes node 0's buffer fill produces for one record.
ByteBuffer packSegments(const Collection<Segment>& c) {
  ByteBuffer out;
  c.forEachLocal([&](const Segment& s, std::int64_t) {
    const auto* count = reinterpret_cast<const Byte*>(&s.numberOfParticles);
    out.insert(out.end(), count, count + sizeof(int));
    for (const double* f : {s.x, s.y, s.z, s.vx, s.vy, s.vz, s.mass}) {
      const auto* p = reinterpret_cast<const Byte*>(f);
      out.insert(out.end(), p, p + 8 * s.numberOfParticles);
    }
  });
  return out;
}

std::int64_t noCheck() { return 0; }

// Files rewritten every round are reused: each round truncates the file
// back to an empty indexed stream and appends to it. On the memory backend
// that keeps the buffer capacity earlier rounds grew, so a timed write
// costs the library's work, not the backend's buffer regrowing.

/// Collective: create `file` as an empty indexed stream (file header and
/// empty footer) and return its bytes on node 0.
ByteBuffer createEmptyStream(pfs::Pfs& fs, const Distribution& d,
                             rt::Node& node, const char* file) {
  ds::OStream(fs, &d, file).close();
  auto f = fs.open(node, file, pfs::OpenMode::Read);
  ByteBuffer bytes;
  if (node.id() == 0) {
    bytes.resize(static_cast<size_t>(f->size()));
    f->readAt(node, 0, bytes);
  }
  return bytes;
}

/// Collective: an output stream appending to `file` after resetting it to
/// `empty` (node 0's bytes from createEmptyStream).
std::unique_ptr<ds::OStream> reopenEmpty(pfs::Pfs& fs, const Distribution& d,
                                         rt::Node& node, const char* file,
                                         const ByteBuffer& empty,
                                         ds::StreamOptions so) {
  if (node.id() == 0) fs.truncateFile(file, 0);
  {
    auto f = fs.open(node, file, pfs::OpenMode::Read);
    if (node.id() == 0) f->writeAt(node, 0, empty);
  }
  so.append = true;
  return std::make_unique<ds::OStream>(fs, &d, file, so);
}

/// Collective, before a workload first fills memory-backed `file`: grow it
/// in one step to `bytes`, more than it will hold. Left to the writes, the
/// buffer grows along a doubling chain whose steps depend on which node's
/// write lands first, and the peak RSS of identical runs differed by up to
/// a third. The next reopenEmpty truncates it; the capacity stays.
void presize(pfs::Pfs& fs, rt::Node& node, const char* file,
             std::uint64_t bytes) {
  node.barrier();
  auto f = fs.open(node, file, pfs::OpenMode::Read);
  if (node.id() == 0) f->writeAt(node, bytes - 1, ByteBuffer(1));
  node.barrier();
}

/// Bytes a stream file of `records` records stays below when each record
/// holds `payload` bytes over `elements` elements: an 8-byte size-table
/// entry per element, record headers and the footer (the margins).
std::uint64_t streamBound(std::uint64_t records, std::uint64_t payload,
                          std::int64_t elements) {
  const std::uint64_t record =
      payload + 8 * static_cast<std::uint64_t>(elements);
  return records * (record + record / 100) + (1u << 20);
}

std::function<std::int64_t()> requireIndexed(const ds::IStream& in) {
  return [&in] {
    if (!in.indexed()) throw Error("index footer not used (dsindex fallback)");
    return std::int64_t{0};
  };
}

// ---------------------------------------------------------------------------
// scf_checkpoint
// ---------------------------------------------------------------------------

class ScfCheckpoint final : public Workload {
 public:
  explicit ScfCheckpoint(const Config& cfg)
      : cfg_(cfg),
        dist_(cfg.smoke ? 200 : 2000, kNodes, DistKind::Block, 1),
        recordBytes_(recordPayload(cfg.seed, dist_.size(), kMean)) {}

  int nodes() const override { return kNodes; }

  void setup() override {
    m_ = makeMachine(cfg_, kNodes);
    fs_ = makePfs(cfg_, kNodes);
    state_.resize(kNodes);
    m_->run([&](rt::Node& node) {
      auto st = std::make_unique<NodeState>(dist_);
      fillAll(st->src, cfg_.seed, kMean);
      state_[static_cast<size_t>(node.id())] = std::move(st);
      ByteBuffer empty = createEmptyStream(*fs_, dist_, node, kFile);
      if (node.id() == 0) empty_ = std::move(empty);
    });
    if (cfg_.model) return;
    Run warm(false, false, 0.0);
    warm.region(*m_, Observe::None, [&](rt::Node& node) {
      presize(*fs_, node, kFile,
              streamBound(kRecords, recordBytes_, dist_.size()));
      round(warm, node, 0);
    });
    if (warm.failed != 0) throw Error("warm-up: " + warm.errors.front());
  }

  void timed(Run& run) override {
    run.region(*m_, Observe::Trace,
               [&](rt::Node& node) { round(run, node, 0); });
    run.region(*m_, Observe::Metrics, [&](rt::Node& node) {
      for (int i = 1; run.more(node, i, kReplayOps / (2 * kRecords)); ++i) {
        round(run, node, static_cast<std::uint64_t>(i));
      }
    });
  }

  ByteBuffer sampleBytes() override { return packSegments(state_[0]->src); }

 private:
  static constexpr int kNodes = 4;
  static constexpr int kMean = 100;
  static constexpr int kRecords = 8;
  static constexpr const char* kFile = "scf.ds";

  struct NodeState {
    explicit NodeState(const Distribution& d) : src(&d), back(&d) {}
    Collection<Segment> src;
    Collection<Segment> back;
  };

  /// The paper's measurement: an output operation of kRecords records,
  /// then an input operation reading them back in order.
  void round(Run& run, rt::Node& node, std::uint64_t round) {
    NodeState& st = *state_[static_cast<size_t>(node.id())];
    ds::StreamOptions so;
    so.checksumData = true;
    {
      auto out = reopenEmpty(*fs_, dist_, node, kFile, empty_, so);
      for (int r = 0; r < kRecords; ++r) {
        stampAll(st.src, round * kRecords + static_cast<std::uint64_t>(r));
        run.timedOp(
            node, Op::Write, recordBytes_,
            [&] {
              {
                SpanScope span(run, node, Span::Insert);
                *out << st.src;
              }
              SpanScope span(run, node, Span::Write);
              out->write();
            },
            noCheck);
      }
      out->close();
    }
    if (run.replay() && node.id() == 0) {
      run.addStored(fs_->storedFileSize(kFile));
    }
    std::optional<ds::IStream> in;
    {
      SpanScope span(run, node, Span::Open);
      in.emplace(*fs_, &dist_, kFile);
    }
    const auto indexed = requireIndexed(*in);
    for (int r = 0; r < kRecords; ++r) {
      const std::uint64_t record =
          round * kRecords + static_cast<std::uint64_t>(r);
      run.timedOp(
          node, Op::Read, recordBytes_,
          [&] {
            {
              SpanScope span(run, node, Span::Read);
              in->read();
            }
            SpanScope span(run, node, Span::Extract);
            *in >> st.back;
          },
          [&] { return indexed() + mismatches(st.back, st.src, record); });
    }
  }

  Config cfg_;
  Distribution dist_;
  std::uint64_t recordBytes_;
  std::unique_ptr<rt::Machine> m_;
  std::unique_ptr<pfs::Pfs> fs_;
  std::vector<std::unique_ptr<NodeState>> state_;
  ByteBuffer empty_;  ///< node 0: the empty stream each round starts from
};

// ---------------------------------------------------------------------------
// restart_relayout
// ---------------------------------------------------------------------------

class RestartRelayout final : public Workload {
 public:
  explicit RestartRelayout(const Config& cfg)
      : cfg_(cfg),
        writerDist_(cfg.smoke ? 120 : 2000, kWriters, DistKind::Block, 1),
        readerDist_(writerDist_.size(), kReaders, DistKind::Cyclic, 1),
        recordBytes_(recordPayload(cfg.seed, writerDist_.size(), kMean)) {}

  int nodes() const override { return kWriters; }

  void setup() override {
    writer_ = makeMachine(cfg_, kWriters);
    reader_ = makeMachine(cfg_, kReaders);
    fs_ = makePfs(cfg_, kWriters);
    src_.resize(kWriters);
    writer_->run([&](rt::Node& node) {
      auto c = std::make_unique<Collection<Segment>>(&writerDist_);
      fillAll(*c, cfg_.seed, kMean);
      src_[static_cast<size_t>(node.id())] = std::move(c);
      ByteBuffer empty = createEmptyStream(*fs_, writerDist_, node, kFile);
      if (node.id() == 0) empty_ = std::move(empty);
    });
    // The reader regenerates the source under its own layout to check
    // every restart without communicating.
    readers_.resize(kReaders);
    reader_->run([&](rt::Node& node) {
      auto st = std::make_unique<ReaderState>(readerDist_);
      fillAll(st->want, cfg_.seed, kMean);
      readers_[static_cast<size_t>(node.id())] = std::move(st);
    });
    if (cfg_.model) return;
    Run warm(false, false, 0.0);
    warm.region(*writer_, Observe::None, [&](rt::Node& node) {
      presize(*fs_, node, kFile,
              streamBound(kRecords, recordBytes_, writerDist_.size()));
      writeRound(warm, node, 0);
    });
    warm.region(*reader_, Observe::None,
                [&](rt::Node& node) { readRound(warm, node, 0); });
    if (warm.failed != 0) throw Error("warm-up: " + warm.errors.front());
  }

  void timed(Run& run) override {
    for (int round = 0;; ++round) {
      const Observe observe = round == 0 ? Observe::Trace : Observe::Metrics;
      bool go = false;
      run.region(*writer_, observe, [&](rt::Node& node) {
        if (round > 0 && !run.more(node, round, kReplayOps / (2 * kRecords))) {
          return;
        }
        if (node.id() == 0) go = true;
        writeRound(run, node, static_cast<std::uint64_t>(round));
      });
      if (!go) break;
      run.region(*reader_, observe, [&](rt::Node& node) {
        readRound(run, node, static_cast<std::uint64_t>(round));
      });
    }
  }

  ByteBuffer sampleBytes() override { return packSegments(*src_[0]); }

 private:
  static constexpr int kWriters = 4;
  static constexpr int kReaders = 3;
  static constexpr int kMean = 50;
  static constexpr int kRecords = 8;
  static constexpr const char* kFile = "restart.ds";

  struct ReaderState {
    explicit ReaderState(const Distribution& d) : want(&d), back(&d) {}
    Collection<Segment> want;
    Collection<Segment> back;
  };

  void writeRound(Run& run, rt::Node& node, std::uint64_t round) {
    Collection<Segment>& src = *src_[static_cast<size_t>(node.id())];
    auto out = reopenEmpty(*fs_, writerDist_, node, kFile, empty_, {});
    for (int r = 0; r < kRecords; ++r) {
      stampAll(src, round * kRecords + static_cast<std::uint64_t>(r));
      run.timedOp(
          node, Op::Write, recordBytes_,
          [&] {
            {
              SpanScope span(run, node, Span::Insert);
              *out << src;
            }
            SpanScope span(run, node, Span::Write);
            out->write();
          },
          noCheck);
    }
    out->close();
    if (run.replay() && node.id() == 0) {
      run.addStored(fs_->storedFileSize(kFile));
    }
  }

  /// Each restart opens the file on the reader machine, seeks one record,
  /// reads it (redistributing Block -> Cyclic) and closes: the records of a
  /// round in a seeded random order.
  void readRound(Run& run, rt::Node& node, std::uint64_t round) {
    ReaderState& st = *readers_[static_cast<size_t>(node.id())];
    std::vector<std::uint32_t> order(kRecords);
    for (int r = 0; r < kRecords; ++r) order[static_cast<size_t>(r)] = r;
    Rng rng(hash(cfg_.seed, round, 2));
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next() % (i + 1)]);
    }
    for (const std::uint32_t k : order) {
      bool indexed = true;
      run.timedOp(
          node, Op::Read, recordBytes_,
          [&] {
            std::optional<ds::IStream> in;
            {
              SpanScope span(run, node, Span::Open);
              in.emplace(*fs_, &readerDist_, kFile);
            }
            indexed = in->indexed();
            {
              SpanScope span(run, node, Span::Seek);
              in->seekRecord(k);
            }
            {
              SpanScope span(run, node, Span::Read);
              in->read();
            }
            {
              SpanScope span(run, node, Span::Extract);
              *in >> st.back;
            }
            in->close();
          },
          [&] {
            if (!indexed) {
              throw Error("index footer not used (dsindex fallback)");
            }
            return mismatches(st.back, st.want, round * kRecords + k);
          });
    }
  }

  Config cfg_;
  Distribution writerDist_;
  Distribution readerDist_;
  std::uint64_t recordBytes_;
  std::unique_ptr<rt::Machine> writer_;
  std::unique_ptr<rt::Machine> reader_;
  std::unique_ptr<pfs::Pfs> fs_;
  std::vector<std::unique_ptr<Collection<Segment>>> src_;
  std::vector<std::unique_ptr<ReaderState>> readers_;
  ByteBuffer empty_;  ///< node 0: the empty stream each round starts from
};

// ---------------------------------------------------------------------------
// frames_seek
// ---------------------------------------------------------------------------

/// One cell of a simulation frame: five fixed-size fields, each inserted
/// as its own field so a reader can project any one of them.
struct Cell {
  double density = 0.0;
  double pressure = 0.0;
  double vx = 0.0;
  double vy = 0.0;
  double vz = 0.0;
};

class FramesSeek final : public Workload {
 public:
  explicit FramesSeek(const Config& cfg)
      : cfg_(cfg),
        frames_(cfg.smoke ? 48 : 1024),
        // Cells per frame vary a little with the seed so the write path's
        // virtual-time model differs from seed to seed.
        dist_((cfg.smoke ? 256 : 2048) +
                  static_cast<std::int64_t>(hash(cfg.seed, 0, 3) % 8),
              kNodes, DistKind::Block, 1) {}

  int nodes() const override { return kNodes; }

  void setup() override {
    m_ = makeMachine(cfg_, kNodes);
    fs_ = makePfs(cfg_, kNodes);
    state_.resize(kNodes);
    m_->run([&](rt::Node& node) {
      auto st = std::make_unique<NodeState>(dist_, hash(cfg_.seed, 0, 4));
      setFrame(st->cells, 0);
      state_[static_cast<size_t>(node.id())] = std::move(st);
      ByteBuffer empty = createEmptyStream(*fs_, dist_, node, kFile);
      if (node.id() == 0) empty_ = std::move(empty);
    });
    if (cfg_.model) return;
    Run warm(false, false, 0.0);
    warm.region(*m_, Observe::None, [&](rt::Node& node) {
      presize(*fs_, node, kFile,
              streamBound(static_cast<std::uint64_t>(frames_), frameBytes(),
                          dist_.size()));
      writeFrames(warm, node, 0, frames_);
      readFrames(warm, node, kTracedOps);
    });
    if (warm.failed != 0) throw Error("warm-up: " + warm.errors.front());
  }

  void timed(Run& run) override {
    const int frames = run.replay() ? std::min(kReplayOps, frames_) : frames_;
    const int first = std::min(kTracedOps, frames);
    run.region(*m_, Observe::Trace, [&](rt::Node& node) {
      writeFrames(run, node, 0, first);
    });
    run.region(*m_, Observe::Metrics, [&](rt::Node& node) {
      writeFrames(run, node, first, frames);
    });
    if (run.replay()) {
      run.addStored(fs_->storedFileSize(kFile));
      return;
    }
    run.region(*m_, Observe::None,
               [&](rt::Node& node) { verifyFrames(run, node); });
    run.region(*m_, Observe::Trace,
               [&](rt::Node& node) { readFrames(run, node, kTracedOps); });
    run.region(*m_, Observe::Metrics, [&](rt::Node& node) {
      readFrames(run, node, frames_ - kTracedOps);
    });
    // Later rounds rewrite and re-read the series, so the writes, like the
    // reads, sample the whole timed phase rather than its first 0.2 s.
    for (;;) {
      bool go = false;
      run.region(*m_, Observe::Metrics, [&](rt::Node& node) {
        if (!run.more(node, 0, 0)) return;
        if (node.id() == 0) go = true;
        writeFrames(run, node, 0, frames_);
      });
      if (!go) return;
      run.region(*m_, Observe::None,
                 [&](rt::Node& node) { verifyFrames(run, node); });
      run.region(*m_, Observe::Metrics,
                 [&](rt::Node& node) { readFrames(run, node, frames_); });
    }
  }

  ByteBuffer sampleBytes() override {
    ByteBuffer out;
    state_[0]->cells.forEachLocal([&](const Cell& c, std::int64_t) {
      const auto* p = reinterpret_cast<const Byte*>(&c);
      out.insert(out.end(), p, p + sizeof(Cell));
    });
    return out;
  }

 private:
  static constexpr int kNodes = 4;
  static constexpr const char* kFile = "frames.ds";

  struct NodeState {
    NodeState(const Distribution& d, std::uint64_t pickSeed)
        : cells(&d), got(&d), pick(pickSeed) {}
    Collection<Cell> cells;
    Collection<Cell> got;
    Rng pick;  ///< same sequence on every node: which frame to read next
  };

  double value(std::uint64_t frame, std::int64_t g, int field) const {
    return static_cast<double>(
               hash(cfg_.seed, (frame << 24) + static_cast<std::uint64_t>(g),
                    static_cast<std::uint64_t>(field) + 8) >>
               11) *
           0x1.0p-53;
  }

  void setFrame(Collection<Cell>& cells, std::uint64_t frame) const {
    cells.forEachLocal([&](Cell& c, std::int64_t g) {
      c = Cell{value(frame, g, 0), value(frame, g, 1), value(frame, g, 2),
               value(frame, g, 3), value(frame, g, 4)};
    });
  }

  std::uint64_t frameBytes() const {
    return static_cast<std::uint64_t>(dist_.size()) * sizeof(Cell);
  }

  /// Frames [from, to): from 0 the series starts over in the same file.
  void writeFrames(Run& run, rt::Node& node, int from, int to) {
    Collection<Cell>& cells = state_[static_cast<size_t>(node.id())]->cells;
    ds::StreamOptions so;
    so.append = true;
    auto out = from == 0
                   ? reopenEmpty(*fs_, dist_, node, kFile, empty_, so)
                   : std::make_unique<ds::OStream>(*fs_, &dist_, kFile, so);
    for (int k = from; k < to; ++k) {
      setFrame(cells, static_cast<std::uint64_t>(k));
      run.timedOp(
          node, Op::Write, frameBytes(),
          [&] {
            {
              SpanScope span(run, node, Span::Insert);
              *out << cells.field(&Cell::density)
                   << cells.field(&Cell::pressure) << cells.field(&Cell::vx)
                   << cells.field(&Cell::vy) << cells.field(&Cell::vz);
            }
            SpanScope span(run, node, Span::Write);
            out->write();
          },
          noCheck);
    }
    out->close();
  }

  /// Untimed read-back of every frame: the writes' own correctness check.
  void verifyFrames(Run& run, rt::Node& node) {
    Collection<Cell>& got = state_[static_cast<size_t>(node.id())]->got;
    ds::IStream in(*fs_, &dist_, kFile);
    double bad = 0.0;
    for (int k = 0; k < frames_; ++k) {
      in.read();
      in >> got.field(&Cell::density) >> got.field(&Cell::pressure) >>
          got.field(&Cell::vx) >> got.field(&Cell::vy) >> got.field(&Cell::vz);
      got.forEachLocal([&](const Cell& c, std::int64_t g) {
        const auto f = static_cast<std::uint64_t>(k);
        const Cell want{value(f, g, 0), value(f, g, 1), value(f, g, 2),
                        value(f, g, 3), value(f, g, 4)};
        if (std::memcmp(&c, &want, sizeof(Cell)) != 0) bad += 1.0;
      });
    }
    bad = node.allreduceSum(bad);
    if (node.id() == 0 && bad > 0.0) {
      run.fail(strfmt("frame read-back: %.0f cell(s) differ from the source",
                      bad));
    }
  }

  /// `count` seeded random frames of the series, density field only.
  void readFrames(Run& run, rt::Node& node, int count) {
    NodeState& st = *state_[static_cast<size_t>(node.id())];
    std::optional<ds::IStream> in;
    {
      SpanScope span(run, node, Span::Open);
      in.emplace(*fs_, &dist_, kFile);
    }
    in->project({0});
    const auto indexed = requireIndexed(*in);
    for (int i = 0; i < count; ++i) {
      const auto k = static_cast<std::uint32_t>(
          st.pick.next() % static_cast<std::uint64_t>(frames_));
      run.timedOp(
          node, Op::Read, static_cast<std::uint64_t>(dist_.size()) * 8,
          [&] {
            {
              SpanScope span(run, node, Span::Seek);
              in->seekRecord(k);
            }
            {
              SpanScope span(run, node, Span::Read);
              in->read();
            }
            SpanScope span(run, node, Span::Extract);
            *in >> st.got.field(&Cell::density);
          },
          [&] {
            std::int64_t bad = indexed();
            st.got.forEachLocal([&](const Cell& c, std::int64_t g) {
              const double want = value(k, g, 0);
              bad += std::memcmp(&c.density, &want, 8) != 0 ? 1 : 0;
            });
            return bad;
          });
    }
  }

  Config cfg_;
  int frames_;
  Distribution dist_;
  std::unique_ptr<rt::Machine> m_;
  std::unique_ptr<pfs::Pfs> fs_;
  std::vector<std::unique_ptr<NodeState>> state_;
  ByteBuffer empty_;  ///< node 0: the empty stream the series starts from
};

// ---------------------------------------------------------------------------
// epoch_codec
// ---------------------------------------------------------------------------

/// Bytes a codec-framed posix file holds: its header and each chunk's frame
/// header and stored payload (the rest of each fixed chunk slot is never
/// written; see src/pfs/codec.h). Read from the file, not from the codec's
/// bytes-written counter, which also counts a chunk rewritten when two
/// nodes' writes share it, in an order that varies from run to run.
std::uint64_t framedBytes(const std::string& path) {
  using pfs::CodecStorage;
  std::ifstream in(path, std::ios::binary);
  const auto u32At = [&](std::uint64_t offset) {
    std::array<unsigned char, 4> b{};
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(b.data()), 4);
    if (!in) throw Error("short read in framed file " + path);
    return static_cast<std::uint64_t>(b[0]) | std::uint64_t{b[1]} << 8 |
           std::uint64_t{b[2]} << 16 | std::uint64_t{b[3]} << 24;
  };
  const std::uint64_t size = std::filesystem::file_size(path);
  const std::uint64_t slot = CodecStorage::kFrameHeaderBytes + u32At(16);
  std::uint64_t bytes = CodecStorage::kFileHeaderBytes + u32At(24);
  for (std::uint64_t frame = bytes;
       frame + CodecStorage::kFrameHeaderBytes <= size; frame += slot) {
    if (u32At(frame) != 0x46444350u) {  // "PCDF"
      throw Error("no frame header where the codec puts one in " + path);
    }
    bytes += CodecStorage::kFrameHeaderBytes + u32At(frame + 20);
  }
  return bytes;
}

class EpochCodec final : public Workload {
 public:
  explicit EpochCodec(const Config& cfg)
      : cfg_(cfg),
        dist_(cfg.smoke ? 40 : 1000, kNodes, DistKind::Block, 1),
        recordBytes_(recordPayload(cfg.seed, dist_.size(), kMean)) {}

  ~EpochCodec() override {
    state_.clear();
    fs_.reset();
    std::error_code ignored;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ignored);
  }
  EpochCodec(const EpochCodec&) = delete;
  EpochCodec& operator=(const EpochCodec&) = delete;

  int nodes() const override { return kNodes; }

  void setup() override {
    static int instances = 0;
    dir_ = strfmt("%s/epoch_codec-%d-%d", cfg_.outDir.c_str(),
                  static_cast<int>(::getpid()), instances++);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    m_ = makeMachine(cfg_, kNodes);
    fs_ = makePfs(cfg_, kNodes, dir_);
    state_.resize(kNodes);
    m_->run([&](rt::Node& node) {
      ds::CheckpointOptions co;
      co.baseName = "epoch";
      co.codec = "lz";
      co.dedupAcrossEpochs = true;
      co.aioQueueDepth = 4;
      co.aioPrefetchDepth = 2;
      auto st = std::make_unique<NodeState>(dist_, *fs_, co);
      fillAll(st->src, cfg_.seed, kMean);
      state_[static_cast<size_t>(node.id())] = std::move(st);
    });
    if (cfg_.model) return;
    Run warm(false, false, 0.0);
    warm.region(*m_, Observe::None, [&](rt::Node& node) {
      round(warm, node);
      round(warm, node);
    });
    if (warm.failed != 0) throw Error("warm-up: " + warm.errors.front());
  }

  void timed(Run& run) override {
    run.region(*m_, Observe::Trace, [&](rt::Node& node) {
      for (int i = 0; i < kTracedOps; ++i) round(run, node);
    });
    run.region(*m_, Observe::Metrics, [&](rt::Node& node) {
      for (int i = kTracedOps; run.more(node, i, kReplayOps / 2); ++i) {
        round(run, node);
      }
    });
  }

  ByteBuffer sampleBytes() override { return packSegments(state_[0]->src); }

 private:
  static constexpr int kNodes = 2;
  static constexpr int kMean = 100;

  struct NodeState {
    NodeState(const Distribution& d, pfs::Pfs& fs, ds::CheckpointOptions co)
        : src(&d), back(&d), manager(fs, std::move(co)) {}
    Collection<Segment> src;
    Collection<Segment> back;
    ds::CheckpointManager manager;
    std::uint64_t epochs = 0;
  };

  /// One simulation step between checkpoints: a contiguous tenth of the
  /// segments moves, the rest is unchanged (what cross-epoch dedup finds).
  void advance(NodeState& st) const {
    const std::int64_t n = dist_.size();
    const std::int64_t band = static_cast<std::int64_t>(st.epochs % 10);
    const std::int64_t lo = band * n / 10;
    const std::int64_t hi = (band + 1) * n / 10;
    st.src.forEachLocal([&](Segment& s, std::int64_t g) {
      if (g < lo || g >= hi) return;
      for (int k = 0; k < s.numberOfParticles; ++k) {
        s.x[k] += 1e-3 * s.vx[k];
        s.y[k] += 1e-3 * s.vy[k];
        s.z[k] += 1e-3 * s.vz[k];
      }
    });
    ++st.epochs;
  }

  void round(Run& run, rt::Node& node) {
    NodeState& st = *state_[static_cast<size_t>(node.id())];
    advance(st);
    std::uint64_t saved = 0;
    run.timedOp(
        node, Op::Write, recordBytes_,
        [&] {
          SpanScope span(run, node, Span::Save);
          saved = st.manager.saveWith(
              node, st.src.layout(), [&](ds::OStream& s) {
                SpanScope insert(run, node, Span::Insert);
                s << st.src;
              });
        },
        noCheck);
    if (run.replay() && node.id() == 0) {
      run.addStored(
          framedBytes(dir_ + "/" + st.manager.epochFileName(saved)) +
          fs_->storedFileSize(st.manager.markerFileName()));
    }
    std::int64_t restored = -1;
    bool indexed = true;
    std::uint64_t damaged = 0;
    run.timedOp(
        node, Op::Read, recordBytes_,
        [&] {
          damaged = pfs::codecThreadStats().damagedChunks;
          SpanScope span(run, node, Span::Restore);
          restored = st.manager.restoreWith(
              node, st.back.layout(), [&](ds::IStream& s) {
                indexed = s.indexed();
                SpanScope extract(run, node, Span::Extract);
                s >> st.back;
              });
        },
        [&] {
          if (restored != static_cast<std::int64_t>(saved)) {
            throw Error(strfmt("restored epoch %lld, expected %llu",
                               static_cast<long long>(restored),
                               static_cast<unsigned long long>(saved)));
          }
          if (!indexed) throw Error("index footer not used (dsindex fallback)");
          if (pfs::codecThreadStats().damagedChunks != damaged) {
            throw Error("codec reported damaged chunks");
          }
          return mismatches(st.back, st.src, std::nullopt);
        });
  }

  Config cfg_;
  Distribution dist_;
  std::uint64_t recordBytes_;
  std::string dir_;
  std::unique_ptr<rt::Machine> m_;
  std::unique_ptr<pfs::Pfs> fs_;
  std::vector<std::unique_ptr<NodeState>> state_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "scf_checkpoint", "restart_relayout", "frames_seek", "epoch_codec"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Config& config) {
  if (name == "scf_checkpoint") return std::make_unique<ScfCheckpoint>(config);
  if (name == "restart_relayout") {
    return std::make_unique<RestartRelayout>(config);
  }
  if (name == "frames_seek") return std::make_unique<FramesSeek>(config);
  if (name == "epoch_codec") return std::make_unique<EpochCodec>(config);
  throw UsageError("unknown workload '" + name + "'");
}

}  // namespace pcxx::e2e
