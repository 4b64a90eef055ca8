// Micro-benchmarks (google-benchmark) for the substrate layers: runtime
// collectives, byte codecs, checksums, and the d/stream insert/extract path
// (real host time — these measure this implementation, not the 1995
// platforms).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

#include "bench/bench_obs.h"
#include "src/collection/collection.h"
#include "src/dstream/dstream.h"
#include "src/scf/io_methods.h"
#include "src/scf/segment.h"
#include "src/scf/workload.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

using namespace pcxx;

namespace {

ByteBuffer randomBytes(size_t n) {
  ByteBuffer data(n);
  Rng rng(7);
  for (auto& b : data) b = static_cast<Byte>(rng.next());
  return data;
}

/// crc32() as every caller sees it: the folding kernel where the host has
/// PCLMULQDQ, the table kernel elsewhere.
void BM_Crc32(benchmark::State& state) {
  const ByteBuffer data = randomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

/// The slicing-by-8 table kernel alone: the fallback's throughput.
void BM_Crc32Portable(benchmark::State& state) {
  const ByteBuffer data = randomBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::crc32Table(0xFFFFFFFFu, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Portable)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_ByteCodecU64(benchmark::State& state) {
  ByteBuffer buf;
  buf.reserve(8 * 1024);
  for (auto _ : state) {
    buf.clear();
    ByteWriter w(buf);
    for (std::uint64_t i = 0; i < 1024; ++i) w.u64(i * 0x9E3779B97F4A7C15ull);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8 * 1024);
}
BENCHMARK(BM_ByteCodecU64);

// The runtime benchmarks report wall time (UseRealTime): the main thread
// only waits in run() while the node threads work, so its CPU time would
// hide the wake-up latency of each rendezvous.
void BM_Barrier(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  rt::Machine machine(nprocs);
  for (auto _ : state) {
    machine.run([](rt::Node& node) {
      for (int i = 0; i < 100; ++i) node.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// A value collective: one rendezvous per call.
void BM_AllgatherU64(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  rt::Machine machine(nprocs);
  for (auto _ : state) {
    machine.run([](rt::Node& node) {
      for (int i = 0; i < 100; ++i) {
        benchmark::DoNotOptimize(
            node.allgatherU64(static_cast<std::uint64_t>(i)));
      }
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_AllgatherU64)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Alltoallv(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  rt::Machine machine(nprocs);
  for (auto _ : state) {
    machine.run([&](rt::Node& node) {
      std::vector<ByteBuffer> send(static_cast<size_t>(nprocs),
                                   ByteBuffer(1024));
      for (int i = 0; i < 20; ++i) {
        benchmark::DoNotOptimize(node.alltoallv(send));
      }
    });
  }
}
BENCHMARK(BM_Alltoallv)->Arg(2)->Arg(8)->UseRealTime();

/// Node-order writes of 2.8 MB per node to a memory file, the size of an
/// scf_checkpoint record block: per iteration the file is truncated (it
/// keeps its memory, as the e2e workloads' files do) and four records are
/// appended. Wall time covers the copies and the collective's rendezvous.
void BM_WriteOrdered(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  constexpr int kRecords = 4;
  const ByteBuffer block = randomBytes(2800 * 1000);
  rt::Machine machine(nprocs);
  pfs::Pfs fs{pfs::PfsConfig{}};
  machine.run([&](rt::Node& node) {
    fs.open(node, "bm_ordered", pfs::OpenMode::Create);
  });
  for (auto _ : state) {
    machine.run([&](rt::Node& node) {
      auto f = fs.open(node, "bm_ordered", pfs::OpenMode::Read);
      if (node.id() == 0) fs.truncateFile("bm_ordered", 0);
      f->seekShared(node, 0);
      for (int r = 0; r < kRecords; ++r) f->writeOrdered(node, block);
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kRecords * nprocs *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_WriteOrdered)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The full d/stream output+input path on the host (memory backend, no
/// timing model): measures the library's real CPU cost per element.
void BM_StreamRoundtrip(benchmark::State& state) {
  const std::int64_t segments = state.range(0);
  rt::Machine machine(4);
  for (auto _ : state) {
    pfs::Pfs fs{pfs::PfsConfig{}};
    machine.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(segments, &P, coll::DistKind::Block);
      coll::Collection<scf::Segment> data(&d);
      scf::fillDeterministic(data, 100);
      ds::OStream out(fs, &d, "bench");
      out << data;
      out.write();
      coll::Collection<scf::Segment> back(&d);
      ds::IStream in(fs, &d, "bench");
      in.unsortedRead();
      in >> back;
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * segments *
                          (4 + 7 * 8 * 100) * 2);
}
BENCHMARK(BM_StreamRoundtrip)->Arg(64)->Arg(512);

/// Buffered (one parallel op) vs unbuffered (one op per field) on the host:
/// the micro version of the paper's headline comparison.
void BM_UnbufferedVsBuffered(benchmark::State& state) {
  const bool buffered = state.range(0) != 0;
  const std::int64_t segments = 256;
  rt::Machine machine(4);
  for (auto _ : state) {
    pfs::Pfs fs{pfs::PfsConfig{}};
    machine.run([&](rt::Node& node) {
      coll::Processors P;
      coll::Distribution d(segments, &P, coll::DistKind::Block);
      coll::Collection<scf::Segment> data(&d);
      scf::fillDeterministic(data, 100);
      auto method = buffered ? scf::makeManualBufferingIo()
                             : scf::makeUnbufferedIo();
      method->output(node, fs, data, "bench");
      coll::Collection<scf::Segment> back(&d);
      method->input(node, fs, back, "bench", 100);
    });
  }
}
BENCHMARK(BM_UnbufferedVsBuffered)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"buffered"});

/// --metrics-json support: google-benchmark owns argv, so the flag is
/// stripped before Initialize(). When given, one instrumented stream
/// round-trip (the BM_StreamRoundtrip workload) is run and its obs snapshot
/// dumped — enough for phase-level before/after diffs of the library path.
std::string extractMetricsPath(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < *argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      path = argv[i] + 15;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

void dumpInstrumentedRoundtrip(const std::string& path) {
  benchutil::MetricsDump dump(path);
  rt::Machine machine(4);
  pfs::Pfs fs{pfs::PfsConfig{}};
  dump.attach(machine);
  machine.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(512, &P, coll::DistKind::Block);
    coll::Collection<scf::Segment> data(&d);
    scf::fillDeterministic(data, 100);
    ds::OStream out(fs, &d, "bench");
    out << data;
    out.write();
    coll::Collection<scf::Segment> back(&d);
    ds::IStream in(fs, &d, "bench");
    in.unsortedRead();
    in >> back;
  });
  dump.capture("stream_roundtrip segments=512 nprocs=4");
  dump.write();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metricsPath = extractMetricsPath(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metricsPath.empty()) dumpInstrumentedRoundtrip(metricsPath);
  return 0;
}
