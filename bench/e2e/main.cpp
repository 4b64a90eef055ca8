// pcxx_e2e: one workload of the end-to-end benchmark, in one process.
//
//   pcxx_e2e --workload scf_checkpoint --seed 1 --seconds 10 --out DIR
//            [--trace] [--smoke]
//
// Sets the workload up, runs its timed phase, reads the peak RSS, sets the
// workload up four more times (setup_s is the median of five), then
// replays its first 64 timed ops under the paragon model for model_s and
// stored_bytes_per_byte. With --trace it also runs the calibration probes,
// splits the timed phase into an untraced and a traced half, reports the
// per-layer ledger and writes the bounded Chrome traces to DIR.
// The last stdout line is one JSON object; run.py turns it into the
// benchmark's result line.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/e2e.h"
#include "src/pfs/codec.h"
#include "src/util/crc32.h"
#include "src/util/error.h"
#include "src/util/options.h"
#include "src/util/strfmt.h"

namespace pcxx::e2e {
namespace {

constexpr int kSetups = 5;
constexpr double kProbeSeconds = 0.25;
/// Each timed op kind runs at least this often, deadline or not, so p95
/// has at least ten samples beyond it.
constexpr std::uint64_t kMinOps = 200;

using Named = std::vector<std::pair<std::string, double>>;

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image. ru_maxrss would also count
/// the parent's image at exec (run.py's Python interpreter, ~16 MB), which
/// is more than the smaller workloads use, so the kernel's VmHWM is read
/// instead.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Size of the largest CPU cache the system reports.
std::uint64_t lastLevelCacheBytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  std::uint64_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream in(
        strfmt("/sys/devices/system/cpu/cpu0/cache/index%d/size", i));
    std::uint64_t kib = 0;
    if (in >> kib) best = std::max(best, kib * 1024);
  }
  return best > 0 ? best : 32ull << 20;
}

/// Single-thread memcpy bandwidth (best of three passes) between two
/// arrays of 4x the last-level cache: the roofline for buffer fill and
/// extract, which each node does on one thread.
double memcpyGbps(std::uint64_t arrayBytes) {
  std::vector<Byte> src(arrayBytes, Byte{1});
  std::vector<Byte> dst(arrayBytes, Byte{0});
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    src[static_cast<size_t>(pass)] = static_cast<Byte>(pass + 2);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), dst.size());
    best = std::max(best, static_cast<double>(arrayBytes) / secondsSince(t0));
    if (dst[static_cast<size_t>(pass)] != src[static_cast<size_t>(pass)]) {
      throw InternalError("memcpy probe: copy not observed");
    }
  }
  return best / 1e9;
}

/// Bare Node::barrier() cost on `nodes` nodes: the floor under every op
/// latency, which is timed between two collectives.
double barrierMicros(int nodes) {
  rt::Machine m(nodes);
  std::vector<double> batches;
  m.run([&](rt::Node& node) {
    for (int i = 0; i < 200; ++i) node.barrier();
    for (int b = 0; b < 21; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < 100; ++i) node.barrier();
      if (node.id() == 0) batches.push_back(secondsSince(t0) / 100 * 1e6);
    }
  });
  return percentile(batches, 0.5);
}

double crc32Gbps(const ByteBuffer& bytes) {
  std::uint32_t sink = 0;
  std::uint64_t done = 0;
  const auto t0 = Clock::now();
  do {
    sink ^= crc32(bytes);
    done += bytes.size();
  } while (secondsSince(t0) < kProbeSeconds);
  const double gbps = static_cast<double>(done) / secondsSince(t0) / 1e9;
  return sink == 0xFFFFFFFFu ? gbps + 0.0 : gbps;  // keeps `sink` live
}

/// LZ compress and decompress rates over `bytes` cut into codec chunks
/// (GB of raw bytes per second). Chunks LZ cannot shrink are stored raw by
/// the codec and are left out of the decompress rate.
std::pair<double, double> lzGbps(const ByteBuffer& bytes) {
  const size_t chunk = pfs::CodecSpec{}.chunkBytes;
  std::vector<std::span<const Byte>> chunks;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    chunks.emplace_back(bytes.data() + off,
                        std::min(chunk, bytes.size() - off));
  }
  std::vector<std::pair<ByteBuffer, size_t>> packed;  // (compressed, raw)
  std::uint64_t done = 0;
  auto t0 = Clock::now();
  do {
    packed.clear();
    for (const auto c : chunks) {
      ByteBuffer out;
      if (pfs::lzCompress(c, out)) {
        packed.emplace_back(std::move(out), c.size());
      }
      done += c.size();
    }
  } while (secondsSince(t0) < kProbeSeconds);
  const double compress = static_cast<double>(done) / secondsSince(t0) / 1e9;
  if (packed.empty()) return {compress, 0.0};
  done = 0;
  t0 = Clock::now();
  do {
    for (const auto& [data, raw] : packed) {
      done += pfs::lzDecompress(data, raw).size();
    }
  } while (secondsSince(t0) < kProbeSeconds);
  return {compress, static_cast<double>(done) / secondsSince(t0) / 1e9};
}

struct Probes {
  std::uint64_t llcBytes = 0;
  std::uint64_t arrayBytes = 0;
  double memcpy = 0.0;
  double barrierUs = 0.0;
  double crc = 0.0;
  double lzCompress = 0.0;
  double lzDecompress = 0.0;
};

Probes runProbes(Workload& wl) {
  Probes p;
  p.llcBytes = lastLevelCacheBytes();
  p.arrayBytes = 4 * p.llcBytes;
  p.memcpy = memcpyGbps(p.arrayBytes);
  p.barrierUs = barrierMicros(wl.nodes());
  const ByteBuffer sample = wl.sampleBytes();
  p.crc = crc32Gbps(sample);
  std::tie(p.lzCompress, p.lzDecompress) = lzGbps(sample);
  return p;
}

/// Write p50 plus read p50: the latency obs.overhead_frac compares.
double p50Sum(const Run& run) {
  return percentile(run.latency[0], 0.5) + percentile(run.latency[1], 0.5);
}

Named endToEnd(const Run& run, const Run& replay,
               const std::vector<double>& setups, double rssMb) {
  const auto& w = run.latency[static_cast<size_t>(Op::Write)];
  const auto& r = run.latency[static_cast<size_t>(Op::Read)];
  return {
      {"setup_s", percentile(setups, 0.5)},
      {"write_p50_ms", percentile(w, 0.50) * 1e3},
      {"write_p95_ms", percentile(w, 0.95) * 1e3},
      {"read_p50_ms", percentile(r, 0.50) * 1e3},
      {"read_p95_ms", percentile(r, 0.95) * 1e3},
      {"write_gbps",
       ratio(static_cast<double>(run.payload[0]), sum(w)) / 1e9},
      {"read_gbps", ratio(static_cast<double>(run.payload[1]), sum(r)) / 1e9},
      {"stored_bytes_per_byte",
       ratio(static_cast<double>(replay.storedBytes()),
             static_cast<double>(replay.payload[0]))},
      {"model_s", replay.virtualSeconds},
      {"peak_rss_mb", rssMb},
  };
}

/// The per-layer ledger of a traced pass `run`; `plain` is the untraced
/// pass before it. `replay` is the traced virtual-time replay: the library
/// books sync wait and aio stalls on the model's clocks only, so those four
/// entries are modeled seconds.
Named layers(const Run& plain, const Run& run, const Run& replay,
             const Probes& p) {
  using obs::Counter;
  using obs::Timer;
  const obs::NodeSnapshot s = run.mergedMetrics();
  const obs::NodeSnapshot v = replay.mergedMetrics();
  const auto C = [&](Counter c) { return static_cast<double>(s.counter(c)); };
  const auto T = [&](Timer t) { return s.timer(t); };

  std::array<double, kSpans> span{}, self{}, count{};
  double benchCollectives = 0.0;
  for (const NodeLedger& l : run.ledger) {
    for (size_t i = 0; i < kSpans; ++i) {
      span[i] += l.seconds[i];
      self[i] += l.seconds[i] - l.childSeconds[i] - l.phaseSeconds[i];
      count[i] += static_cast<double>(l.count[i]);
    }
    benchCollectives += static_cast<double>(l.benchCollectives);
  }
  const auto S = [](Span x) { return static_cast<size_t>(x); };

  const double writes = static_cast<double>(run.opCount[0]);
  const double reads = static_cast<double>(run.opCount[1]);
  const double nodeWrites = writes * run.nodes[0];
  const double nodeReads = reads * run.nodes[1];
  const double modelNodeOps =
      static_cast<double>(replay.opCount[0]) * replay.nodes[0] +
      static_cast<double>(replay.opCount[1]) * replay.nodes[1];
  const double modelNodeWrites =
      static_cast<double>(replay.opCount[0]) * replay.nodes[0];
  const double chunks = std::ceil(C(Counter::PfsCodecRawBytes) /
                                  pfs::CodecSpec{}.chunkBytes);
  return {
      {"calib.memcpy_gbps", p.memcpy},
      {"runtime.barrier_us", p.barrierUs},
      {"runtime.collectives_per_op",
       ratio(C(Counter::RtCollectives) - benchCollectives,
             nodeWrites + nodeReads)},
      {"runtime.sync_wait_s",
       ratio(v.timer(Timer::RtSyncWaitSeconds), modelNodeOps)},
      {"dstream.insert_s", ratio(span[S(Span::Insert)], nodeWrites)},
      {"dstream.fill_s", ratio(T(Timer::DsBufferFillSeconds), nodeWrites)},
      {"dstream.fill_roofline_frac",
       ratio(ratio(C(Counter::DsBufferFillBytes),
                   T(Timer::DsBufferFillSeconds)) / 1e9,
             p.memcpy)},
      {"dstream.header_s", ratio(T(Timer::DsHeaderSeconds), nodeWrites)},
      {"dstream.write_self_s",
       ratio(self[S(Span::Write)] + self[S(Span::Save)], nodeWrites)},
      {"dstream.extract_s", ratio(span[S(Span::Extract)], nodeReads)},
      {"dstream.extract_roofline_frac",
       ratio(ratio(static_cast<double>(run.payload[1]),
                   span[S(Span::Extract)]) / 1e9,
             p.memcpy)},
      {"dstream.read_self_s",
       ratio(self[S(Span::Read)] + self[S(Span::Restore)], nodeReads)},
      {"util.crc32_gbps", p.crc},
      {"redist.plan_build_s",
       ratio(T(Timer::RedistPlanBuildSeconds), nodeReads)},
      {"redist.plan_hit_ratio",
       ratio(C(Counter::RedistPlanHits),
             C(Counter::RedistPlanHits) + C(Counter::RedistPlanMisses))},
      {"redist.exchange_s", ratio(T(Timer::DsRedistSeconds), nodeReads)},
      {"redist.wait_s",
       ratio(v.timer(Timer::RedistWaitSeconds),
             static_cast<double>(replay.opCount[1]) * replay.nodes[1])},
      {"redist.bytes_per_read", ratio(C(Counter::RedistBytesSent), reads)},
      {"dsindex.open_s", ratio(span[S(Span::Open)], count[S(Span::Open)])},
      {"dsindex.seek_s", ratio(span[S(Span::Seek)], count[S(Span::Seek)])},
      {"dsindex.fallbacks", C(Counter::DsIndexFallbacks)},
      {"pfs.read_ops_per_read", ratio(C(Counter::PfsReadOps), reads)},
      {"pfs.read_bytes_per_byte",
       ratio(C(Counter::PfsReadBytes), static_cast<double>(run.payload[1]))},
      {"pfs.read_s", ratio(T(Timer::PfsReadSeconds), nodeReads)},
      {"pfs.write_s", ratio(T(Timer::PfsWriteSeconds), nodeWrites)},
      {"pfs.write_ops_per_write", ratio(C(Counter::PfsWriteOps), writes)},
      {"pfs.codec_s",
       ratio(T(Timer::PfsCodecSeconds), nodeWrites + nodeReads)},
      {"pfs.codec_ratio",
       ratio(C(Counter::PfsCodecStoredBytes), C(Counter::PfsCodecRawBytes))},
      {"pfs.dedup_hit_ratio", ratio(C(Counter::PfsCodecDedupHits), chunks)},
      {"pfs.lz_compress_gbps", p.lzCompress},
      {"pfs.lz_decompress_gbps", p.lzDecompress},
      {"pfs.damaged_chunks", C(Counter::PfsCodecDamagedChunks)},
      {"aio.stall_s", ratio(v.timer(Timer::AioStallSeconds), modelNodeOps)},
      {"aio.drain_s",
       ratio(v.timer(Timer::AioDrainSeconds), modelNodeWrites)},
      {"aio.prefetch_hit_ratio",
       ratio(C(Counter::AioPrefetchHits),
             C(Counter::AioPrefetchHits) + C(Counter::AioPrefetchMisses))},
      {"obs.overhead_frac", ratio(p50Sum(run), p50Sum(plain)) - 1.0},
  };
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += strfmt("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonObject(const Named& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += jsonString(name);
    out += ": ";
    out += std::isfinite(value) ? strfmt("%.17g", value) : "null";
  }
  return out + "}";
}

int runMain(int argc, char** argv, Clock::time_point processStart) {
  Options opts("pcxx_e2e", "one workload of the end-to-end benchmark");
  opts.add("workload", "",
           "scf_checkpoint | restart_relayout | frames_seek | epoch_codec");
  opts.add("seed", "1", "input seed");
  opts.add("seconds", "10", "length of the timed phase");
  opts.add("out", ".", "directory for traces and posix-backed files");
  opts.addFlag("trace", "per-layer ledger, probes and Chrome traces");
  opts.addFlag("smoke", "tiny shapes (a quick pass over every code path)");
  if (!opts.parse(argc, argv)) return 0;
  const std::string name = opts.get("workload");
  const auto& names = workloadNames();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw UsageError("--workload must be one of the benchmark's workloads");
  }
  // A fixed malloc configuration, so latency and peak RSS do not depend on
  // allocation history or thread timing:
  //  - the mmap threshold at the 32 MiB maximum glibc's dynamic adjustment
  //    reaches in a long-running process, and the trim threshold twice
  //    that, as the adjustment sets it. Left dynamic, the library's
  //    multi-MB per-op buffers were fresh mmaps until some large free
  //    raised the threshold, and restart_relayout's reads took 2.7x as
  //    long when set-up happened to free nothing large;
  //  - one arena. With one per thread, freed memory stayed behind in
  //    whichever arenas the short-lived aio threads had used, and
  //    epoch_codec's peak RSS varied by a quarter between identical runs.
  //    The price is lock contention: restart_relayout reads ~10% slower.
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1 ||
      mallopt(M_TRIM_THRESHOLD, 64 << 20) != 1 ||
      mallopt(M_ARENA_MAX, 1) != 1) {
    throw Error("mallopt refused the benchmark's malloc settings");
  }

  Config cfg;
  cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));
  cfg.smoke = opts.getFlag("smoke");
  cfg.outDir = opts.get("out");
  const bool traced = opts.getFlag("trace");
  const double seconds = opts.getDouble("seconds");
  const std::uint64_t minOps = cfg.smoke ? 0 : kMinOps;

  auto wl = makeWorkload(name, cfg);
  wl->setup();
  std::vector<double> setups = {secondsSince(processStart)};
  const Probes probes = traced ? runProbes(*wl) : Probes{};

  // A traced process splits its time: an untraced pass first, the baseline
  // of obs.overhead_frac, then the traced pass the ledger comes from.
  Run run(false, /*replay=*/false, traced ? seconds / 2 : seconds, minOps);
  wl->timed(run);
  std::optional<Run> tracedRun;
  if (traced) {
    tracedRun.emplace(true, /*replay=*/false, seconds / 2, minOps);
    wl->timed(*tracedRun);
  }
  const double rssMb = peakRssMb();
  wl.reset();
  // The other set-ups run after the peak RSS is read: the memory each one
  // leaves in malloc's free lists raised the peak by a random 10-30%.
  for (int i = 1; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    makeWorkload(name, cfg)->setup();
    setups.push_back(secondsSince(t0));
  }

  Config modelCfg = cfg;
  modelCfg.model = true;
  Run replay(traced, /*replay=*/true, 0.0);
  {
    auto model = makeWorkload(name, modelCfg);
    model->setup();
    model->timed(replay);
  }

  Named layerValues;
  std::vector<std::string> traceFiles;
  std::uint64_t attempted = run.attempted;
  std::uint64_t failed = run.failed;
  std::vector<std::string> errorList = run.errors;
  if (tracedRun) {
    Run& tr = *tracedRun;
    layerValues = layers(run, tr, replay, probes);
    const obs::NodeSnapshot s = tr.mergedMetrics();
    if (const auto n = s.counter(obs::Counter::DsIndexFallbacks); n != 0) {
      tr.fail(strfmt("%llu dsindex fallback(s) on a clean run",
                     static_cast<unsigned long long>(n)));
    }
    if (const auto n = s.counter(obs::Counter::PfsCodecDamagedChunks); n != 0) {
      tr.fail(strfmt("%llu damaged codec chunk(s) on a clean run",
                     static_cast<unsigned long long>(n)));
    }
    for (size_t i = 0; i < tr.traces().size(); ++i) {
      traceFiles.push_back(
          strfmt("%s/trace-%s-%zu.json", cfg.outDir.c_str(), name.c_str(), i));
      tr.traces()[i]->writeJson(traceFiles.back());
    }
    attempted += tr.attempted;
    failed += tr.failed;
    errorList.insert(errorList.end(), tr.errors.begin(), tr.errors.end());
  }

  std::string errors = "[";
  for (const std::string& e : errorList) {
    if (errors.size() > 1) errors += ", ";
    errors += jsonString(e);
  }
  errors += "]";
  std::string traces = "[";
  for (const std::string& t : traceFiles) {
    if (traces.size() > 1) traces += ", ";
    traces += jsonString(t);
  }
  traces += "]";
  const Named samples = {
      {"setup", kSetups},
      {"write", static_cast<double>(run.latency[0].size())},
      {"read", static_cast<double>(run.latency[1].size())},
      {"model", static_cast<double>(replay.attempted)},
  };
  const Named info = {
      {"llc_bytes", static_cast<double>(probes.llcBytes)},
      {"memcpy_array_bytes", static_cast<double>(probes.arrayBytes)},
      {"write_record_bytes",
       ratio(static_cast<double>(run.payload[0]),
             static_cast<double>(run.latency[0].size()))},
      {"read_record_bytes",
       ratio(static_cast<double>(run.payload[1]),
             static_cast<double>(run.latency[1].size()))},
  };
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"errors\": %s, \"samples\": %s, \"metrics\": %s, "
      "\"layers\": %s, \"info\": %s, \"traces\": %s}\n",
      jsonString(name).c_str(), static_cast<unsigned long long>(cfg.seed),
      traced ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), errors.c_str(),
      jsonObject(samples).c_str(),
      jsonObject(endToEnd(run, replay, setups, rssMb)).c_str(),
      jsonObject(layerValues).c_str(), jsonObject(info).c_str(),
      traces.c_str());
  return 0;
}

}  // namespace
}  // namespace pcxx::e2e

int main(int argc, char** argv) {
  const auto processStart = pcxx::e2e::Clock::now();
  try {
    return pcxx::e2e::runMain(argc, argv, processStart);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcxx_e2e: %s\n", e.what());
    return 2;
  }
}
