// Ablation (extension): the pfs chunk codec (LZ compression + dedup).
//
// Two identical checkpoint-style epochs of compressible doubles are written
// through the d/stream path with the codec off ("none"), with LZ chunk
// framing ("lz"), and with LZ plus cross-epoch dedup (epoch1 names epoch0
// as its dedup base). Epoch1 is read back and verified element-exact in
// every mode. With obs enabled the run asserts the codec actually moved
// fewer bytes through the storage backend than it was handed
// (pfs.codec_stored_bytes < pfs.codec_raw_bytes), that dedup produced ref
// frames (pfs.codec_dedup_hits > 0), and that no chunk was damaged.
//
// The codec sits BELOW the perf model — modeled charges are per logical
// byte — so the virtual-time totals must be identical across all three
// modes; the run asserts that too (the "no sync-path regression" check).
// pfs.codec_seconds is wall clock even under TimeMode::Virtual, so it is
// zeroed out of the snapshots before --metrics-json capture: the perf gate
// compares timers one-sided and must never see host-speed noise.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_obs.h"
#include "src/collection/collection.h"
#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/util/options.h"
#include "src/util/strfmt.h"
#include "src/util/table.h"

using namespace pcxx;

namespace {

constexpr int kNodes = 4;

/// Checkpoint-like fill: long runs of small repeated values, so the LZ
/// stage has real redundancy to find (doubles of small ints are mostly
/// zero bytes). Identical for both epochs, so dedup sees repeated chunks.
double fillValue(std::int64_t g) { return static_cast<double>(g % 17); }

struct RunResult {
  double modelSeconds = 0.0;  ///< merged virtual d/stream write+read time
  std::uint64_t logicalBytes = 0;
  std::uint64_t rawBytes = 0;
  std::uint64_t storedBytes = 0;
  std::uint64_t dedupHits = 0;
  std::uint64_t damagedChunks = 0;
  std::int64_t mismatches = 0;
  obs::MetricsSnapshot snapshot;  // empty when obs is compiled out
};

/// Write two identical epochs with per-epoch stream options from `optFor`,
/// read epoch1 back, verify element-exact. Fresh Pfs per call.
RunResult runMode(std::int64_t elements,
                  const std::function<ds::StreamOptions(int epoch)>& optFor) {
  RunResult res;
  pfs::PfsConfig cfg;
  cfg.perf = pfs::paragonParams();
  pfs::Pfs fs(cfg);
  rt::Machine m(kNodes, rt::CommModel{100e-6, 1.25e-8});
#if PCXX_OBS_ENABLED
  obs::MetricsRegistry reg(kNodes);
  obs::Observer observer;
  observer.metrics = &reg;
  observer.timeMode = obs::Observer::TimeMode::Virtual;
  m.attachObserver(observer);
#endif
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(elements, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    data.forEachLocal([](double& v, std::int64_t g) { v = fillValue(g); });
    for (int epoch = 0; epoch < 2; ++epoch) {
      ds::OStream s(fs, &d, strfmt("epoch%d", epoch), optFor(epoch));
      s << data;
      s.write();
    }
    coll::Collection<double> back(&d);
    ds::IStream in(fs, &d, "epoch1");
    in.unsortedRead();
    in >> back;
    std::int64_t local = 0;
    back.forEachLocal([&](double& v, std::int64_t g) {
      if (v != fillValue(g)) ++local;
    });
    bad.fetch_add(local);
  });
#if PCXX_OBS_ENABLED
  m.detachObserver();
  auto snap = reg.snapshot();
  // Wall-clock timer in an otherwise virtual-time snapshot: zero it before
  // capture so the perf gate's one-sided timer compare stays deterministic.
  snap.merged.seconds[static_cast<size_t>(obs::Timer::PfsCodecSeconds)] = 0.0;
  for (auto& node : snap.perNode) {
    node.seconds[static_cast<size_t>(obs::Timer::PfsCodecSeconds)] = 0.0;
  }
  res.modelSeconds = snap.merged.timer(obs::Timer::DsWriteSeconds) +
                     snap.merged.timer(obs::Timer::DsReadSeconds);
  res.logicalBytes = snap.merged.counter(obs::Counter::PfsWriteBytes);
  res.rawBytes = snap.merged.counter(obs::Counter::PfsCodecRawBytes);
  res.storedBytes = snap.merged.counter(obs::Counter::PfsCodecStoredBytes);
  res.dedupHits = snap.merged.counter(obs::Counter::PfsCodecDedupHits);
  res.damagedChunks =
      snap.merged.counter(obs::Counter::PfsCodecDamagedChunks);
  res.snapshot = std::move(snap);
#endif
  res.mismatches = bad.load();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  // The codec env override would silently turn every mode into the same
  // configuration; this bench sets the codec per stream, explicitly.
#ifndef _WIN32
  unsetenv("PCXX_CODEC");
#endif
  Options opts("ablation_codec",
               "pfs chunk codec: none vs LZ vs LZ + cross-epoch dedup");
  opts.add("elements", "16384", "doubles per epoch");
  opts.add("chunk-kib", "16", "codec chunk size (KiB)");
  opts.add("metrics-json", "", "write per-run obs snapshots to this path");
  if (!opts.parse(argc, argv)) return 0;
  const std::int64_t elements = opts.getInt("elements");
  const std::uint32_t chunkBytes =
      static_cast<std::uint32_t>(opts.getInt("chunk-kib")) * 1024;

  const auto modeOpts = [&](const std::string& codec, bool dedup) {
    return [codec, dedup, chunkBytes](int epoch) {
      ds::StreamOptions so;
      so.codec = codec;
      so.codecChunkBytes = chunkBytes;
      if (dedup && epoch == 1) so.codecDedupBase = "epoch0";
      return so;
    };
  };
  struct Mode {
    const char* label;
    RunResult res;
  };
  Mode modes[] = {
      {"codec=none", runMode(elements, modeOpts("none", false))},
      {"codec=lz", runMode(elements, modeOpts("lz", false))},
      {"codec=lz+dedup", runMode(elements, modeOpts("lz", true))},
  };

  Table t(strfmt("Ablation: pfs chunk codec (2 identical epochs of %lld "
                 "doubles on %d nodes BLOCK, %u KiB chunks, epoch1 "
                 "read back)",
                 static_cast<long long>(elements), kNodes,
                 chunkBytes / 1024));
  t.setHeader({"mode", "model time", "logical MB", "stored MB", "saved",
               "dedup hits"});
  bool ok = true;
  for (const Mode& mode : modes) {
    const RunResult& r = mode.res;
    if (r.mismatches != 0) {
      std::fprintf(stderr, "verification FAILED (%s): %lld mismatched "
                   "elements after read-back\n",
                   mode.label, static_cast<long long>(r.mismatches));
      ok = false;
    }
    const double logicalMb = static_cast<double>(r.logicalBytes) / 1e6;
    // The unframed mode stores exactly its logical bytes.
    const std::uint64_t stored =
        r.rawBytes == 0 ? r.logicalBytes : r.storedBytes;
    t.addRow({mode.label, strfmt("%.4f sec.", r.modelSeconds),
              strfmt("%.2f", logicalMb),
              strfmt("%.2f", static_cast<double>(stored) / 1e6),
              strfmt("%.1f%%",
                     r.logicalBytes == 0
                         ? 0.0
                         : 100.0 * (1.0 - static_cast<double>(stored) /
                                        static_cast<double>(r.logicalBytes))),
              strfmt("%llu", static_cast<unsigned long long>(r.dedupHits))});
  }

#if PCXX_OBS_ENABLED
  const RunResult& none = modes[0].res;
  const RunResult& lz = modes[1].res;
  const RunResult& dedup = modes[2].res;
  if (none.rawBytes != 0) {
    std::fprintf(stderr, "codec=none moved %llu bytes through the codec "
                 "stage — the unframed path must bypass it entirely\n",
                 static_cast<unsigned long long>(none.rawBytes));
    ok = false;
  }
  if (lz.rawBytes == 0 || lz.storedBytes >= lz.rawBytes) {
    std::fprintf(stderr, "LZ did not reduce backend traffic: raw=%llu "
                 "stored=%llu (compressible fill must compress)\n",
                 static_cast<unsigned long long>(lz.rawBytes),
                 static_cast<unsigned long long>(lz.storedBytes));
    ok = false;
  }
  if (dedup.dedupHits == 0 || dedup.storedBytes >= lz.storedBytes) {
    std::fprintf(stderr, "dedup ineffective: hits=%llu stored=%llu vs "
                 "lz-only stored=%llu (identical epochs must share "
                 "chunks)\n",
                 static_cast<unsigned long long>(dedup.dedupHits),
                 static_cast<unsigned long long>(dedup.storedBytes),
                 static_cast<unsigned long long>(lz.storedBytes));
    ok = false;
  }
  for (const Mode& mode : modes) {
    if (mode.res.damagedChunks != 0) {
      std::fprintf(stderr, "%s: %llu damaged chunk(s) on a clean run\n",
                   mode.label,
                   static_cast<unsigned long long>(mode.res.damagedChunks));
      ok = false;
    }
    // Modeled charges are per LOGICAL byte; the codec lives below the
    // model, so turning it on must not move virtual time at all.
    const double base = none.modelSeconds;
    if (std::abs(mode.res.modelSeconds - base) > 1e-9 * std::max(base, 1.0)) {
      std::fprintf(stderr, "%s: virtual time %.9f sec. differs from "
                   "codec=none %.9f sec. — the codec leaked into the "
                   "sync-path model\n",
                   mode.label, mode.res.modelSeconds, base);
      ok = false;
    }
  }
#endif

  t.setFootnote(
      "all modes verified element-exact on read-back; virtual time is "
      "identical by construction (the codec runs below the perf model), so "
      "the savings column is the whole story: bytes the storage backend "
      "never had to move");
  t.print();

  benchutil::MetricsDump dump(opts.get("metrics-json"));
  for (const Mode& mode : modes) dump.add(mode.label, mode.res.snapshot);
  dump.write();
  return ok ? 0 : 1;
}
