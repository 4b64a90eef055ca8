// Ablation: the index footer (pcxx::dsindex) against chain replay
// (StreamOptions::dsindexUseFooter = false).
//
// A file of R records is written on 4 nodes (BLOCK, doubles), then record
// R-1 plus a fixed mid-chain record are fetched repeatedly through both
// access paths. Replay pays one header read per skipped record, so its cost
// grows linearly in R while the indexed path stays flat — the sweep over
// record counts makes the asymptote visible in one table. Both paths are
// verified element-exact against the deterministic fill (equality with the
// ground truth on every element is byte-identity between the paths; exit 1
// otherwise), and with obs enabled the run asserts the indexed path
// actually used the footer (dsindex.hits > 0, exit 1 otherwise).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
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

constexpr int kWriters = 4;

/// Deterministic fill for record r: element g holds g + r * 10000.
double expectedValue(std::int64_t g, int r) {
  return static_cast<double>(g) + static_cast<double>(r) * 10000.0;
}

struct RunResult {
  double seconds = 0.0;
  std::uint64_t indexHits = 0;
  std::uint64_t fallbacks = 0;
  std::int64_t mismatches = 0;
  obs::MetricsSnapshot snapshot;  // empty when obs is compiled out
};

/// Fetch records {records-1, records/2} `repeats` times on `q` nodes,
/// verifying the first pass element-exact; wall-clock covers all passes.
RunResult runSeek(pfs::Pfs& fs, const std::string& file, int q,
                  std::int64_t elements, int records, int repeats,
                  ds::StreamOptions so) {
  RunResult res;
  fs.model().reset();
  rt::Machine m(q, rt::CommModel{100e-6, 1.25e-8});
#if PCXX_OBS_ENABLED
  obs::MetricsRegistry reg(q);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
#endif
  const std::uint32_t targets[] = {static_cast<std::uint32_t>(records - 1),
                                   static_cast<std::uint32_t>(records / 2)};
  std::atomic<std::int64_t> bad{0};
  const auto t0 = std::chrono::steady_clock::now();
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(elements, &P, coll::DistKind::Block);
    coll::Collection<double> back(&d);
    for (int rep = 0; rep < repeats; ++rep) {
      ds::IStream s(fs, &d, file, so);
      for (std::uint32_t k : targets) {
        s.readRecord(k);
        s >> back;
        if (rep == 0) {
          std::int64_t local = 0;
          back.forEachLocal([&](double& v, std::int64_t g) {
            if (v != expectedValue(g, static_cast<int>(k))) ++local;
          });
          bad.fetch_add(local);
        }
      }
    }
  });
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
#if PCXX_OBS_ENABLED
  m.detachObserver();
  res.snapshot = reg.snapshot();
  const obs::MetricsSnapshot& snap = res.snapshot;
  res.indexHits = snap.merged.counter(obs::Counter::DsIndexHits);
  res.fallbacks = snap.merged.counter(obs::Counter::DsIndexFallbacks);
#endif
  res.mismatches = bad.load();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("ablation_index",
               "footer-indexed record seeks vs chain replay");
  opts.add("elements", "2048", "collection size");
  opts.add("max-records", "64", "cap on the record-count sweep");
  opts.add("readers", "4", "nodes in each read pass");
  opts.add("repeats", "3", "seek passes per configuration");
  opts.add("metrics-json", "", "write per-run obs snapshots to this path");
  if (!opts.parse(argc, argv)) return 0;
  const std::int64_t elements = opts.getInt("elements");
  const int maxRecords = static_cast<int>(opts.getInt("max-records"));
  const int readers = static_cast<int>(opts.getInt("readers"));
  const int repeats = static_cast<int>(opts.getInt("repeats"));

  pfs::PfsConfig cfg;
  cfg.perf = pfs::paragonParams();
  pfs::Pfs fs(cfg);

  const int sweep[] = {4, 16, 64};
  Table t(strfmt("Ablation: record seek via index footer vs chain replay "
                 "(%lld doubles, written on %d nodes BLOCK, %d passes of "
                 "2 seeks each on %d readers)",
                 static_cast<long long>(elements), kWriters, repeats,
                 readers));
  t.setHeader({"records", "indexed seek", "chain replay", "speedup",
               "index hits", "fallbacks"});
  benchutil::MetricsDump dump(opts.get("metrics-json"));
  bool ok = true;
  for (int records : sweep) {
    if (records > maxRecords) continue;
    const std::string file = strfmt("ablation_index_r%d", records);
    {
      rt::Machine writer(kWriters, rt::CommModel{100e-6, 1.25e-8});
      writer.run([&](rt::Node&) {
        coll::Processors P;
        coll::Distribution d(elements, &P, coll::DistKind::Block);
        coll::Collection<double> data(&d);
        ds::OStream s(fs, &d, file);
        for (int r = 0; r < records; ++r) {
          data.forEachLocal([r](double& v, std::int64_t g) {
            v = expectedValue(g, r);
          });
          s << data;
          s.write();
        }
      });
    }

    ds::StreamOptions indexedOpts;
    const RunResult indexed = runSeek(fs, file, readers, elements, records,
                                      repeats, indexedOpts);
    ds::StreamOptions replayOpts;
    replayOpts.dsindexUseFooter = false;
    const RunResult replay = runSeek(fs, file, readers, elements, records,
                                     repeats, replayOpts);
    if (indexed.mismatches != 0 || replay.mismatches != 0) {
      std::fprintf(stderr,
                   "verification FAILED (%d records): indexed=%lld "
                   "replay=%lld mismatched values\n",
                   records, static_cast<long long>(indexed.mismatches),
                   static_cast<long long>(replay.mismatches));
      ok = false;
    }
#if PCXX_OBS_ENABLED
    if (indexed.indexHits == 0) {
      std::fprintf(stderr,
                   "index never hit (%d records): the footer should back "
                   "every seek on an indexed file\n",
                   records);
      ok = false;
    }
    dump.add(strfmt("records=%d indexed", records), indexed.snapshot);
    dump.add(strfmt("records=%d replay", records), replay.snapshot);
#endif
    t.addRow({strfmt("%d", records),
              strfmt("%.3f sec.", indexed.seconds),
              strfmt("%.3f sec.", replay.seconds),
              strfmt("%.2fx", replay.seconds / indexed.seconds),
              strfmt("%llu",
                     static_cast<unsigned long long>(indexed.indexHits)),
              strfmt("%llu",
                     static_cast<unsigned long long>(replay.fallbacks))});
  }
  t.setFootnote("both paths verified element-exact against the "
                "deterministic fill, so their outputs are byte-identical; "
                "replay pays one header read per skipped record, the "
                "indexed path a constant number of I/Os per seek");
  t.print();

  dump.write();
  return ok ? 0 : 1;
}
