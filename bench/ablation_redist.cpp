// Ablation: what redistribution costs a read.
//
// Part 1, the plan engine (cached plans, flat-buffer counting-sort routing,
// chunked exchange): a file written on 6 nodes (BLOCK, several records of
// small variable-size elements) is read back repeatedly under mismatched
// layouts and chunk budgets. Every read is verified element-exact against
// the deterministic fill, and the wall-clock per configuration is reported.
// With obs enabled the run also asserts the plan cache actually hit on the
// repeated same-layout reads (exit 1 otherwise), which is the property the
// engine's amortization argument rests on.
//
// Part 2, the paper's "paperwork" (§4.1): a record written on 8 nodes is
// read back on 2, 4 and 8 nodes with read() and with unsortedRead(); the
// difference in modeled input time is the redistribution cost (the 8-node
// case matches the writer layout and skips the exchange).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_obs.h"
#include "src/collection/collection.h"
#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/redist/redist.h"
#include "src/scf/segment.h"
#include "src/scf/workload.h"
#include "src/util/options.h"
#include "src/util/strfmt.h"
#include "src/util/table.h"

using namespace pcxx;

namespace {

constexpr int kWriters = 6;
constexpr const char* kFile = "ablation_redist";

struct RunResult {
  double seconds = 0.0;
  std::uint64_t planHits = 0;
  std::uint64_t planMisses = 0;
  std::int64_t mismatches = 0;
  obs::MetricsSnapshot snapshot;  // empty when obs is compiled out
};

/// Read the file back `repeats` times on `q` nodes under `kind`, verifying
/// the first pass element-exact; wall-clock covers all passes.
RunResult runRead(pfs::Pfs& fs, int q, coll::DistKind kind,
                  std::int64_t segments, int particles, int records,
                  int repeats, ds::StreamOptions so) {
  RunResult res;
  fs.model().reset();
  rt::Machine m(q, rt::CommModel{100e-6, 1.25e-8});
#if PCXX_OBS_ENABLED
  obs::MetricsRegistry reg(q);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
#endif
  std::atomic<std::int64_t> bad{0};
  const auto t0 = std::chrono::steady_clock::now();
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(segments, &P, kind);
    coll::Collection<scf::Segment> back(&d);
    for (int rep = 0; rep < repeats; ++rep) {
      ds::IStream s(fs, &d, kFile, so);
      for (int r = 0; r < records; ++r) {
        s.read();
        s >> back;
        if (rep == 0) {
          bad.fetch_add(scf::verifyDeterministic(back, particles));
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
  res.planHits = snap.merged.counter(obs::Counter::RedistPlanHits);
  res.planMisses = snap.merged.counter(obs::Counter::RedistPlanMisses);
#endif
  res.mismatches = bad.load();
  return res;
}

/// Part 2: input time of one record of 1000 segments x 100 particles
/// (5+ MB) written on 8 nodes (BLOCK), read back on 2, 4 and 8 nodes with
/// read() and with unsortedRead(). Returns false when a sorted read is not
/// element-exact.
bool nodeCountTable() {
  constexpr std::int64_t segments = 1000;
  constexpr int particles = 100;
  pfs::PfsConfig cfg;
  cfg.perf = pfs::paragonParams();
  pfs::Pfs fs(cfg);
  {
    rt::Machine writer(8, rt::CommModel{100e-6, 1.25e-8});
    writer.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(segments, &P, coll::DistKind::Block);
      coll::Collection<scf::Segment> data(&d);
      scf::fillDeterministic(data, particles);
      ds::OStream s(fs, &d, kFile);
      s << data;
      s.write();
    });
  }

  Table t(strfmt("Ablation: input time for a record written on 8 nodes "
                 "(BLOCK, %lld segments), read back on fewer nodes",
                 static_cast<long long>(segments)));
  t.setHeader({"reading nodes", "read()", "unsortedRead()",
               "redistribution cost", "note"});
  for (int q : {2, 4, 8}) {
    double times[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      const bool sorted = pass == 0;
      fs.model().reset();
      rt::Machine reader(q, rt::CommModel{100e-6, 1.25e-8});
      std::atomic<std::int64_t> bad{0};
      reader.run([&](rt::Node&) {
        coll::Processors P;
        coll::Distribution d(segments, &P, coll::DistKind::Block);
        coll::Collection<scf::Segment> back(&d);
        ds::IStream s(fs, &d, kFile);
        if (sorted) {
          s.read();
        } else {
          s.unsortedRead();
        }
        s >> back;
        // Only the sorted read guarantees element order.
        if (sorted) bad.fetch_add(scf::verifyDeterministic(back, particles));
      });
      if (bad.load() != 0) {
        std::fprintf(stderr,
                     "verification FAILED on %d nodes (%lld values)\n", q,
                     static_cast<long long>(bad.load()));
        return false;
      }
      times[pass] = reader.maxVirtualTime();
    }
    // An 8->8 BLOCK read matches the writer layout: the library skips the
    // exchange entirely and read() == unsortedRead().
    t.addRow({strfmt("%d", q), strfmt("%.3f sec.", times[0]),
              strfmt("%.3f sec.", times[1]),
              strfmt("%.3f sec.", times[0] - times[1]),
              q == 8 ? "layouts match: fast path, no exchange"
                     : "node count changed: sort + alltoall"});
  }
  t.setFootnote("modeled (virtual) input time; read() results verified "
                "element-exact; the absolute times also show the "
                "bulk-cache effect of reading the same file with fewer "
                "nodes");
  t.print();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("ablation_redist",
               "redistribution cost: plan engine sweep, and read() vs "
               "unsortedRead() by reading node count");
  opts.add("segments", "4000", "collection size (plan engine sweep)");
  opts.add("particles", "8", "particles per segment (small elements)");
  opts.add("records", "3", "records in the file");
  opts.add("repeats", "4", "read passes per configuration");
  opts.add("metrics-json", "", "write per-run obs snapshots to this path");
  if (!opts.parse(argc, argv)) return 0;
  const std::int64_t segments = opts.getInt("segments");
  const int particles = static_cast<int>(opts.getInt("particles"));
  const int records = static_cast<int>(opts.getInt("records"));
  const int repeats = static_cast<int>(opts.getInt("repeats"));

  pfs::PfsConfig cfg;
  cfg.perf = pfs::paragonParams();
  pfs::Pfs fs(cfg);

  // Write once on 6 nodes, BLOCK: every reader below forces an exchange.
  {
    rt::Machine writer(kWriters, rt::CommModel{100e-6, 1.25e-8});
    writer.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(segments, &P, coll::DistKind::Block);
      coll::Collection<scf::Segment> data(&d);
      scf::fillDeterministic(data, particles);
      ds::OStream s(fs, &d, kFile);
      for (int r = 0; r < records; ++r) {
        s << data;
        s.write();
      }
    });
  }
  redist::PlanCache::instance().clear();

  struct Config {
    int readers;
    coll::DistKind kind;
    std::uint64_t chunkBytes;
  };
  const Config configs[] = {
      {4, coll::DistKind::Cyclic, 1 << 20},
      {3, coll::DistKind::Block, 1 << 20},
      {4, coll::DistKind::Cyclic, 1 << 16},
      {4, coll::DistKind::Cyclic, 0},  // unchunked single round
  };

  Table t(strfmt("Ablation: redistribution of %d records x %lld segments "
                 "written on %d nodes (BLOCK), %d read passes each",
                 records, static_cast<long long>(segments), kWriters,
                 repeats));
  t.setHeader({"readers", "layout", "chunk budget", "wall time",
               "plan hits/misses"});
  benchutil::MetricsDump dump(opts.get("metrics-json"));
  bool ok = true;
  for (const Config& c : configs) {
    ds::StreamOptions planOpts;
    planOpts.redistChunkBytes = c.chunkBytes;
    const RunResult plan = runRead(fs, c.readers, c.kind, segments, particles,
                                   records, repeats, planOpts);
    const char* kindName = c.kind == coll::DistKind::Block ? "BLOCK" : "CYCLIC";
    if (plan.mismatches != 0) {
      std::fprintf(stderr,
                   "verification FAILED (%d readers, %s): %lld mismatched "
                   "values\n",
                   c.readers, kindName,
                   static_cast<long long>(plan.mismatches));
      ok = false;
    }
#if PCXX_OBS_ENABLED
    // Pass 1 record 1 misses; every later record and pass must reuse the
    // plan (stream memo or process cache).
    if (plan.planHits == 0) {
      std::fprintf(stderr,
                   "plan cache never hit (%d readers, %s): the repeated "
                   "same-layout reads should amortize the plan build\n",
                   c.readers, kindName);
      ok = false;
    }
    dump.add(strfmt("readers=%d %s chunk=%llu plan", c.readers, kindName,
                    static_cast<unsigned long long>(c.chunkBytes)),
             plan.snapshot);
#endif
    t.addRow({strfmt("%d", c.readers), kindName,
              c.chunkBytes == 0 ? std::string("unchunked")
                                : strfmt("%llu B", static_cast<unsigned long
                                                   long>(c.chunkBytes)),
              strfmt("%.3f sec.", plan.seconds),
              strfmt("%llu/%llu",
                     static_cast<unsigned long long>(plan.planHits),
                     static_cast<unsigned long long>(plan.planMisses))});
  }
  t.setFootnote("every read verified element-exact against the "
                "deterministic fill; times are wall-clock over all read "
                "passes");
  t.print();

  if (!nodeCountTable()) ok = false;

  dump.write();
  return ok ? 0 : 1;
}
