// Golden-schema test for the Chrome trace_event output, plus the
// "observability is free" guarantee: a write+read round-trip produces a
// trace that loads cleanly (valid JSON, matched B/E pairs, monotone
// timestamps per track), and attaching an observer must not change a
// single byte of the stream file it observes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/runtime/machine.h"
#include "tests/common/json_check.h"

namespace {

using namespace pcxx;

#if PCXX_OBS_ENABLED

/// One parsed trace event (the fields the schema checks need).
struct Ev {
  std::string name;
  char phase = '?';
  double ts = 0.0;
  int tid = -1;
  std::string id;    ///< flow correlation id (hex string; empty when absent)
  bool bp = false;   ///< terminator bound to enclosing slice ("bp": "e")
};

/// Extract the events from TraceSession JSON (one event object per line).
std::vector<Ev> parseEvents(const std::string& json) {
  std::vector<Ev> events;
  std::istringstream in(json);
  std::string line;
  auto field = [](const std::string& s, const std::string& key) {
    const auto at = s.find("\"" + key + "\": ");
    return at == std::string::npos ? std::string()
                                   : s.substr(at + key.size() + 4);
  };
  while (std::getline(in, line)) {
    const std::string ph = field(line, "ph");
    if (ph.empty() || ph[1] == 'M') continue;  // metadata / non-events
    Ev e;
    e.phase = ph[1];
    const std::string name = field(line, "name");
    e.name = name.substr(1, name.find('"', 1) - 1);
    e.ts = std::stod(field(line, "ts"));
    e.tid = std::stoi(field(line, "tid"));
    const std::string id = field(line, "id");
    if (!id.empty() && id[0] == '"') {
      e.id = id.substr(1, id.find('"', 1) - 1);
    }
    e.bp = line.find("\"bp\": \"e\"") != std::string::npos;
    events.push_back(e);
  }
  return events;
}

#endif  // PCXX_OBS_ENABLED

/// Write + read a small collection with `observer` attached (if any);
/// returns the stream file's bytes.
std::string roundtrip(const std::filesystem::path& dir,
                      obs::Observer* observer,
                      ds::StreamOptions opts = {}) {
  std::filesystem::create_directories(dir);
  pfs::PfsConfig cfg;
  cfg.backend = pfs::PfsConfig::Backend::Posix;
  cfg.dir = dir.string();
  cfg.perf = pfs::paragonParams();
  pfs::Pfs fs(cfg);
  rt::Machine m(3);
  if (observer != nullptr) m.attachObserver(*observer);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(12, &P, coll::DistKind::Cyclic);
    coll::Collection<double> g(&d);
    g.forEachLocal([](double& v, std::int64_t i) {
      v = 0.25 * static_cast<double>(i);
    });
    {
      ds::OStream s(fs, &d, "trace.ds", opts);
      s << g;
      s.write();
    }
    coll::Distribution dr(12, &P, coll::DistKind::Block);
    coll::Collection<double> back(&dr);
    ds::IStream in(fs, &dr, "trace.ds", opts);
    in.read();
    in >> back;
  });
  std::ifstream raw(dir / "trace.ds", std::ios::binary);
  std::ostringstream bytes;
  bytes << raw.rdbuf();
  return bytes.str();
}

class TraceGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pcxx_trace_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

#if PCXX_OBS_ENABLED

TEST_F(TraceGolden, RoundtripTraceLoadsCleanly) {
  obs::MetricsRegistry reg(3);
  obs::TraceSession trace(3);
  obs::Observer observer;
  observer.metrics = &reg;
  observer.trace = &trace;
  roundtrip(dir_ / "a", &observer);

  ASSERT_GT(trace.eventCount(), 0u);
  const std::string json = trace.toJson();
  EXPECT_TRUE(test::JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);

  const std::vector<Ev> events = parseEvents(json);
  ASSERT_FALSE(events.empty());

  // Schema: every track is a well-nested B/E sequence with monotone
  // timestamps, and tids stay within the machine's node range.
  std::map<int, std::vector<std::string>> stack;
  std::map<int, double> lastTs;
  for (const Ev& e : events) {
    EXPECT_GE(e.tid, 0);
    EXPECT_LT(e.tid, 3);
    if (lastTs.count(e.tid) != 0) {
      EXPECT_GE(e.ts, lastTs[e.tid])
          << e.name << " went backwards on tid " << e.tid;
    }
    lastTs[e.tid] = e.ts;
    if (e.phase == 'B') {
      stack[e.tid].push_back(e.name);
    } else if (e.phase == 'E') {
      ASSERT_FALSE(stack[e.tid].empty()) << "E without B: " << e.name;
      EXPECT_EQ(stack[e.tid].back(), e.name) << "mismatched span nesting";
      stack[e.tid].pop_back();
    }
  }
  for (const auto& [tid, open] : stack) {
    EXPECT_TRUE(open.empty()) << open.size() << " unclosed span(s) on tid "
                              << tid;
  }

  // The round-trip must show the headline phases on some track.
  EXPECT_NE(json.find("\"ds.write\""), std::string::npos);
  EXPECT_NE(json.find("\"ds.bufferFill\""), std::string::npos);
  EXPECT_NE(json.find("\"ds.read\""), std::string::npos);
  EXPECT_NE(json.find("\"ds.redist\""), std::string::npos);
  EXPECT_NE(json.find("\"pfs.writeAt\""), std::string::npos);

  // And the metrics side of the same run must agree on the op counts.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.merged.counter(obs::Counter::DsWrites), 3u);
  EXPECT_EQ(snap.merged.counter(obs::Counter::DsReads), 3u);
  EXPECT_GT(snap.merged.counter(obs::Counter::PfsWriteBytes), 0u);
  EXPECT_GT(snap.merged.counter(obs::Counter::RedistElementsMoved), 0u);
}

TEST_F(TraceGolden, FlowEventsFormTerminatedCausalChains) {
  obs::MetricsRegistry reg(3);
  obs::TraceSession trace(3);
  obs::Observer observer;
  observer.metrics = &reg;
  observer.trace = &trace;
  roundtrip(dir_ / "flow", &observer);

  const std::string json = trace.toJson();
  const std::vector<Ev> events = parseEvents(json);
  ASSERT_FALSE(events.empty());

  std::map<std::string, int> starts;
  std::map<std::string, int> ends;
  int recordChains = 0;
  int collEdges = 0;
  int collEdgeEnds = 0;
  int stragglerMarks = 0;
  for (const Ev& e : events) {
    if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
      EXPECT_FALSE(e.id.empty()) << "flow event without id: " << e.name;
      EXPECT_EQ(e.id.compare(0, 2, "0x"), 0) << "non-hex flow id " << e.id;
    }
    if (e.phase == 's') {
      ++starts[e.id];
      if (e.name == "ds.record") ++recordChains;
      if (e.name == "rt.coll") ++collEdges;
    } else if (e.phase == 'f') {
      ++ends[e.id];
      EXPECT_TRUE(e.bp) << "terminator without bp binding: " << e.name;
      if (e.name == "rt.coll") ++collEdgeEnds;
    } else if (e.phase == 'i' && e.name == "rt.coll_last_arrival") {
      ++stragglerMarks;
    }
  }

  // One chain per record per node: 3 writers + 3 sorted readers.
  EXPECT_EQ(recordChains, 6);
  // Collectives emit one causal edge per receiver, terminated on the
  // receiver's own track, plus a straggler instant on the blamed node.
  EXPECT_GT(collEdges, 0);
  EXPECT_EQ(collEdges, collEdgeEnds);
  EXPECT_GT(stragglerMarks, 0);
  // Ids are issued once, and every chain reaches a terminator.
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow id " << id << " started " << n << " times";
    EXPECT_TRUE(ends.count(id) != 0) << "unterminated flow chain " << id;
  }

  // Metrics agree: each costed collective blames exactly one straggler,
  // and the skew histogram saw every one of them.
  const auto snap = reg.snapshot();
  std::uint64_t stragglerOps = 0;
  for (const auto& node : snap.perNode) {
    stragglerOps += node.counter(obs::Counter::RtCollStragglerOps);
  }
  EXPECT_GT(stragglerOps, 0u);
  EXPECT_LE(stragglerOps, snap.perNode[0].counter(obs::Counter::RtCollectives));
  std::uint64_t skewSamples = 0;
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    skewSamples += snap.merged
        .hists[static_cast<size_t>(obs::Hist::RtCollSkew)][static_cast<size_t>(b)];
  }
  EXPECT_EQ(skewSamples, 3 * stragglerOps)
      << "every costed collective must record a skew sample on each node";
}

TEST_F(TraceGolden, WallTimeAsyncTraceIsCleanAndLeavesBytesIdentical) {
  ds::StreamOptions async;
  async.aioQueueDepth = 2;
  async.aioPrefetchDepth = 2;

  obs::MetricsRegistry reg(3);
  obs::TraceSession trace(3);
  obs::Observer observer;
  observer.metrics = &reg;
  observer.trace = &trace;
  observer.timeMode = obs::Observer::TimeMode::Wall;
  const std::string observed = roundtrip(dir_ / "wall", &observer, async);
  const std::string plain = roundtrip(dir_ / "wallplain", nullptr, async);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(observed, plain)
      << "wall-time tracing with aio enabled altered the stream file";

  const std::string json = trace.toJson();
  EXPECT_TRUE(test::JsonChecker::valid(json)) << json;
  const std::vector<Ev> events = parseEvents(json);
  ASSERT_FALSE(events.empty());

  // Wall timestamps must be monotone per track with matched B/E nesting;
  // the modeled aio flusher/prefetch spans (virtual-timeline artifacts)
  // must not appear in a wall-time trace.
  std::map<int, std::vector<std::string>> stack;
  std::map<int, double> lastTs;
  for (const Ev& e : events) {
    EXPECT_GE(e.tid, 0);
    EXPECT_LT(e.tid, 3) << "wall-time trace wrote to a modeled aux track";
    if (lastTs.count(e.tid) != 0) {
      EXPECT_GE(e.ts, lastTs[e.tid])
          << e.name << " went backwards on tid " << e.tid;
    }
    lastTs[e.tid] = e.ts;
    if (e.phase == 'B') {
      stack[e.tid].push_back(e.name);
    } else if (e.phase == 'E') {
      ASSERT_FALSE(stack[e.tid].empty()) << "E without B: " << e.name;
      EXPECT_EQ(stack[e.tid].back(), e.name) << "mismatched span nesting";
      stack[e.tid].pop_back();
    }
  }
  for (const auto& [tid, open] : stack) {
    EXPECT_TRUE(open.empty())
        << open.size() << " unclosed span(s) on tid " << tid;
  }
  EXPECT_EQ(json.find("\"aio.flush\""), std::string::npos);
  EXPECT_EQ(json.find("\"aio.prefetch\""), std::string::npos);
}

TEST_F(TraceGolden, WriteJsonIsAtomicAndLeavesNoTempFile) {
  obs::TraceSession trace(1);
  trace.begin(0, "x", 0.0);
  trace.end(0, "x", 1e-3);
  const std::filesystem::path path = dir_ / "atomic.json";
  // Pre-existing content must be replaced wholesale, never appended to or
  // left truncated.
  {
    std::ofstream out(path);
    out << "{\"stale\": true}";
  }
  trace.writeJson(path.string());
  EXPECT_FALSE(std::filesystem::exists(dir_ / "atomic.json.tmp"))
      << "temp file left behind after rename";
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(test::JsonChecker::valid(ss.str())) << ss.str();
  EXPECT_EQ(ss.str().find("stale"), std::string::npos);
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
}

TEST_F(TraceGolden, WriteJsonProducesLoadableFile) {
  obs::TraceSession trace(2);
  trace.begin(0, "x", 0.0);
  trace.end(0, "x", 1e-3);
  trace.counter(1, "bytes", 42.0, 5e-4);
  trace.instant(1, "mark", 6e-4);
  const std::string path = (dir_ / "t.json").string();
  trace.writeJson(path);
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(test::JsonChecker::valid(ss.str())) << ss.str();
  EXPECT_NE(ss.str().find("\"value\": 42.000"), std::string::npos);
}

// A node's rt.coll span covers its wait at the rendezvous: in wall time it
// begins when the node arrives, not when the last peer releases it.
TEST_F(TraceGolden, WallTimeCollSpanCoversTheWaitForALatePeer) {
  obs::TraceSession trace(2);
  obs::Observer observer;
  observer.trace = &trace;
  observer.timeMode = obs::Observer::TimeMode::Wall;
  rt::Machine m(2);
  m.attachObserver(observer);
  m.run([](rt::Node& node) {
    if (node.id() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    node.barrier();
  });
  m.detachObserver();

  double longest = -1.0;  // microseconds
  double begin = 0.0;
  for (const Ev& e : parseEvents(trace.toJson())) {
    if (e.tid != 0 || e.name != "rt.coll") continue;
    if (e.phase == 'B') begin = e.ts;
    if (e.phase == 'E') longest = std::max(longest, e.ts - begin);
  }
  EXPECT_GE(longest, 4000.0) << "node 0's wait is missing from its rt.coll";
}

#endif  // PCXX_OBS_ENABLED

TEST_F(TraceGolden, ObserverDoesNotChangeStreamFileBytes) {
  std::filesystem::create_directories(dir_ / "obs");
  std::filesystem::create_directories(dir_ / "plain");
  obs::MetricsRegistry reg(3);
  obs::TraceSession trace(3);
  obs::Observer observer;
  observer.metrics = &reg;
  observer.trace = &trace;
  const std::string observed = roundtrip(dir_ / "obs", &observer);
  const std::string plain = roundtrip(dir_ / "plain", nullptr);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(observed, plain)
      << "attaching an observer altered the stream file";
}

}  // namespace
