// End-to-end tests for the pcxx-prof CLI: feed it hand-built
// pcxx-metrics-v1 / pcxx-bench-metrics-v1 / Chrome-trace artifacts and
// check the critical-path decomposition, the straggler league ordering,
// the flow-chain accounting, and every exit-code contract (0 clean,
// 2 unrecognized input, 3 decomposition off by more than --max-off-pct).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tests/common/json_check.h"

#ifndef PCXX_PROF_PATH
#error "PCXX_PROF_PATH must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

std::pair<int, std::string> runTool(const std::string& args) {
  std::string outName = "pcxx_prof_";
  outName.append(std::to_string(::getpid())).append(".out");
  const fs::path outPath = fs::temp_directory_path() / outName;
  std::string cmd = PCXX_PROF_PATH;
  cmd.append(" ").append(args).append(" > ").append(outPath.string())
      .append(" 2>&1");
  const int rc = std::system(cmd.c_str());
  std::ifstream in(outPath);
  std::ostringstream ss;
  ss << in.rdbuf();
  fs::remove(outPath);
  return {WEXITSTATUS(rc), ss.str()};
}

class ProfCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pcxx_prof_fix_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream out(p);
    out << text;
    return p.string();
  }

  /// A one-cell pcxx-metrics-v1 report. Node 0 finishes last (total 2.0 s)
  /// and is therefore the critical path; its phases sum to `segmentSum`.
  std::string metricsReport(double segmentSum) {
    std::ostringstream ss;
    ss.precision(17);
    ss << R"({"schema": "pcxx-metrics-v1", "tables": [
      {"title": "tiny", "cells": [
        {"segments": 8, "bytes": 4096, "methods": [
          {"method": "pC++/streams", "total_seconds": 2.0,
           "per_node": [
             {"node": 0, "total_seconds": 2.0, "sync_wait_seconds": 0.25,
              "straggler_ops": 3, "collectives": 4,
              "aio_stall_seconds": 0.0, "aio_drain_seconds": 0.0,
              "phases": {"header": 0.5, "pfs_write": )"
       << segmentSum - 0.5 << R"(}},
             {"node": 1, "total_seconds": 1.5, "sync_wait_seconds": 0.75,
              "straggler_ops": 1, "collectives": 4,
              "aio_stall_seconds": 0.1, "aio_drain_seconds": 0.0,
              "phases": {"header": 0.5, "pfs_write": 1.0}}
           ]}]}]}]})";
    return ss.str();
  }

  fs::path dir_;
};

TEST_F(ProfCli, CleanDecompositionPassesAndRanksStragglers) {
  const std::string report = write("report.json", metricsReport(2.0));
  const auto [rc, out] = runTool("--format=json " + report);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_TRUE(pcxx::test::JsonChecker::valid(out)) << out;
  EXPECT_NE(out.find("\"pcxx-prof-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"critical_node\": 0"), std::string::npos);
  EXPECT_NE(out.find("\"violation\": false"), std::string::npos);
  EXPECT_NE(out.find("\"violations\": 0"), std::string::npos);
  // League order: node 0 first (3 straggler ops beat node 1's one).
  const size_t n0 = out.find("{\"node\": 0");
  const size_t n1 = out.find("{\"node\": 1");
  ASSERT_NE(n0, std::string::npos);
  ASSERT_NE(n1, std::string::npos);
  EXPECT_LT(n0, n1) << "most-blamed straggler must lead the league";
}

TEST_F(ProfCli, BrokenDecompositionFailsWithExit3) {
  // Segments sum to 2.2 s against a 2.0 s critical total: +10%, far past
  // the 1% default gate.
  const std::string report = write("broken.json", metricsReport(2.2));
  const auto [rc, out] = runTool("--format=json " + report);
  EXPECT_EQ(rc, 3) << out;
  EXPECT_NE(out.find("\"violation\": true"), std::string::npos);
  // A generous gate accepts the same report.
  const auto [rcLoose, outLoose] =
      runTool("--format=text --max-off-pct 25 " + report);
  EXPECT_EQ(rcLoose, 0) << outLoose;
}

TEST_F(ProfCli, TraceFlowAccountingCountsChainsAndStragglers) {
  // Two flow chains (hex-string ids): one terminated, one left open; one
  // rt.coll span with a causal edge and a straggler mark.
  const std::string trace = write("trace.json", R"({"traceEvents": [
    {"name": "proc", "ph": "M", "pid": 0},
    {"name": "ds.record", "ph": "s", "ts": 1, "pid": 0, "tid": 0,
     "cat": "flow", "id": "0x1"},
    {"name": "ds.record", "ph": "t", "ts": 2, "pid": 0, "tid": 1,
     "cat": "flow", "id": "0x1"},
    {"name": "ds.record", "ph": "f", "ts": 3, "pid": 0, "tid": 1,
     "cat": "flow", "id": "0x1", "bp": "e"},
    {"name": "ds.record", "ph": "s", "ts": 4, "pid": 0, "tid": 0,
     "cat": "flow", "id": "0x2"},
    {"name": "rt.coll", "ph": "B", "ts": 5, "pid": 0, "tid": 0},
    {"name": "rt.coll", "ph": "s", "ts": 6, "pid": 0, "tid": 0,
     "cat": "flow", "id": "0x8000000000000001"},
    {"name": "rt.coll_last_arrival", "ph": "i", "ts": 6, "pid": 0, "tid": 0},
    {"name": "rt.coll", "ph": "E", "ts": 7, "pid": 0, "tid": 0},
    {"name": "rt.coll", "ph": "f", "ts": 8, "pid": 0, "tid": 1,
     "cat": "flow", "id": "0x8000000000000001", "bp": "e"}
  ]})");
  const auto [rc, out] = runTool("--format=json " + trace);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("\"flow_chains\": 3"), std::string::npos) << out;
  EXPECT_NE(out.find("\"flow_starts\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"flow_steps\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"flow_ends\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"unterminated_chains\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"coll_spans\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"coll_edges\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"straggler_marks\": 1"), std::string::npos);
}

TEST_F(ProfCli, BenchMetricsLeagueFromPerNodeSnapshots) {
  const std::string bench = write("bench.json", R"({
    "schema": "pcxx-bench-metrics-v1", "runs": [
      {"label": "plan", "metrics": {"per_node": [
        {"counters": {"rt.coll_straggler_ops": 1, "rt.collectives": 6},
         "seconds": {"rt.sync_wait_seconds": 0.9,
                     "aio.stall_seconds": 0.0, "aio.drain_seconds": 0.0}},
        {"counters": {"rt.coll_straggler_ops": 5, "rt.collectives": 6},
         "seconds": {"rt.sync_wait_seconds": 0.1,
                     "aio.stall_seconds": 0.2, "aio.drain_seconds": 0.0}}
      ]}}]})");
  const auto [rc, out] = runTool("--format=json " + bench);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("\"label\": \"plan\""), std::string::npos);
  const size_t n1 = out.find("{\"node\": 1");
  const size_t n0 = out.find("{\"node\": 0");
  ASSERT_NE(n0, std::string::npos);
  ASSERT_NE(n1, std::string::npos);
  EXPECT_LT(n1, n0) << "node 1 (5 straggler ops) must lead the league";
}

TEST_F(ProfCli, MixedArtifactsInOneInvocation) {
  const std::string report = write("report.json", metricsReport(2.0));
  const std::string trace = write("trace.json",
                                  R"({"traceEvents": []})");
  const auto [rc, out] = runTool("--format=json " + report + " " + trace);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("\"cells\""), std::string::npos);
  EXPECT_NE(out.find("\"traces\""), std::string::npos);
}

TEST_F(ProfCli, RejectsForeignAndMalformedInputs) {
  const std::string foreign = write("foreign.json", R"({"hello": "world"})");
  EXPECT_EQ(runTool(foreign).first, 2);
  const std::string broken = write("broken.txt", "not json at all");
  EXPECT_EQ(runTool(broken).first, 2);
  const std::string missing = (dir_ / "does_not_exist.json").string();
  EXPECT_EQ(runTool(missing).first, 2);
  EXPECT_EQ(runTool("").first, 2);  // no inputs → usage error
  EXPECT_EQ(runTool("--format=yaml " + foreign).first, 2);
}

TEST_F(ProfCli, ControlCharactersInAPathStayValidJson) {
  const std::string trace = write("a\tb.json", R"({"traceEvents": []})");
  const auto [rc, out] = runTool("--format=json '" + trace + "'");
  EXPECT_EQ(rc, 0) << out;
  EXPECT_TRUE(pcxx::test::JsonChecker::valid(out)) << out;
  EXPECT_NE(out.find("a\\tb.json"), std::string::npos) << out;
}

TEST_F(ProfCli, DeepNestingIsAFormatErrorNotACrash) {
  const std::string deep = write("deep.json", std::string(200000, '['));
  const auto [rc, out] = runTool(deep);
  EXPECT_EQ(rc, 2) << out;
  EXPECT_NE(out.find("nesting deeper than"), std::string::npos) << out;
}

TEST_F(ProfCli, UnicodeEscapesInInputsAreDecoded) {
  const std::string bench = write("bench.json", R"({
    "schema": "pcxx-bench-metrics-v1", "runs": [
      {"label": "\u00e9t\u00e9 \ud83d\ude00", "metrics": {"per_node": []}}]})");
  const auto [rc, out] = runTool("--format=json " + bench);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("\"label\": \"\xc3\xa9t\xc3\xa9 \xf0\x9f\x98\x80\""),
            std::string::npos)
      << out;
}

// "node" and "segments" are integers: a value no int holds, or a fraction,
// is a format error (exit 2), never a wrapped number in the report.
TEST_F(ProfCli, NonIntegralNodeOrSegmentsIsAFormatError) {
  const auto report = [&](const std::string& segments,
                          const std::string& node) {
    return write("ints.json", R"({
      "schema": "pcxx-metrics-v1", "tables": [{"title": "t", "cells": [
        {"segments": )" + segments + R"(, "bytes": 1, "methods": [
          {"method": "m", "total_seconds": 1.0, "per_node": [
            {"node": )" + node + R"(, "total_seconds": 1.0,
             "phases": {"io": 1.0}}]}]}]}]})");
  };
  for (const auto& [segments, node] :
       std::vector<std::pair<std::string, std::string>>{
           {"1e300", "0"}, {"1", "1e300"}, {"1", "2.5"}, {"0.5", "0"},
           {"1", "-3000000000"}, {"1", "\"zero\""}}) {
    const auto [rc, out] = runTool("--format=json " + report(segments, node));
    EXPECT_EQ(rc, 2) << "segments " << segments << ", node " << node << ": "
                     << out;
    EXPECT_EQ(out.find("critical_node"), std::string::npos) << out;
    EXPECT_NE(out.find("is not an integer"), std::string::npos) << out;
  }
  const auto [rc, out] = runTool("--format=json " + report("12", "3"));
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("\"critical_node\": 3"), std::string::npos) << out;
  EXPECT_NE(out.find("\"segments\": 12"), std::string::npos) << out;
}

TEST_F(ProfCli, NonFiniteInputNumbersAreWrittenAsNull) {
  const std::string report = write("inf.json", R"({
    "schema": "pcxx-metrics-v1", "tables": [{"title": "t", "cells": [
      {"segments": 1, "bytes": 1, "methods": [
        {"method": "m", "total_seconds": 1e999, "per_node": []}]}]}]})");
  const auto [rc, out] = runTool("--format=json " + report);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_TRUE(pcxx::test::JsonChecker::valid(out)) << out;
  EXPECT_NE(out.find("\"total_seconds\": null"), std::string::npos) << out;
}

}  // namespace
