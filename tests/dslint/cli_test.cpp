// Golden-output tests for the dslint CLI over tests/dslint/fixtures/, plus
// the regression guarantee that this repository's own client code (the
// examples and the SCF harness) lints clean.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "tests/common/json_check.h"

#ifndef PCXX_DSLINT_PATH
#error "PCXX_DSLINT_PATH must be defined by the build"
#endif
#ifndef PCXX_REPO_ROOT
#error "PCXX_REPO_ROOT must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

const fs::path kFixtures =
    fs::path(PCXX_REPO_ROOT) / "tests" / "dslint" / "fixtures";

std::pair<int, std::string> runTool(const std::string& args) {
  std::string outName = "pcxx_dslint_";
  outName.append(std::to_string(::getpid())).append(".out");
  const fs::path outPath = fs::temp_directory_path() / outName;
  std::string cmd = PCXX_DSLINT_PATH;
  cmd.append(" ").append(args).append(" > ").append(outPath.string())
      .append(" 2>&1");
  const int rc = std::system(cmd.c_str());
  std::ifstream in(outPath);
  std::ostringstream ss;
  ss << in.rdbuf();
  fs::remove(outPath);
  return {WEXITSTATUS(rc), ss.str()};
}

/// Parse "path:line:col: sev: msg [DSxxx]" lines into (id, line) pairs.
std::multiset<std::pair<std::string, int>> parseDiags(const std::string& out) {
  std::multiset<std::pair<std::string, int>> got;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    const size_t open = line.rfind(" [DS");
    if (open == std::string::npos || line.back() != ']') continue;
    const std::string id = line.substr(open + 2, line.size() - open - 3);
    // Line number: second ':'-separated field.
    const size_t c1 = line.find(':');
    if (c1 == std::string::npos) continue;
    const size_t c2 = line.find(':', c1 + 1);
    if (c2 == std::string::npos) continue;
    got.emplace(id, std::atoi(line.substr(c1 + 1, c2 - c1 - 1).c_str()));
  }
  return got;
}

std::multiset<std::pair<std::string, int>> readExpected(const fs::path& path) {
  std::multiset<std::pair<std::string, int>> want;
  std::ifstream in(path);
  std::string id;
  int line = 0;
  while (in >> id >> line) want.emplace(id, line);
  return want;
}

std::string describe(const std::multiset<std::pair<std::string, int>>& set) {
  std::ostringstream ss;
  for (const auto& [id, line] : set) ss << id << ":" << line << " ";
  return ss.str();
}

TEST(DslintCli, EveryBadFixtureMatchesItsGolden) {
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(kFixtures)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 8 || name.substr(name.size() - 8) != "_bad.cpp") {
      continue;
    }
    const fs::path expected =
        entry.path().parent_path() /
        (name.substr(0, name.size() - 4) + ".expected");
    ASSERT_TRUE(fs::exists(expected)) << "missing golden for " << name;
    auto [rc, out] = runTool(entry.path().string());
    EXPECT_EQ(rc, 1) << name << ": " << out;
    EXPECT_EQ(parseDiags(out), readExpected(expected))
        << name << "\n got: " << describe(parseDiags(out))
        << "\nwant: " << describe(readExpected(expected)) << "\nraw:\n"
        << out;
    ++checked;
  }
  // One bad fixture per diagnostic ID (DS001, DS101..DS108, DS201..DS203,
  // DS301, DS401, DS402, DS501..DS503) plus the loop-carried regression.
  EXPECT_GE(checked, 19);
}

TEST(DslintCli, EveryGoodFixtureIsClean) {
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(kFixtures)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 9 || name.substr(name.size() - 9) != "_good.cpp") {
      continue;
    }
    auto [rc, out] = runTool(entry.path().string());
    EXPECT_EQ(rc, 0) << name << " should lint clean but printed:\n" << out;
    EXPECT_TRUE(out.empty()) << name << ":\n" << out;
    ++checked;
  }
  EXPECT_GE(checked, 19);
}

TEST(DslintCli, RepositoryClientCodeLintsClean) {
  // The examples and the SCF harness are the analyzer's false-positive
  // budget: every construct they use must stay diagnostic-free.
  std::string files;
  for (const char* dir : {"examples", "src/scf", "src/dstream",
                          "src/collection"}) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(PCXX_REPO_ROOT) / dir)) {
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".h") {
        files.append(" ").append(entry.path().string());
      }
    }
  }
  auto [rc, out] = runTool(files);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_TRUE(out.empty()) << out;
}

TEST(DslintCli, JsonModeEmitsMachineReadableOutput) {
  const std::string fixture = (kFixtures / "ds104_bad.cpp").string();
  auto [rc, out] = runTool("--format=json " + fixture);
  EXPECT_EQ(rc, 1);
  EXPECT_TRUE(pcxx::test::JsonChecker::valid(out)) << out;
  EXPECT_NE(out.find("\"id\": \"DS104\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"count\": 1"), std::string::npos) << out;
  // The document ends with exactly one newline.
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out.substr(out.size() - 2), "}\n") << out;
}

// The name dates from when dslint also took --json as an alias. The alias
// is gone: --format=json is the one spelling, and --json is an unknown
// option.
TEST(DslintCli, FormatJsonIsAnAliasForJsonFlag) {
  const std::string fixture = (kFixtures / "ds104_bad.cpp").string();
  auto [rc, out] = runTool("--format=json " + fixture);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.find("\"id\": \"DS104\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"count\": 1"), std::string::npos) << out;
  EXPECT_EQ(runTool("--json " + fixture).first, 2);
}

TEST(DslintCli, UnknownFormatExitsTwo) {
  auto [rc, out] =
      runTool("--format=xml " + (kFixtures / "ds104_bad.cpp").string());
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("unknown --format"), std::string::npos) << out;
}

TEST(DslintCli, SarifOutputIsValidJsonWithRulesAndRegions) {
  auto [rc, out] =
      runTool("--format=sarif " + (kFixtures / "ds104_bad.cpp").string());
  EXPECT_EQ(rc, 1);
  EXPECT_TRUE(pcxx::test::JsonChecker::valid(out)) << out;
  EXPECT_NE(out.find("\"version\": \"2.1.0\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\": \"dslint\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ruleId\": \"DS104\""), std::string::npos) << out;
  // ds104_bad.cpp's double close sits at line 9, column 7 (the method
  // name is the diagnostic anchor).
  EXPECT_NE(out.find("\"startLine\": 9"), std::string::npos) << out;
  EXPECT_NE(out.find("\"startColumn\": 7"), std::string::npos) << out;
}

TEST(DslintCli, SarifOnCleanInputHasEmptyResultsAndExitZero) {
  auto [rc, out] =
      runTool("--format=sarif " + (kFixtures / "ds104_good.cpp").string());
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(pcxx::test::JsonChecker::valid(out)) << out;
  EXPECT_NE(out.find("\"results\": []"), std::string::npos) << out;
}

TEST(DslintCli, BaselineSuppressesKnownFindings) {
  const fs::path baseline =
      fs::temp_directory_path() /
      ("pcxx_dslint_baseline_" + std::to_string(::getpid()) + ".txt");
  std::ofstream(baseline) << "# accepted legacy finding\n"
                          << "DS104 ds104_bad.cpp:9\n";
  auto [rc, out] = runTool("--baseline " + baseline.string() + " " +
                           (kFixtures / "ds104_bad.cpp").string());
  fs::remove(baseline);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_TRUE(out.empty()) << out;
}

TEST(DslintCli, MissingBaselineFileExitsTwo) {
  auto [rc, out] = runTool("--baseline /nonexistent/base.txt " +
                           (kFixtures / "ds104_bad.cpp").string());
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("baseline"), std::string::npos) << out;
}

TEST(DslintCli, StrictModeNotesEscapesOtherwiseSilent) {
  const std::string fixture = (kFixtures / "strict_escape.cpp").string();
  auto [rcPlain, outPlain] = runTool(fixture);
  EXPECT_EQ(rcPlain, 0) << outPlain;
  EXPECT_TRUE(outPlain.empty()) << outPlain;
  auto [rcStrict, outStrict] = runTool("--strict " + fixture);
  EXPECT_EQ(rcStrict, 1);
  EXPECT_NE(outStrict.find("[DS109]"), std::string::npos) << outStrict;
}

TEST(DslintCli, MultipleFilesAggregateAndSort) {
  auto [rc, out] = runTool((kFixtures / "ds104_bad.cpp").string() + " " +
                           (kFixtures / "ds101_bad.cpp").string());
  EXPECT_EQ(rc, 1);
  // Sorted by file: ds101 first even though given second.
  const size_t p101 = out.find("[DS101]");
  const size_t p104 = out.find("[DS104]");
  ASSERT_NE(p101, std::string::npos) << out;
  ASSERT_NE(p104, std::string::npos) << out;
  EXPECT_LT(p101, p104);
}

TEST(DslintCli, MissingFileExitsTwo) {
  auto [rc, out] = runTool("/nonexistent/no_such_file.cpp");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("DS001"), std::string::npos) << out;
}

TEST(DslintCli, NoInputsExitsTwoWithUsage) {
  auto [rc, out] = runTool("");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(out.find("no input files"), std::string::npos) << out;
}

TEST(DslintCli, SkipsGeneratedJsonArtifacts) {
  // Benches drop trace/metrics .json files next to their sources; a glob
  // that sweeps them up must not produce diagnostics or I/O errors.
  const fs::path dir =
      fs::temp_directory_path() / ("pcxx_dslint_json_" +
                                   std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path artifact = dir / "trace.json";
  std::ofstream(artifact) << "{\"traceEvents\": []}\n";
  // Alongside a clean fixture: the artifact is ignored, the source linted.
  auto [rc, out] = runTool(artifact.string() + " " +
                           (kFixtures / "ds101_good.cpp").string());
  EXPECT_EQ(rc, 0) << out;
  EXPECT_TRUE(out.empty()) << out;
  // Alone: nothing left to analyze is a usage error, not a crash.
  auto [rcAlone, outAlone] = runTool(artifact.string());
  EXPECT_EQ(rcAlone, 2);
  EXPECT_NE(outAlone.find("skipped"), std::string::npos) << outAlone;
  fs::remove_all(dir);
}

}  // namespace
