// Tests for the diagnostic engine: rendering, sorting, JSON output, and
// the shared position-formatting helpers.
#include <gtest/gtest.h>

#include "src/dslint/analyzer.h"
#include "src/dslint/diagnostics.h"
#include "src/util/srcpos.h"

namespace {

using pcxx::dslint::AnalyzerOptions;
using pcxx::dslint::DiagnosticEngine;
using pcxx::dslint::Severity;

TEST(SrcPosTest, LocStringOmitsMissingParts) {
  EXPECT_EQ(pcxx::locString("t.h", 3, 7), "t.h:3:7");
  EXPECT_EQ(pcxx::locString("t.h", 3, 0), "t.h:3");
  EXPECT_EQ(pcxx::locString("", 0, 0), "<source>");
}

TEST(SrcPosTest, FormatDiagnosticIsGccStyle) {
  EXPECT_EQ(pcxx::formatDiagnostic("t.h", 3, 7, "error", "bad token"),
            "t.h:3:7: error: bad token");
}

TEST(DiagnosticsTest, RenderIncludesIdTag) {
  DiagnosticEngine d;
  d.error("DS104", "a.cpp", 9, 3, "double close of d/stream 'out'");
  EXPECT_EQ(d.all()[0].render(),
            "a.cpp:9:3: error: double close of d/stream 'out' [DS104]");
}

TEST(DiagnosticsTest, SortOrdersByFileLineColId) {
  DiagnosticEngine d;
  d.error("DS105", "b.cpp", 2, 1, "m");
  d.error("DS104", "a.cpp", 9, 3, "m");
  d.error("DS102", "a.cpp", 4, 1, "m");
  d.sort();
  EXPECT_EQ(d.all()[0].id, "DS102");
  EXPECT_EQ(d.all()[1].id, "DS104");
  EXPECT_EQ(d.all()[2].id, "DS105");
}

TEST(DiagnosticsTest, JsonEscapesAndCounts) {
  DiagnosticEngine d;
  d.warning("DS107", "a\"b.cpp", 1, 2, "path with \"quotes\"\nand newline");
  const std::string json = d.renderJson();
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b.cpp"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos);
}

TEST(DiagnosticsTest, DuplicateAddsAreDroppedAtInsertion) {
  DiagnosticEngine d;
  d.error("DS104", "a.cpp", 9, 3, "double close");
  d.error("DS104", "a.cpp", 9, 3, "double close");
  d.error("DS104", "a.cpp", 9, 3, "same site, different wording");
  d.error("DS104", "a.cpp", 9, 4, "different column survives");
  d.error("DS105", "a.cpp", 9, 3, "different id survives");
  EXPECT_EQ(d.count(), 3u);
}

TEST(DiagnosticsTest, RuleCatalogCoversEveryFamilySorted) {
  const auto& rules = pcxx::dslint::ruleCatalog();
  ASSERT_GE(rules.size(), 19u);
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(std::string(rules[i - 1].id), std::string(rules[i].id));
  }
  bool sawDs108 = false, sawDs501 = false;
  for (const auto& r : rules) {
    if (std::string(r.id) == "DS108") sawDs108 = true;
    if (std::string(r.id) == "DS501") sawDs501 = true;
  }
  EXPECT_TRUE(sawDs108);
  EXPECT_TRUE(sawDs501);
}

TEST(DiagnosticsTest, SarifCarriesRulesResultsAndRegions) {
  DiagnosticEngine d;
  d.error("DS104", "src/a.cpp", 9, 3, "double close of d/stream \"out\"");
  d.warning("DS107", "src/b.cpp", 2, 1, "never wrote");
  const std::string sarif = d.renderSarif();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"dslint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"DS104\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 9"), std::string::npos);
  EXPECT_NE(sarif.find("\"startColumn\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("\\\"out\\\""), std::string::npos);  // escaping
  // Every catalogued rule appears in the driver's rule list.
  for (const auto& r : pcxx::dslint::ruleCatalog()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(r.id) + "\""),
              std::string::npos)
        << r.id;
  }
}

TEST(DiagnosticsTest, BaselineSuppressesBySuffixAndLine) {
  DiagnosticEngine d;
  d.error("DS104", "/repo/src/a.cpp", 9, 3, "m");
  d.error("DS104", "/repo/src/a.cpp", 12, 3, "m");
  d.error("DS105", "/repo/src/b.cpp", 9, 3, "m");
  const size_t removed = d.applyBaseline(
      "# known findings\n"
      "DS104 src/a.cpp:9\n"
      "DS105 other.cpp:9  # wrong file, keeps b.cpp finding\n");
  EXPECT_EQ(removed, 1u);
  ASSERT_EQ(d.count(), 2u);
  EXPECT_EQ(d.all()[0].line, 12);
  EXPECT_EQ(d.all()[1].id, "DS105");
}

TEST(DiagnosticsTest, BaselineDoesNotMatchPartialPathComponents) {
  DiagnosticEngine d;
  d.error("DS104", "/repo/src/xa.cpp", 9, 3, "m");
  EXPECT_EQ(d.applyBaseline("DS104 a.cpp:9\n"), 0u);
  EXPECT_EQ(d.count(), 1u);
}

TEST(AnalyzerTest, UnlexableSourceYieldsDs001NotAThrow) {
  DiagnosticEngine d;
  pcxx::dslint::analyzeSource("const char* s = \"open\n", "t.cpp",
                              AnalyzerOptions{}, d);
  ASSERT_EQ(d.count(), 1u);
  EXPECT_EQ(d.all()[0].id, "DS001");
}

TEST(AnalyzerTest, AllTypesFlagsPointerInPlainStruct) {
  const std::string src = R"(
    struct Blob {
      int n;
      char* bytes;
    };
  )";
  DiagnosticEngine quiet;
  pcxx::dslint::analyzeSource(src, "t.h", AnalyzerOptions{}, quiet);
  EXPECT_TRUE(quiet.empty());  // no stream functions in sight: default off

  DiagnosticEngine loud;
  AnalyzerOptions all;
  all.allTypes = true;
  pcxx::dslint::analyzeSource(src, "t.h", all, loud);
  ASSERT_EQ(loud.count(), 1u);
  EXPECT_EQ(loud.all()[0].id, "DS301");
  EXPECT_EQ(loud.all()[0].line, 4);
}

TEST(AnalyzerTest, AnnotatedPointersAreClean) {
  DiagnosticEngine d;
  pcxx::dslint::analyzeSource(R"(
    struct Blob {
      int n;
      char* bytes;   // pcxx:size(n)
      void* handle;  // pcxx:skip
    };
  )", "t.h", AnalyzerOptions{.allTypes = true}, d);
  EXPECT_TRUE(d.empty());
}

}  // namespace
