// dslint — static protocol & symmetry analyzer for d/stream client code.
//
//   dslint [--format=text|json|sarif] [--baseline FILE] [--strict]
//          [--all-types] file.cpp [file2.cpp ...]
//
// Generated .json artifacts (obs traces, --metrics-json reports, perf-gate
// baselines) and .sarif reports are skipped, so globbing a directory that
// benches or the lint targets have written into does not produce bogus
// diagnostics or I/O errors.
//
// --baseline FILE suppresses known findings ("DSxxx path:line" per line,
// '#' comments); --strict adds DS109 notes where a stream escapes to
// unanalyzed code.
//
// Exit status: 0 when every file is clean (after baseline suppression),
// 1 when diagnostics were reported, 2 on usage or I/O errors.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "dslint/analyzer.h"
#include "util/error.h"
#include "util/options.h"

int main(int argc, char** argv) {
  using namespace pcxx;

  Options opts("dslint",
               "Static analyzer for d/stream client code: protocol (DS1xx), "
               "inserter/extractor symmetry (DS2xx), pointer annotations "
               "(DS301), interleave layout (DS4xx), and collective "
               "divergence (DS5xx) checks.");
  opts.add("format", "text", "output format: text, json, or sarif");
  opts.add("baseline", "",
           "suppress diagnostics listed in FILE (one 'DSxxx path:line' "
           "entry per line, '#' comments)");
  opts.addFlag("strict",
               "emit DS109 notes where a d/stream escapes to unanalyzed "
               "code and tracking is dropped");
  opts.addFlag("all-types",
               "report unannotated pointer fields in every struct, not just "
               "types with visible stream functions");

  try {
    if (!opts.parse(argc, argv)) return 0;
  } catch (const UsageError& e) {
    std::cerr << "dslint: " << e.what() << "\n";
    return 2;
  }
  if (opts.positional().empty()) {
    std::cerr << "dslint: no input files\n" << opts.usage();
    return 2;
  }

  const std::string format = opts.get("format");
  if (format != "text" && format != "json" && format != "sarif") {
    std::cerr << "dslint: unknown --format '" << format
              << "' (expected text, json, or sarif)\n";
    return 2;
  }

  std::string baselineText;
  if (!opts.get("baseline").empty()) {
    std::ifstream in(opts.get("baseline"), std::ios::binary);
    if (!in) {
      std::cerr << "dslint: cannot open baseline file '"
                << opts.get("baseline") << "'\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    baselineText = buf.str();
  }

  dslint::AnalyzerOptions analyzerOpts;
  analyzerOpts.allTypes = opts.getFlag("all-types");
  analyzerOpts.strict = opts.getFlag("strict");

  auto isJsonArtifact = [](const std::string& path) {
    const auto endsWith = [&path](const char* suffix) {
      const std::string s(suffix);
      return path.size() >= s.size() &&
             path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    return endsWith(".json") || endsWith(".sarif");
  };

  dslint::DiagnosticEngine diags;
  bool ioError = false;
  bool analyzedAny = false;
  for (const std::string& path : opts.positional()) {
    if (isJsonArtifact(path)) continue;  // generated trace/metrics output
    analyzedAny = true;
    if (!dslint::analyzeFile(path, analyzerOpts, diags)) ioError = true;
  }
  if (!analyzedAny) {
    std::cerr << "dslint: no source files among the inputs "
                 "(.json and .sarif artifacts are skipped)\n";
    return 2;
  }
  if (!baselineText.empty()) diags.applyBaseline(baselineText);
  diags.sort();

  if (format == "json") {
    std::cout << diags.renderJson();
  } else if (format == "sarif") {
    std::cout << diags.renderSarif();
  } else {
    std::cout << diags.renderText();
  }
  if (ioError) return 2;
  return diags.empty() ? 0 : 1;
}
