#include "dslint/diagnostics.h"

#include <algorithm>
#include <sstream>

#include "util/json.h"

namespace pcxx::dslint {

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "error";
}

std::string Diagnostic::render() const {
  return formatDiagnostic(file, line, col, severityName(severity),
                          message + " [" + id + "]");
}

const std::vector<RuleInfo>& ruleCatalog() {
  static const std::vector<RuleInfo> kRules = {
      {"DS001", "analyzer could not read or parse the translation unit"},
      {"DS101", "read-mode call on an output stream or vice versa"},
      {"DS102", "write() with nothing inserted since the last write"},
      {"DS103", "extraction (>>) before read()/unsortedRead()"},
      {"DS104", "double close of a d/stream"},
      {"DS105", "use of a d/stream after close()"},
      {"DS106", "pending inserts discarded without a write"},
      {"DS107", "output d/stream never writes a record"},
      {"DS108", "call violates the d/stream protocol inside the helper"},
      {"DS109", "d/stream escapes to unanalyzed code (tracking dropped)"},
      {"DS201", "field order differs between inserter and extractor"},
      {"DS202", "field count differs between inserter and extractor"},
      {"DS203", "operation or size expression differs for the same field"},
      {"DS301", "unannotated pointer field in a streamed type"},
      {"DS401", "interleaved inserts of collections with differing layouts"},
      {"DS402", "collection layout differs from the stream's layout"},
      {"DS501", "collective executed by a node-dependent subset of nodes"},
      {"DS502", "node-dependent branches order collectives differently"},
      {"DS503", "collective inside a loop with node-dependent trip count"},
  };
  return kRules;
}

void DiagnosticEngine::add(std::string id, Severity sev, std::string file,
                           int line, int col, std::string message) {
  std::string key = id;
  key.append("|").append(file).append("|").append(std::to_string(line))
      .append("|").append(std::to_string(col));
  if (!seen_.insert(std::move(key)).second) return;
  diags_.push_back(Diagnostic{std::move(id), sev, std::move(file), line, col,
                              std::move(message)});
}

void DiagnosticEngine::sort() {
  std::stable_sort(diags_.begin(), diags_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     if (a.col != b.col) return a.col < b.col;
                     return a.id < b.id;
                   });
}

std::string DiagnosticEngine::renderText() const {
  std::string out;
  for (const Diagnostic& d : diags_) {
    out += d.render();
    out += '\n';
  }
  return out;
}

std::string DiagnosticEngine::renderJson() const {
  json::Writer w;
  w.beginObject().key("diagnostics").beginArray();
  for (const Diagnostic& d : diags_) {
    w.beginObject().member("file", d.file).member("line", d.line)
        .member("col", d.col).member("id", d.id)
        .member("severity", severityName(d.severity))
        .member("message", d.message).endObject();
  }
  w.endArray().member("count", diags_.size()).endObject();
  return w.str();
}

std::string DiagnosticEngine::renderSarif() const {
  json::Writer w;
  w.beginObject().member("version", "2.1.0")
      .member("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
      .key("runs").beginArray().beginObject();
  w.key("tool").beginObject().key("driver").beginObject()
      .member("name", "dslint").member("informationUri", "docs/DSLINT.md")
      .key("rules").beginArray();
  for (const RuleInfo& r : ruleCatalog()) {
    w.beginObject().member("id", r.id).key("shortDescription").beginObject()
        .member("text", r.shortDescription).endObject().endObject();
  }
  w.endArray().endObject().endObject().key("results").beginArray();
  for (const Diagnostic& d : diags_) {
    w.beginObject().member("ruleId", d.id)
        .member("level", severityName(d.severity))
        .key("message").beginObject().member("text", d.message).endObject()
        .key("locations").beginArray().beginObject()
        .key("physicalLocation").beginObject()
        .key("artifactLocation").beginObject().member("uri", d.file).endObject()
        .key("region").beginObject().member("startLine", d.line)
        .member("startColumn", d.col).endObject()
        .endObject().endObject().endArray().endObject();
  }
  w.endArray().endObject().endArray().endObject();
  return w.str();
}

size_t DiagnosticEngine::applyBaseline(const std::string& baselineText) {
  // Entries: "DSxxx path:line" (one per line; '#' starts a comment; the
  // path is matched as a suffix, so baselines survive checkout roots).
  struct Entry {
    std::string id, path;
    int line = 0;
  };
  std::vector<Entry> entries;
  std::istringstream in(baselineText);
  std::string lineText;
  while (std::getline(in, lineText)) {
    const size_t hash = lineText.find('#');
    if (hash != std::string::npos) lineText.resize(hash);
    std::istringstream ls(lineText);
    std::string id, loc;
    if (!(ls >> id >> loc)) continue;
    const size_t colon = loc.rfind(':');
    if (colon == std::string::npos) continue;
    Entry e;
    e.id = id;
    e.path = loc.substr(0, colon);
    e.line = std::atoi(loc.c_str() + colon + 1);
    entries.push_back(std::move(e));
  }
  const auto suppressed = [&](const Diagnostic& d) {
    for (const Entry& e : entries) {
      if (e.id != d.id || e.line != d.line) continue;
      if (d.file == e.path) return true;
      if (d.file.size() > e.path.size() &&
          d.file.compare(d.file.size() - e.path.size(), e.path.size(),
                         e.path) == 0 &&
          d.file[d.file.size() - e.path.size() - 1] == '/') {
        return true;
      }
    }
    return false;
  };
  const size_t before = diags_.size();
  diags_.erase(std::remove_if(diags_.begin(), diags_.end(), suppressed),
               diags_.end());
  return before - diags_.size();
}

}  // namespace pcxx::dslint
