#include "obs/obs.h"

#include "util/json.h"
#include "util/strfmt.h"

namespace pcxx::obs {

TraceSession::TraceSession(int nnodes)
    : nnodes_(nnodes > 0 ? nnodes : 0),
      perNode_(static_cast<size_t>(3 * (nnodes > 0 ? nnodes : 0))) {}

std::size_t TraceSession::eventCount() const {
  std::size_t n = 0;
  for (const auto& v : perNode_) n += v.size();
  return n;
}

std::string TraceSession::toJson() const {
  json::Writer w;
  w.beginObject().key("traceEvents").beginArray();
  // Metadata: name each tid track. The first nnodes_ tracks are the node
  // threads; the aux flusher/prefetch tracks only appear when they carry
  // events so synchronous runs keep the exact pre-aio trace layout.
  const size_t n = static_cast<size_t>(nnodes_);
  for (size_t track = 0; track < perNode_.size(); ++track) {
    if (track >= n && perNode_[track].empty()) continue;
    std::string name = track < n       ? "node "
                       : track < 2 * n ? "aio flusher "
                                       : "aio prefetch ";
    name += std::to_string(track % n);
    w.beginObject().member("name", "thread_name").member("ph", "M")
        .member("pid", 0).member("tid", track).key("args").beginObject()
        .member("name", name).endObject().endObject();
  }
  for (size_t node = 0; node < perNode_.size(); ++node) {
    for (const Event& e : perNode_[node]) {
      // Microsecond timestamps with three decimals, one event per line:
      // the layout Perfetto, pcxx-prof and the trace tests read.
      w.beginObject().member("name", e.name).member("cat", "pcxx")
          .member("ph", std::string_view(&e.phase, 1)).key("ts")
          .fixed3(e.tsSeconds * 1e6).member("pid", 0).member("tid", node);
      if (e.phase == 'C') {
        w.key("args").beginObject().key("value").fixed3(e.value).endObject();
      } else if (e.phase == 'i') {
        w.member("s", "t");
      } else if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
        // Flow events carry their correlation id, printed as a hex string:
        // ids above 2^62 (the p2p/collective id spaces) are not exactly
        // representable as JSON doubles, and a numeric id would silently
        // collide in double-based consumers. The terminator binds to the
        // enclosing slice ("bp":"e") so Perfetto draws the arrow into the
        // span that consumed the flow, not to a bare point.
        w.member("id", strfmt("0x%llx", static_cast<unsigned long long>(e.id)));
        if (e.phase == 'f') w.member("bp", "e");
      }
      w.endObject();
    }
  }
  w.endArray().member("displayTimeUnit", "ms").endObject();
  return w.str();
}

void TraceSession::writeJson(const std::string& path) const {
  json::writeFile(path, toJson());
}

}  // namespace pcxx::obs
