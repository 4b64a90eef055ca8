// Shared --metrics-json support for the ablation/micro benches, which drive
// rt::Machine directly rather than through the SCF harness. One MetricsDump
// collects a labeled obs snapshot per machine run and writes them all as a
// single JSON document. With an empty path every call is a no-op, so benches
// thread one instance through unconditionally.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/runtime/machine.h"
#include "src/util/json.h"

namespace pcxx::benchutil {

class MetricsDump {
 public:
  explicit MetricsDump(std::string path) : path_(std::move(path)) {}
  bool enabled() const { return !path_.empty(); }

  /// Attach a fresh registry to `machine`; call before machine.run() and
  /// pair with capture() after the run completes.
  void attach(rt::Machine& machine) {
    if (!enabled()) return;
    registry_ = std::make_unique<obs::MetricsRegistry>(machine.nprocs());
    obs::Observer observer;
    observer.metrics = registry_.get();
    observer.timeMode = obs::Observer::TimeMode::Virtual;
    machine.attachObserver(observer);
  }

  /// Snapshot the registry from the last attach() under `label`.
  void capture(const std::string& label) {
    if (registry_ == nullptr) return;
    add(label, registry_->snapshot());
    registry_.reset();
  }

  /// Record a snapshot the bench took from its own registry.
  void add(std::string label, obs::MetricsSnapshot snapshot) {
    if (enabled()) runs_.emplace_back(std::move(label), std::move(snapshot));
  }

  void write() const {
    if (!enabled()) return;
    json::Writer w;
    w.beginObject().member("schema", "pcxx-bench-metrics-v1").key("runs")
        .beginArray();
    for (const auto& [label, snapshot] : runs_) {
      w.beginObject().member("label", label).key("metrics");
      obs::writeSnapshot(w, snapshot);
      w.endObject();
    }
    w.endArray().endObject();
    json::writeFile(path_, w.str());
  }

 private:
  std::string path_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> runs_;
};

}  // namespace pcxx::benchutil
