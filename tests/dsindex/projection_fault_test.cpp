// Faults inside a projected read's windowed fetch: a short completion on a
// window resumes through the RetryPolicy and delivers the same values; with
// no retries it surfaces as a typed IoError, never as a partially gathered
// record. The reader runs on one node, so the op indices of its windows are
// deterministic and a FaultPlan `short@N:K` clause can target one exactly.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/pfs/fault_plan.h"
#include "tests/common/test_helpers.h"

/// 40 KiB of unprojected bytes per element: neighbours merge into windows,
/// and 64 elements fill several of them.
struct Pad {
  double words[5120];
};
PCXX_STREAM_TRIVIAL(Pad);

namespace {

using namespace pcxx;

struct Elem {
  double tag = 0.0;
  Pad pad{};
};

constexpr std::int64_t kElements = 64;

/// Two writer nodes, so the one-node reader also redistributes.
void writeElems(pfs::Pfs& fs) {
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    coll::Collection<Elem> cells(&d);
    cells.forEachLocal([](Elem& e, std::int64_t i) {
      e.tag = 0.5 * static_cast<double>(i) + 3.0;
    });
    ds::OStream s(fs, &d, "win.ds");
    s << cells.field(&Elem::tag) << cells.field(&Elem::pad);
    s.write();
  });
}

struct Window {
  std::uint64_t op = 0;     ///< op index relative to the start of read()
  std::uint64_t bytes = 0;
};

/// One projected read of the tags on a one-node machine. `before` sees the
/// op counter just before read(); the windows it issued are returned
/// through `windows` when non-null.
std::vector<double> readTags(
    pfs::Pfs& fs, const std::function<void(std::uint64_t)>& before,
    std::vector<Window>* windows = nullptr) {
  std::vector<double> tags;
  rt::Machine m(1);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    coll::Collection<Elem> got(&d);
    ds::IStream is(fs, &d, "win.ds");
    is.project({0});
    const std::uint64_t start = fs.opCount();
    before(start);
    pfs::OpRecorder rec;
    if (windows != nullptr) fs.setFaultHook(rec.hook());
    is.read();
    fs.setFaultHook(nullptr);
    for (const auto& op : rec.ops()) {
      // Windows are the only reads larger than one element.
      if (op.kind == pfs::OpKind::Read && op.bytes > sizeof(Elem)) {
        windows->push_back({op.opIndex - start, op.bytes});
      }
    }
    is >> got.field(&Elem::tag);
    got.forEachLocal([&](Elem& e, std::int64_t) { tags.push_back(e.tag); });
  });
  return tags;
}

std::string shortSpec(std::uint64_t op, std::uint64_t bytes) {
  std::string spec = "read:short@";
  spec.append(std::to_string(op)).append(":").append(std::to_string(bytes));
  return spec;
}

TEST(ProjectionFault, ShortWindowResumesThroughRetryPolicy) {
  pfs::Pfs fs = test::memFs();
  writeElems(fs);
  std::vector<Window> windows;
  const std::vector<double> clean =
      readTags(fs, [](std::uint64_t) {}, &windows);
  ASSERT_EQ(clean.size(), static_cast<size_t>(kElements));
  for (std::int64_t i = 0; i < kElements; ++i) {
    EXPECT_EQ(clean[static_cast<size_t>(i)],
              0.5 * static_cast<double>(i) + 3.0);
  }
  ASSERT_GE(windows.size(), 2u);

  pfs::RetryPolicy rp;
  rp.maxAttempts = 3;
  rp.backoffBase = 1e-6;
  fs.setRetryPolicy(rp);
  const Window& w = windows[1];
  std::unique_ptr<pfs::FaultPlan> plan;
  const std::vector<double> retried = readTags(fs, [&](std::uint64_t start) {
    plan = std::make_unique<pfs::FaultPlan>(
        pfs::FaultPlan::parse(shortSpec(start + w.op, w.bytes / 3)));
    fs.setFaultHook(plan->hook());
  });
  EXPECT_EQ(plan->firedCount(), 1u);
  EXPECT_EQ(retried, clean);
}

TEST(ProjectionFault, ShortWindowWithoutRetryIsATypedIoError) {
  pfs::Pfs fs = test::memFs();
  writeElems(fs);
  std::vector<Window> windows;
  readTags(fs, [](std::uint64_t) {}, &windows);
  ASSERT_GE(windows.size(), 2u);

  const Window& w = windows.back();
  std::unique_ptr<pfs::FaultPlan> plan;
  std::vector<double> partial;
  try {
    partial = readTags(fs, [&](std::uint64_t start) {
      plan = std::make_unique<pfs::FaultPlan>(
          pfs::FaultPlan::parse(shortSpec(start + w.op, w.bytes / 2)));
      fs.setFaultHook(plan->hook());
    });
    ADD_FAILURE() << "a short window read delivered a record";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("short read"), std::string::npos)
        << e.what();
  }
  fs.setFaultHook(nullptr);
  EXPECT_EQ(plan->firedCount(), 1u);
  EXPECT_TRUE(partial.empty());
}

}  // namespace
