// The three I/O implementations compared in the paper's benchmark (§4.3):
//
//   * UnbufferedIo      — "using operating system I/O primitives directly
//                          with no buffering": one positional request per
//                          field per segment (8 requests per segment each
//                          way).
//   * ManualBufferingIo — the application packs all local segments into one
//                          buffer and issues a single node-order parallel
//                          write; no element size or distribution
//                          information is stored (the reader must already
//                          know the segment geometry).
//   * StreamsIo         — pC++/streams: OStream/IStream with the automatic
//                          bookkeeping of size + distribution information.
//
// All three implement output of a Collection<Segment> followed by input,
// which is exactly the benchmark's measured operation.
#pragma once

#include <memory>
#include <string>

#include "collection/collection.h"
#include "pfs/parallel_file.h"
#include "scf/segment.h"

namespace pcxx::scf {

/// One I/O implementation under benchmark.
class IoMethod {
 public:
  virtual ~IoMethod() = default;
  virtual std::string name() const = 0;

  /// Write all segments to `file` (collective).
  virtual void output(rt::Node& node, pfs::Pfs& fs,
                      coll::Collection<Segment>& segments,
                      const std::string& file) = 0;

  /// Read all segments back from `file` (collective). Implementations may
  /// rely on `particlesPerSegment` being uniform — the paper's manual
  /// baseline does exactly that ("element sizes can be computed").
  virtual void input(rt::Node& node, pfs::Pfs& fs,
                     coll::Collection<Segment>& segments,
                     const std::string& file, int particlesPerSegment) = 0;
};

std::unique_ptr<IoMethod> makeUnbufferedIo();
std::unique_ptr<IoMethod> makeManualBufferingIo();
/// `sorted` selects read() instead of the paper's unsortedRead() input path.
std::unique_ptr<IoMethod> makeStreamsIo(bool sorted = false);
/// pC++/streams with the pcxx::aio overlap pipeline: write-behind flushing
/// on output (queueDepth buffers in flight per node) and read-ahead
/// prefetch on input (prefetchDepth records). Produces byte-identical
/// files; only the modeled overlap differs. Depths of 0 take the
/// synchronous path.
std::unique_ptr<IoMethod> makeStreamsAsyncIo(bool sorted = false,
                                             int queueDepth = 4,
                                             int prefetchDepth = 2);

}  // namespace pcxx::scf
