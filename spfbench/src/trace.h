// In-memory span recorder of the traced run.
//
// A span has a name, start, end, parent span and request id. Spans are
// recorded by the benchmark around its own calls into the engine's
// public functions (nothing inside the engine is instrumented). Each
// thread appends to its own buffer; buffers are merged and written out
// when the run ends. A disabled tracer (nullptr) costs one branch per
// span.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace spfbench {

struct SpanRecord {
  uint64_t id = 0;      ///< unique within the run (thread slot << 40 | index)
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t request = 0; ///< shared by every span of one request
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of one span name, aggregated over the run.
struct SelfTime {
  uint64_t count = 0;
  int64_t self_ns = 0;
  int64_t total_ns = 0;
};

class Tracer {
 public:
  /// Per-thread span buffer; obtain one per thread with NewBuffer().
  class Buffer {
   public:
    uint64_t Begin(const char* name, uint64_t parent, uint64_t request) {
      SpanRecord r;
      r.id = (slot_ << 40) | (spans_.size() + 1);
      r.parent = parent;
      r.request = request;
      r.name = name;
      r.start_ns = NowNs();
      spans_.push_back(r);
      return r.id;
    }
    void End(uint64_t id) {
      spans_[(id & ((uint64_t{1} << 40) - 1)) - 1].end_ns = NowNs();
    }

   private:
    friend class Tracer;
    explicit Buffer(uint64_t slot) : slot_(slot) {}
    uint64_t slot_;
    std::vector<SpanRecord> spans_;
  };

  Buffer* NewBuffer();

  /// Self time per span name: a span's duration minus the part of it its
  /// children cover. `mismatched` counts requests whose self times do not
  /// add up to the root span's duration, or whose children escape their
  /// parent's interval (a recording bug).
  std::map<std::string, SelfTime> SelfTimes(uint64_t* requests,
                                            uint64_t* mismatched) const;

  /// Durations (ns) of every span with this name.
  std::vector<int64_t> Durations(const std::string& name) const;

  uint64_t span_count() const;

  /// Writes every span as one tab-separated line:
  /// id parent request name start_ns end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a null buffer makes it a no-op.
class Span {
 public:
  Span(Tracer::Buffer* buf, const char* name, uint64_t parent, uint64_t request)
      : buf_(buf), id_(buf ? buf->Begin(name, parent, request) : 0) {}
  ~Span() {
    if (buf_) buf_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer::Buffer* buf_;
  uint64_t id_;
};

}  // namespace spfbench
