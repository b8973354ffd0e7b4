#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace spfbench {

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> g(mu_);
  buffers_.emplace_back(new Buffer(buffers_.size() + 1));
  return buffers_.back().get();
}

uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans_.size();
  return n;
}

std::vector<int64_t> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<int64_t> out;
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans_) {
      if (name == s.name) out.push_back(s.end_ns - s.start_ns);
    }
  }
  return out;
}

std::map<std::string, SelfTime> Tracer::SelfTimes(uint64_t* requests,
                                                  uint64_t* mismatched) const {
  std::lock_guard<std::mutex> g(mu_);
  std::map<std::string, SelfTime> out;
  *requests = 0;
  *mismatched = 0;
  // Spans of one request never leave their thread, so each buffer is
  // processed on its own: children follow their parent in the buffer.
  for (const auto& b : buffers_) {
    const std::vector<SpanRecord>& spans = b->spans_;
    std::unordered_map<uint64_t, size_t> index;
    index.reserve(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
    std::vector<int64_t> child_ns(spans.size(), 0);
    std::vector<int64_t> covered_end(spans.size(), INT64_MIN);
    std::vector<bool> bad(spans.size(), false);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.parent == 0) continue;
      auto it = index.find(s.parent);
      if (it == index.end()) {
        bad[i] = true;
        continue;
      }
      const SpanRecord& p = spans[it->second];
      // Children are recorded in start order and must nest inside their
      // parent without overlapping each other.
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns ||
          s.start_ns < covered_end[it->second] || s.request != p.request) {
        bad[it->second] = true;
      }
      covered_end[it->second] = s.end_ns;
      child_ns[it->second] += s.end_ns - s.start_ns;
    }
    // Roll self times up to each root: sum of self times of all spans of
    // the request must equal the root's duration.
    std::unordered_map<uint64_t, int64_t> self_sum;  // root index -> sum
    std::vector<size_t> root_of(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      int64_t self = (s.end_ns - s.start_ns) - child_ns[i];
      SelfTime& st = out[s.name];
      st.count++;
      st.self_ns += self;
      st.total_ns += s.end_ns - s.start_ns;
      if (s.parent == 0) {
        root_of[i] = i;
      } else {
        auto it = index.find(s.parent);
        root_of[i] = it == index.end() ? i : root_of[it->second];
        if (bad[i]) bad[root_of[i]] = true;
      }
      self_sum[root_of[i]] += self;
    }
    for (const auto& [root, sum] : self_sum) {
      const SpanRecord& r = spans[root];
      ++*requests;
      if (bad[root] || sum != r.end_ns - r.start_ns) ++*mismatched;
    }
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans_) {
      fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
              static_cast<unsigned long long>(s.id),
              static_cast<unsigned long long>(s.parent),
              static_cast<unsigned long long>(s.request), s.name,
              static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  return fclose(f) == 0;
}

}  // namespace spfbench
