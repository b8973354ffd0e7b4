// Shared helpers of the benchmark: clocks, percentiles, key/value
// encoding, the value oracle, the order-independent content digest, and
// the JSON writer for the result line.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace spfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Progress line on stderr, stamped with seconds since the first call.
inline void Progress(const std::string& what) {
  static const int64_t t0 = NowNs();
  fprintf(stderr, "[%8.3f] %s\n", (NowNs() - t0) / 1e9, what.c_str());
}

/// Mixes a seed with stream identifiers so every generator of a run gets
/// its own reproducible stream.
inline uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + a * 0xbf58476d1ce4e5b9ull +
               b * 0x94d049bb133111ebull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) rank -= 1;
  return static_cast<double>(v[std::min(rank, v.size() - 1)]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  if (v.empty()) return 0;
  std::vector<T> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 ? static_cast<double>(s[n / 2])
               : (static_cast<double>(s[n / 2 - 1]) + static_cast<double>(s[n / 2])) / 2;
}

template <typename T>
double Mean(const std::vector<T>& v) {
  double sum = 0;
  for (const T& x : v) sum += static_cast<double>(x);
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// --- keys and values ----------------------------------------------------------

constexpr size_t kValueBytes = 100;

inline std::string KeyOf(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%09llu", static_cast<unsigned long long>(i));
  return buf;
}

/// Parses "k%09u" back to its index; false for anything else.
inline bool KeyIndex(std::string_view key, uint64_t* out) {
  if (key.size() != 10 || key[0] != 'k') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *out = v;
  return true;
}

/// A value names its key, its writer and the writer's sequence number,
/// then pads to kValueBytes with bytes derived from all three, so any
/// torn, stale-for-another-key or scrambled value fails to re-encode.
/// Writer 0 / sequence 0 is the loaded value.
inline uint64_t PadState(uint64_t key, uint32_t writer, uint64_t seq) {
  return StreamSeed(key, writer, seq);
}
inline char PadChar(uint64_t* h) {
  char c = static_cast<char>('a' + (*h % 26));
  *h = *h * 6364136223846793005ull + 1442695040888963407ull;
  return c;
}

inline std::string MakeValue(uint64_t key, uint32_t writer, uint64_t seq) {
  std::string v = std::to_string(key) + ":" + std::to_string(writer) + ":" +
                  std::to_string(seq) + ":";
  uint64_t h = PadState(key, writer, seq);
  while (v.size() < kValueBytes) v.push_back(PadChar(&h));
  return v;
}

struct DecodedValue {
  uint64_t key = 0;
  uint32_t writer = 0;
  uint64_t seq = 0;
};

/// Decodes a value and checks that it is byte for byte what MakeValue
/// produces for the fields it names.
inline bool DecodeValue(std::string_view v, DecodedValue* out) {
  if (v.size() != kValueBytes) return false;
  uint64_t fields[3] = {0, 0, 0};
  size_t pos = 0;
  for (uint64_t& f : fields) {
    size_t start = pos;
    while (pos < v.size() && v[pos] >= '0' && v[pos] <= '9' && pos - start < 19) {
      f = f * 10 + static_cast<uint64_t>(v[pos++] - '0');
    }
    if (pos == start || pos >= v.size() || v[pos] != ':') return false;
    // Reject leading zeros, which MakeValue never writes.
    if (v[start] == '0' && pos - start > 1) return false;
    ++pos;
  }
  if (fields[1] > UINT32_MAX) return false;
  uint64_t h = PadState(fields[0], static_cast<uint32_t>(fields[1]), fields[2]);
  for (; pos < v.size(); ++pos) {
    if (v[pos] != PadChar(&h)) return false;
  }
  out->key = fields[0];
  out->writer = static_cast<uint32_t>(fields[1]);
  out->seq = fields[2];
  return true;
}

/// Every value the benchmark ever wrote, per writer, indexed by sequence
/// number: a read is correct only if it returns the loaded value or a
/// value some writer issued for that key. Writers append before sending
/// (so a concurrent reader can see the value as soon as it can exist);
/// readers on other threads synchronize through the published count.
class WriteLog {
 public:
  static constexpr uint32_t kMaxWriters = 256;

  /// Registers the next write of `writer` to `key`; returns its sequence
  /// number (starting at 1). One thread per writer id.
  uint64_t Record(uint32_t writer, uint64_t key) {
    Writer& w = writers_[writer];
    uint64_t seq = w.next++;
    size_t chunk = seq >> kChunkBits;
    if (chunk >= kMaxChunks) abort();
    if (!w.chunks[chunk]) w.chunks[chunk].reset(new uint32_t[kChunkSize]);
    w.chunks[chunk][seq & (kChunkSize - 1)] = static_cast<uint32_t>(key);
    w.published.store(seq + 1, std::memory_order_release);
    return seq;
  }

  /// True when (writer, seq) is the loaded value of `key` or a write the
  /// benchmark issued for `key`.
  bool Issued(uint64_t key, uint32_t writer, uint64_t seq) const {
    if (writer == 0) return seq == 0;
    if (writer >= kMaxWriters) return false;
    const Writer& w = writers_[writer];
    if (seq == 0 || seq >= w.published.load(std::memory_order_acquire)) return false;
    return w.chunks[seq >> kChunkBits][seq & (kChunkSize - 1)] == key;
  }

 private:
  static constexpr int kChunkBits = 16;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = 4096;
  struct Writer {
    uint64_t next = 1;
    std::atomic<uint64_t> published{1};
    std::unique_ptr<uint32_t[]> chunks[kMaxChunks];
  };
  std::unique_ptr<Writer[]> writers_{new Writer[kMaxWriters]};
};

/// Checks one (key, value) pair read back from the database against the
/// write log. Returns an empty string when correct, else a diagnosis.
inline std::string CheckRead(const WriteLog& log, std::string_view key,
                             std::string_view value) {
  uint64_t ki = 0;
  DecodedValue d;
  if (!KeyIndex(key, &ki)) return "unexpected key " + std::string(key);
  if (!DecodeValue(value, &d)) return "undecodable value for " + std::string(key);
  if (d.key != ki) return "value of another key under " + std::string(key);
  if (!log.Issued(ki, d.writer, d.seq)) {
    return "value never written for " + std::string(key) + " (writer " +
           std::to_string(d.writer) + " seq " + std::to_string(d.seq) + ")";
  }
  return "";
}

/// Order-independent digest of a key/value set (sum of per-pair hashes),
/// so a single pair's change can be applied arithmetically.
inline uint64_t PairHash(std::string_view key, std::string_view value) {
  uint64_t h = 1469598103934665603ull;
  for (char c : key) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  h = (h ^ 0xff) * 1099511628211ull;
  for (char c : value) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  return StreamSeed(h, 7);
}

// --- result JSON -------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string MetricsJson(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": \"" + JsonEscape(metric.unit) + "\"}";
  }
  return out + "}";
}

}  // namespace spfbench
