// The serving workloads: a closed loop of single-op transaction frames
// over TCP from `clients` connections against a NetworkServer with
// default ServerOptions. Each client sends its next frame only after the
// previous one completed (retries included). heal_spill adds a probe
// connection that fails a leaf at a fixed rate and reads a key on
// it. The traced run measures half the time untraced, half traced, and
// then replays the traced phase's op stream in-process from the same
// number of threads to separate engine time from the serving fabric.

#include <sys/socket.h>

#include <cerrno>
#include <thread>

#include "bench.h"
#include "server/client.h"
#include "server/network_server.h"
#include "server/wire.h"

namespace spfbench {
namespace {

enum class OpKind { kGet, kPut, kScan };
constexpr uint32_t kScanLength = 20;
constexpr double kWarmupSeconds = 1.0;
constexpr int64_t kProbePeriodNs = 10'000'000;  // 100 failed pages per second

/// One client's reproducible op stream: 50% Get, 45% Put, 5% Scan.
class OpStream {
 public:
  OpStream(const Workload& w, uint64_t seed, uint64_t phase, uint64_t client)
      : n_(w.records), rng_(StreamSeed(seed, phase, client)) {
    if (w.zipf_theta > 0) {
      zipf_ = std::make_unique<spf::ZipfGenerator>(
          n_, w.zipf_theta, StreamSeed(seed, phase, client + 1000));
    }
  }
  void Next(OpKind* kind, uint64_t* key) {
    double r = rng_.NextDouble();
    *kind = r < 0.50 ? OpKind::kGet : r < 0.95 ? OpKind::kPut : OpKind::kScan;
    // Zipf ranks are scattered over the key space (as YCSB's scrambled
    // Zipfian does), so hot keys do not all share one leaf.
    *key = zipf_ ? (zipf_->Next() * 1000003ull + 17) % n_ : rng_.Uniform(n_);
  }

 private:
  uint64_t n_;
  spf::Random rng_;
  std::unique_ptr<spf::ZipfGenerator> zipf_;
};

/// One TCP connection issuing frames with the protocol's retry contract.
/// Encode and decode are called here (not inside spf::Client) so the
/// traced run can time them.
class Conn {
 public:
  explicit Conn(uint16_t port) : port_(port) {}

  bool Connect() {
    client_.Close();
    return client_.Connect("127.0.0.1", port_, kStallLimitNs / 1'000'000).ok();
  }

  enum class Outcome { kCommitted, kFailed, kUserError };

  /// Runs one frame to completion. Fills `reply` on kCommitted/kUserError.
  Outcome Execute(const spf::wire::TxnRequest& req, spf::wire::TxnReply* reply,
                  Tracer::Buffer* tb, uint64_t parent, uint64_t request,
                  uint64_t* retries, int64_t* codec_ns) {
    const int64_t start = NowNs();
    std::string frame;
    {
      Span s(tb, "wire.encode", parent, request);
      int64_t c0 = tb ? NowNs() : 0;
      frame = spf::wire::EncodeTxnRequest(req);
      if (tb) *codec_ns += NowNs() - c0;
    }
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      if (attempt > 0) {
        ++*retries;
        Span s(tb, "client.backoff", parent, request);
        std::this_thread::sleep_for(std::chrono::milliseconds(std::min(attempt, 10)));
      }
      std::string payload;
      bool sent;
      {
        Span s(tb, "wire.roundtrip", parent, request);
        sent = client_.connected() && client_.SendRaw(frame).ok() && ReadPayload(&payload);
      }
      if (!sent) {
        // Transport error or a reply slower than the stall limit: the
        // connection's framing is lost, so reconnect for the next frame.
        failure_ = "no reply (transport error or stall limit) on attempt " +
                   std::to_string(attempt + 1);
        Connect();
        return Outcome::kFailed;
      }
      spf::wire::Reply decoded;
      spf::wire::WireError err;
      {
        Span s(tb, "wire.decode", parent, request);
        int64_t c0 = tb ? NowNs() : 0;
        err = spf::wire::DecodeReply(payload, &decoded);
        if (tb) *codec_ns += NowNs() - c0;
      }
      if (err != spf::wire::WireError::kNone ||
          decoded.type != spf::wire::FrameType::kTxnReply) {
        failure_ = "undecodable reply";
        Connect();
        return Outcome::kFailed;
      }
      *reply = std::move(decoded.txn);
      if (reply->ok()) return Outcome::kCommitted;
      if (!reply->retryable()) return Outcome::kUserError;
      if (NowNs() - start > kStallLimitNs) {
        failure_ = "stall limit after " + std::to_string(attempt + 1) +
                   " attempts, last error: " + reply->message;
        return Outcome::kFailed;
      }
    }
    failure_ = std::to_string(kMaxAttempts) + " attempts, last error: " + reply->message;
    return Outcome::kFailed;
  }

  /// Why the last kFailed frame failed.
  const std::string& failure() const { return failure_; }

  void Close() { client_.Close(); }

 private:
  bool ReadExact(size_t n, std::string* out) {
    char buf[4096];
    while (n > 0) {
      ssize_t got = recv(client_.fd(), buf, std::min(n, sizeof(buf)), 0);
      if (got > 0) {
        out->append(buf, static_cast<size_t>(got));
        n -= static_cast<size_t>(got);
      } else if (got < 0 && errno == EINTR) {
        continue;
      } else {
        return false;  // closed, error, or SO_RCVTIMEO (the stall limit)
      }
    }
    return true;
  }
  bool ReadPayload(std::string* payload) {
    std::string prefix;
    if (!ReadExact(spf::wire::kFramingBytes, &prefix)) return false;
    uint32_t len = static_cast<uint8_t>(prefix[0]) | static_cast<uint8_t>(prefix[1]) << 8 |
                   static_cast<uint8_t>(prefix[2]) << 16 |
                   static_cast<uint32_t>(static_cast<uint8_t>(prefix[3])) << 24;
    if (len > spf::wire::kMaxFrameBytes) return false;
    return ReadExact(len, payload);
  }

  uint16_t port_;
  spf::Client client_;
  std::string failure_;
};

/// What one client thread measured.
struct ClientResult {
  std::vector<int64_t> latency_ns;  ///< every frame, failed ones included
  uint64_t ops = 0, failed = 0, retries = 0;
  int64_t codec_ns = 0;
};

/// Counters the client threads of one phase share.
struct PhaseShared {
  std::atomic<uint64_t> user_bytes{0};  ///< key + value bytes of committed puts
  std::atomic<uint64_t> frames{0};      ///< frames finished, for the timeline
};

struct PhaseResult {
  std::vector<ClientResult> clients;
  std::vector<int64_t> heal_ns;  ///< probe reads of just-failed pages
  uint64_t probe_attempted = 0, probe_failed = 0;
  double elapsed_s = 0;
  uint64_t user_bytes_put = 0;
  LayerTotals layers;
};

/// Checks a committed frame's results against the write log.
void CheckReply(Run* run, OpKind kind, uint64_t key, const spf::wire::TxnReply& reply) {
  if (reply.results.size() != 1) {
    run->Fail("frame reply with " + std::to_string(reply.results.size()) + " results");
    return;
  }
  const spf::wire::OpResult& r = reply.results[0];
  if (kind == OpKind::kGet) {
    std::string e = CheckRead(run->writes, KeyOf(key), r.value);
    if (!e.empty()) run->Fail("get: " + e);
  } else if (kind == OpKind::kScan) {
    std::string prev;
    if (r.pairs.empty() && key < run->workload->records) run->Fail("empty scan");
    for (const auto& [k, v] : r.pairs) {
      std::string e = CheckRead(run->writes, k, v);
      if (!e.empty()) run->Fail("scan: " + e);
      if (k < KeyOf(key) || (!prev.empty() && k <= prev)) run->Fail("scan order at " + k);
      prev = k;
    }
    if (r.pairs.size() > kScanLength) run->Fail("scan returned more than its limit");
  }
}

void ClientLoop(Run* run, uint16_t port, int c, uint64_t phase, int64_t deadline,
                Tracer::Buffer* tb, ClientResult* out, PhaseShared* shared) {
  OpStream ops(*run->workload, run->seed, phase, c);
  Conn conn(port);
  if (!conn.Connect()) {
    run->Fail("client could not connect");
    return;
  }
  const uint32_t writer = static_cast<uint32_t>(c + 1);
  uint64_t request = (phase << 48) | (static_cast<uint64_t>(c) << 40);
  while (NowNs() < deadline) {
    OpKind kind;
    uint64_t key;
    ops.Next(&kind, &key);
    spf::wire::TxnRequest req;
    uint64_t seq = 0;
    if (kind == OpKind::kGet) {
      req.Get(KeyOf(key));
    } else if (kind == OpKind::kPut) {
      seq = run->writes.Record(writer, key);
      req.Put(KeyOf(key), MakeValue(key, writer, seq));
    } else {
      req.Scan(KeyOf(key), "", kScanLength);
    }
    ++request;
    const int64_t t0 = NowNs();
    spf::wire::TxnReply reply;
    Conn::Outcome outcome;
    {
      Span root(tb, "frame", 0, request);
      outcome = conn.Execute(req, &reply, tb, root.id(), request, &out->retries,
                             &out->codec_ns);
    }
    out->latency_ns.push_back(NowNs() - t0);
    out->ops++;
    shared->frames.fetch_add(1, std::memory_order_relaxed);
    if (kind == OpKind::kPut) {
      run->completed[writer].store(seq + 1, std::memory_order_release);
    }
    if (outcome == Conn::Outcome::kCommitted) {
      CheckReply(run, kind, key, reply);
      if (kind == OpKind::kPut) shared->user_bytes.fetch_add(10 + kValueBytes);
    } else {
      out->failed++;
      if (outcome == Conn::Outcome::kUserError) {
        // Every key exists and every op is valid: a user error is wrong.
        run->Fail("frame failed non-retryably: " + reply.message);
      } else {
        Progress("client " + std::to_string(c) + " frame failed after " +
                 std::to_string((NowNs() - t0) / 1'000'000) + " ms: " + conn.failure());
      }
    }
  }
  conn.Close();
}

/// Fails one random leaf and reads a key on it, over its own
/// connection, at a fixed rate. The read must return the value the page
/// held before the failure, or a newer write.
void ProbeLoop(spf::Database* db, Run* run, uint16_t port, uint64_t phase,
               int64_t deadline, Tracer::Buffer* tb, PhaseResult* out) {
  spf::Random rng(StreamSeed(run->seed, phase, 999));
  Conn conn(port);
  if (!conn.Connect()) {
    run->Fail("probe could not connect");
    return;
  }
  const int clients = run->workload->clients;
  uint64_t request = (phase << 48) | (uint64_t{999} << 40);
  int64_t next = NowNs() + kProbePeriodNs;
  while (true) {
    int64_t now = NowNs();
    if (next > now) std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    if (NowNs() >= deadline) break;
    next += kProbePeriodNs;
    uint64_t key = rng.Uniform(run->workload->records);
    auto leaf = db->LeafPageOf(KeyOf(key));
    if (!leaf.ok()) continue;
    ++request;
    uint64_t dummy_retries = 0;
    int64_t dummy_codec = 0;
    // Writes that finished before the pre-failure read are in `before`
    // (or superseded by a newer write); the post-repair read may return
    // `before` or any write that had not finished yet.
    std::vector<uint64_t> finished(clients + 1);
    for (int w = 1; w <= clients; ++w) finished[w] = run->completed[w].load();
    spf::wire::TxnRequest get;
    get.Get(KeyOf(key));
    spf::wire::TxnReply before, after;
    if (conn.Execute(get, &before, nullptr, 0, request, &dummy_retries, &dummy_codec) !=
        Conn::Outcome::kCommitted) {
      continue;
    }
    // EvictPage, not DiscardPage: the page is live, and a writer may dirty
    // it at any moment; DiscardPage would then drop a committed update
    // (EvictPage refuses a pinned or re-dirtied frame atomically).
    if (!db->pool()->EvictPage(*leaf).ok()) continue;
    db->data_device()->InjectSilentCorruption(*leaf, StreamSeed(run->seed, request));
    out->probe_attempted++;
    const int64_t t0 = NowNs();
    Conn::Outcome outcome;
    {
      Span root(tb, "probe.read", 0, request);
      outcome = conn.Execute(get, &after, tb, root.id(), request, &dummy_retries,
                             &dummy_codec);
    }
    out->heal_ns.push_back(NowNs() - t0);
    if (outcome != Conn::Outcome::kCommitted) {
      out->probe_failed++;
      Progress("probe read of failed page " + std::to_string(*leaf) + " failed: " +
               (outcome == Conn::Outcome::kFailed ? conn.failure() : after.message));
      continue;
    }
    const std::string& v0 = before.results[0].value;
    const std::string& v1 = after.results[0].value;
    if (v1 == v0) continue;
    DecodedValue d;
    if (!DecodeValue(v1, &d) || d.key != key || !run->writes.Issued(key, d.writer, d.seq) ||
        d.writer == 0 || d.writer > static_cast<uint32_t>(clients) ||
        d.seq < finished[d.writer]) {
      run->Fail("probe read after repair of page " + std::to_string(*leaf) +
                " returned neither the pre-failure value nor a newer write for " +
                KeyOf(key));
    }
  }
  conn.Close();
}

/// One closed-loop phase of `seconds` against a fresh server.
PhaseResult ServePhase(spf::Database* db, Run* run, uint64_t phase, double seconds,
                       bool traced) {
  PhaseResult res;
  spf::NetworkServer server(db, spf::ServerOptions());
  spf::Status st = server.Start();
  if (!st.ok()) {
    run->Fail("server start: " + st.ToString());
    return res;
  }
  const int clients = run->workload->clients;
  res.clients.resize(clients);
  std::vector<Tracer::Buffer*> buffers(clients + 1, nullptr);
  if (traced) {
    for (auto& b : buffers) b = run->TraceBuffer();
  }
  PhaseShared shared;
  LayerCounters c0 = ReadCounters(db);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(ClientLoop, run, server.port(), c, phase, deadline, buffers[c],
                         &res.clients[c], &shared);
  }
  if (run->workload->heal_probe) {
    threads.emplace_back(ProbeLoop, db, run, server.port(), phase, deadline,
                         buffers[clients], &res);
  }
  // Frames finished per second, on stderr: shows stalls that an average
  // hides.
  std::string timeline = "serving phase " + std::to_string(phase) + " frames/s:";
  uint64_t last = 0;
  for (int64_t tick = start + 1'000'000'000; tick <= deadline; tick += 1'000'000'000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(tick - NowNs()));
    uint64_t now = shared.frames.load();
    timeline += " " + std::to_string(now - last);
    last = now;
  }
  for (auto& t : threads) t.join();
  res.elapsed_s = (NowNs() - start) / 1e9;
  server.Stop();
  Progress(timeline);
  res.layers.Add(c0, ReadCounters(db));
  res.user_bytes_put = shared.user_bytes.load();
  return res;
}

struct ServingSummary {
  double ops_per_s = 0, p50_us = 0, p99_us = 0, failed_share = 0, max_ms = 0;
  uint64_t ops = 0, failed = 0, retries = 0, stalls = 0;
};

ServingSummary Summarize(const PhaseResult& r) {
  ServingSummary s;
  std::vector<int64_t> all;
  for (const ClientResult& c : r.clients) {
    s.ops += c.ops;
    s.failed += c.failed;
    s.retries += c.retries;
    all.insert(all.end(), c.latency_ns.begin(), c.latency_ns.end());
  }
  if (all.empty()) return s;
  s.ops_per_s = (s.ops - s.failed) / r.elapsed_s;
  s.p50_us = Percentile(all, 0.50) / 1e3;
  s.p99_us = Percentile(all, 0.99) / 1e3;
  s.max_ms = *std::max_element(all.begin(), all.end()) / 1e6;
  s.stalls = static_cast<uint64_t>(
      std::count_if(all.begin(), all.end(), [](int64_t ns) { return ns > kStallNs; }));
  s.failed_share = static_cast<double>(s.failed) / static_cast<double>(s.ops);
  return s;
}

/// Replays the traced phase's op stream in-process, client by client with
/// the same op counts, through BeginTxn/Get/Put/Scan/Commit; returns the
/// per-op engine time, indexed like the wire latencies.
std::vector<std::vector<int64_t>> Replay(spf::Database* db, Run* run, uint64_t phase,
                                         const PhaseResult& wire) {
  const int clients = run->workload->clients;
  std::vector<std::vector<int64_t>> engine(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tracer::Buffer* tb = run->TraceBuffer();
      OpStream ops(*run->workload, run->seed, phase, c);
      const uint32_t writer = kReplayWriterBase + c;
      uint64_t request = (uint64_t{7} << 48) | (static_cast<uint64_t>(c) << 40);
      for (uint64_t i = 0; i < wire.clients[c].ops; ++i) {
        OpKind kind;
        uint64_t key;
        ops.Next(&kind, &key);
        ++request;
        std::string value;
        uint64_t seq = 0;
        if (kind == OpKind::kPut) {
          seq = run->writes.Record(writer, key);
          value = MakeValue(key, writer, seq);
        }
        const int64_t t0 = NowNs();
        {
          Span root(tb, "op", 0, request);
          const int64_t start = NowNs();
          for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
            if (attempt > 0) {
              Span s(tb, "client.backoff", root.id(), request);
              std::this_thread::sleep_for(std::chrono::milliseconds(std::min(attempt, 10)));
            }
            spf::Txn txn;
            {
              Span s(tb, "txn.begin", root.id(), request);
              txn = db->BeginTxn();
            }
            spf::TxnError err;
            if (kind == OpKind::kGet) {
              Span s(tb, "txn.get", root.id(), request);
              auto v = txn.Get(KeyOf(key));
              err = txn.last_error();
              if (v.ok()) {
                std::string e = CheckRead(run->writes, KeyOf(key), *v);
                if (!e.empty()) run->Fail("replay get: " + e);
              }
            } else if (kind == OpKind::kPut) {
              Span s(tb, "txn.put", root.id(), request);
              err = txn.Put(KeyOf(key), value);
            } else {
              Span s(tb, "txn.scan", root.id(), request);
              uint32_t n = 0;
              spf::Status st = txn.Scan(KeyOf(key), "", [&](std::string_view k, std::string_view v) {
                std::string e = CheckRead(run->writes, k, v);
                if (!e.empty()) run->Fail("replay scan: " + e);
                return ++n < kScanLength;
              });
              err = txn.last_error();
              (void)st;
            }
            if (err.ok()) {
              Span s(tb, "txn.commit", root.id(), request);
              err = txn.Commit();
            }
            if (err.ok()) break;
            if (!err.retryable()) run->Fail("replay op failed: " + err.ToString());
            if (!err.retryable() || NowNs() - start > kStallLimitNs) break;
          }
        }
        engine[c].push_back(NowNs() - t0);
        if (kind == OpKind::kPut) {
          run->completed[writer].store(seq + 1, std::memory_order_release);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return engine;
}

}  // namespace

void ReportEngineLayers(Run* run, const LayerTotals& L, uint64_t op_count,
                        uint64_t user_bytes_put) {
  const double ops = std::max<double>(1, static_cast<double>(op_count));
  const double commits = std::max<double>(1, static_cast<double>(L.commits));
  run->Layer("locks.acquisitions_per_op", L.lock_acquisitions / ops, "count");
  run->Layer("locks.waits_per_kop", L.lock_waits * 1000.0 / ops, "count");
  run->Layer("locks.timeouts", static_cast<double>(L.lock_timeouts), "count");
  run->Layer("log.forces_per_commit", L.log_forces / commits, "count");
  run->Layer("log.group_size",
             L.gc_batches ? static_cast<double>(L.gc_commits) / L.gc_batches : 0, "count");
  run->Layer("log.bytes_per_commit", L.log_bytes / commits, "B");
  run->Layer("archive.runs_written", static_cast<double>(L.archive_runs), "count");
  run->Layer("archive.merges", static_cast<double>(L.archive_merges), "count");
  run->Layer("archive.bytes_written", static_cast<double>(L.archive_bytes), "B");
  run->Layer("btree.fixes_per_op", L.fixes / ops, "count");
  run->Layer("btree.splits", static_cast<double>(L.splits), "count");
  run->Layer("btree.foster_traversals", static_cast<double>(L.foster_traversals), "count");
  run->Layer("pool.hit_ratio", L.fixes ? static_cast<double>(L.hits) / L.fixes : 0, "ratio");
  run->Layer("pool.misses_per_op", L.misses / ops, "count");
  run->Layer("pool.evictions_per_op", L.evictions / ops, "count");
  run->Layer("pool.write_backs_per_op", L.write_backs / ops, "count");
  run->Layer("pool.verify_failures", static_cast<double>(L.verify_failures), "count");
  const double written = static_cast<double>(L.data.bytes_written + L.log.bytes_written +
                                             L.archive.bytes_written + L.backup.bytes_written);
  run->Layer("storage.write_amp",
             user_bytes_put ? written / static_cast<double>(user_bytes_put) : 0, "ratio");
  run->Layer("spr.repairs", static_cast<double>(L.spr_repairs), "count");
  const double repairs = std::max<double>(1, static_cast<double>(L.spr_repairs));
  run->Layer("spr.chain_len", L.spr_records_applied / repairs, "count");
  run->Layer("spr.log_reads_per_repair", L.spr_log_reads / repairs, "count");
  run->Layer("spr.archive_reads_per_repair", L.spr_archive_reads / repairs, "count");
  run->Layer("spr.backup_reads_per_repair", L.spr_backup_reads / repairs, "count");
  run->Layer("funnel.enqueued", static_cast<double>(L.funnel_enqueued), "count");
  run->Layer("funnel.coalesced", static_cast<double>(L.funnel_coalesced), "count");
  run->Layer("funnel.rejected", static_cast<double>(L.funnel_rejected), "count");
  run->Layer("pri.updates_logged_per_commit", L.pri_update_records / commits, "count");
  run->Layer("backup.page_backups_taken", static_cast<double>(L.page_backups_taken), "count");
}

void RunServing(spf::Database* db, Run* run) {
  if (run->workload->background_archiver) db->archiver()->Start();
  // The untraced phase gives the end-to-end numbers: the whole run, or
  // the first half of a traced run, whose second half is traced.
  const double untraced_s = run->trace ? run->seconds / 2 : run->seconds;
  // Warm-up (not measured): connections, the pool's working set and the
  // archiver settle before any phase is timed.
  Progress("serving: warm-up");
  ServingSummary w = Summarize(ServePhase(db, run, 0, kWarmupSeconds, false));
  Progress("serving");
  PhaseResult plain = ServePhase(db, run, 1, untraced_s, false);
  ServingSummary s = Summarize(plain);
  PhaseResult traced;
  ServingSummary t;
  if (run->trace) {
    traced = ServePhase(db, run, 2, run->seconds / 2, true);
    t = Summarize(traced);
  }
  if (run->workload->background_archiver) db->archiver()->Stop();

  run->attempted += w.ops + s.ops + plain.probe_attempted + t.ops + traced.probe_attempted;
  run->failed += w.failed + s.failed + plain.probe_failed + t.failed + traced.probe_failed;
  run->E2e("ops_per_s", s.ops_per_s, "1/s");
  run->E2e("op_p50_us", s.p50_us, "us");
  run->E2e("op_p99_us", s.p99_us, "us");
  run->Layer("ops_failed_share", s.failed_share, "share");
  run->Layer("frame.max_ms", s.max_ms, "ms");
  run->Layer("frame.stalls", static_cast<double>(s.stalls), "count");
  if (run->workload->heal_probe) {
    if (plain.heal_ns.size() < 20) run->Fail("too few heal probes completed");
    run->E2e("heal_read_p50_ms", Percentile(plain.heal_ns, 0.50) / 1e6, "ms");
    run->E2e("heal_read_p99_ms", Percentile(plain.heal_ns, 0.99) / 1e6, "ms");
    run->Layer("heal.probes", static_cast<double>(plain.heal_ns.size()), "count");
  }

  if (run->trace) {
    // Same op stream, in-process, same thread count: engine time per op.
    std::vector<std::vector<int64_t>> engine = Replay(db, run, 2, traced);
    std::vector<int64_t> fabric;
    int64_t frames = 0, codec = 0;
    for (size_t c = 0; c < engine.size(); ++c) {
      const auto& wire = traced.clients[c].latency_ns;
      for (size_t i = 0; i < std::min(wire.size(), engine[c].size()); ++i) {
        fabric.push_back(wire[i] - engine[c][i]);
      }
      frames += static_cast<int64_t>(traced.clients[c].ops);
      codec += traced.clients[c].codec_ns;
    }
    run->Layer("server.fabric_us", Percentile(fabric, 0.50) / 1e3, "us");
    run->Layer("server.codec_ns_per_frame", frames ? static_cast<double>(codec) / frames : 0,
               "ns");
    run->Layer("server.retries_per_frame",
               frames ? static_cast<double>(t.retries) / frames : 0, "count");
    run->Layer("trace.ops_per_s_traced", t.ops_per_s, "1/s");
    run->Layer("trace.ops_per_s_untraced", s.ops_per_s, "1/s");
    run->Layer("trace.overhead_share", s.ops_per_s > 0 ? 1 - t.ops_per_s / s.ops_per_s : 0,
               "share");
    ReportEngineLayers(run, traced.layers, t.ops, traced.user_bytes_put);
  }

  Progress("serving: offline checks");
  // Quiesced checks: the device image verifies and no key was lost or
  // added (every Put targets a loaded key).
  uint64_t pages = 0;
  spf::Status st = db->CheckOffline(&pages);
  if (!st.ok()) run->Fail("CheckOffline after serving: " + st.ToString());
  uint64_t keys = 0;
  FullDigest(db, run, &keys);
  if (keys != run->workload->records) {
    run->Fail("key count after serving " + std::to_string(keys) + " != loaded " +
              std::to_string(run->workload->records));
  }
}

}  // namespace spfbench
