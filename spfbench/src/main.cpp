// spfbench: the repository benchmark. One process runs one workload:
//
//   spfbench --workload <serve_hot|heal_spill|recover_drill> --seed <n>
//            --seconds <s> --trace <0|1>
//
// and prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics from a
// separate traced run (spans are written under .bench_build/traces/).
// See README.md in this directory for the metric definitions.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "server/network_server.h"

using namespace spfbench;

namespace spfbench {

const Workload* FindWorkload(const std::string& name) {
  // serve_hot: Zipf(0.9) over 20k keys fits the default 1024-frame pool, so
  // the work is in the server fabric, the lock manager and group commit.
  // It is not in BENCHMARK.json: the scan-under-latch lock wait makes its
  // figures swing from run to run (see README.md).
  // heal_spill: uniform keys over 300k records (~5x the pool) move the work
  // to buffer misses, verify-on-read, write-back and the repair path, with
  // the archiver draining in the background under live writes.
  // recover_drill: the recovery ladder in simulated I/O time, no serving.
  static const Workload kWorkloads[] = {
      {"serve_hot", 20000, 0.9, 3, false, false},
      {"heal_spill", 300000, 0.0, 3, true, true},
      {"recover_drill", 300000, 0.0, 0, false, false},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void Run::Fail(const std::string& what) {
  std::lock_guard<std::mutex> g(mu_);
  if (errors_.size() < 20) fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  errors_.push_back(what);
}

bool Run::correct() const {
  std::lock_guard<std::mutex> g(mu_);
  return errors_.empty();
}

std::unique_ptr<spf::Database> SetupDatabase(Run* run, SetupTimes* times,
                                             Tracer::Buffer* tb) {
  const int64_t t0 = NowNs();
  Span root(tb, "setup", 0, 0);
  spf::DatabaseOptions options;  // defaults: 1024 frames, SSD data/log, HDD backup
  auto created = spf::Database::Create(options);
  if (!created.ok()) {
    run->Fail("Database::Create: " + created.status().ToString());
    return nullptr;
  }
  std::unique_ptr<spf::Database> db = std::move(created).value();
  {
    Span s(tb, "setup.load", root.id(), 0);
    const uint64_t n = run->workload->records;
    for (uint64_t base = 0; base < n; base += 1000) {
      spf::Txn t = db->BeginTxn();
      for (uint64_t i = base; i < std::min(n, base + 1000); ++i) {
        spf::Status st = t.Insert(KeyOf(i), MakeValue(i, 0, 0));
        if (!st.ok()) {
          run->Fail("load insert: " + st.ToString());
          return nullptr;
        }
      }
      spf::Status st = t.Commit();
      if (!st.ok()) {
        run->Fail("load commit: " + st.ToString());
        return nullptr;
      }
    }
  }
  const int64_t t1 = NowNs();
  {
    Span s(tb, "setup.backup", root.id(), 0);
    auto b = db->TakeFullBackup();
    if (!b.ok()) run->Fail("TakeFullBackup: " + b.status().ToString());
  }
  const int64_t t2 = NowNs();
  {
    Span s(tb, "setup.archive", root.id(), 0);
    spf::Status st = db->archiver()->ArchiveAll();
    if (!st.ok()) run->Fail("ArchiveAll: " + st.ToString());
  }
  const int64_t t3 = NowNs();
  times->load_s = (t1 - t0) / 1e9;
  times->backup_s = (t2 - t1) / 1e9;
  times->archive_s = (t3 - t2) / 1e9;
  times->total_s = (t3 - t0) / 1e9;
  return db;
}

uint64_t FullDigest(spf::Database* db, Run* run, uint64_t* keys, Versions* versions) {
  uint64_t digest = 0, n = 0;
  std::string first_error;
  if (versions) versions->assign(run->workload->records, {UINT32_MAX, 0});
  spf::Status st = db->Scan("", "", [&](std::string_view k, std::string_view v) {
    digest += PairHash(k, v);
    ++n;
    if (first_error.empty()) first_error = CheckRead(run->writes, k, v);
    uint64_t ki;
    DecodedValue d;
    if (versions && KeyIndex(k, &ki) && ki < versions->size() && DecodeValue(v, &d)) {
      (*versions)[ki] = {d.writer, d.seq};
    }
    return true;
  });
  if (!st.ok()) run->Fail("full scan: " + st.ToString());
  if (!first_error.empty()) run->Fail("full scan: " + first_error);
  *keys = n;
  return digest;
}

std::string DescribeDiff(const Versions& before, const Versions& after) {
  std::string out;
  int shown = 0, total = 0;
  for (size_t i = 0; i < before.size() && i < after.size(); ++i) {
    if (before[i] == after[i]) continue;
    ++total;
    if (shown++ < 8) {
      out += " " + KeyOf(i) + ": w" + std::to_string(before[i].first) + "/s" +
             std::to_string(before[i].second) + " -> w" + std::to_string(after[i].first) +
             "/s" + std::to_string(after[i].second);
    }
  }
  return std::to_string(total) + " keys differ:" + out;
}

}  // namespace spfbench

namespace {

void PrintOptions(const Run& run, spf::Database* db) {
  const spf::DatabaseOptions& o = db->options();
  printf("{\"options\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
         "\"trace\": %d, \"records\": %llu, \"value_bytes\": %zu, "
         "\"zipf_theta\": %g, \"clients\": %d, \"heal_probe\": %s, "
         "\"page_size\": %u, \"num_pages\": %llu, \"buffer_frames\": %zu, "
         "\"lock_timeout_ms\": %lld, \"lock_shards\": %zu, \"pool_shards\": %zu, "
         "\"recovery_workers\": %u, \"spr_batch_limit\": %llu, "
         "\"archive_run_bytes\": %llu, \"restore_segment_pages\": %llu, "
         "\"server_workers\": %u, "
         "\"flush_policy\": \"log force per commit, group_commit_interval=%lldus, "
         "group_commit_bytes=%llu\"}}\n",
         run.workload->name.c_str(), static_cast<unsigned long long>(run.seed),
         run.seconds, run.trace ? 1 : 0,
         static_cast<unsigned long long>(run.workload->records), kValueBytes,
         run.workload->zipf_theta, run.workload->clients,
         run.workload->heal_probe ? "true" : "false", o.page_size,
         static_cast<unsigned long long>(o.num_pages), o.buffer_frames,
         static_cast<long long>(o.lock_timeout.count()), o.lock_shards,
         o.pool_shards, o.recovery_workers,
         static_cast<unsigned long long>(o.spr_batch_limit),
         static_cast<unsigned long long>(o.archive_run_bytes),
         static_cast<unsigned long long>(o.restore_segment_pages),
         spf::ServerOptions().workers,
         static_cast<long long>(o.group_commit_interval.count()),
         static_cast<unsigned long long>(o.group_commit_bytes));
}

void ReportTrace(Run* run) {
  uint64_t requests = 0, mismatched = 0;
  auto self = run->tracer->SelfTimes(&requests, &mismatched);
  if (mismatched != 0) {
    run->Fail(std::to_string(mismatched) +
              " traced requests whose span self times do not add up to the root");
  }
  std::string line = "{\"self_times_ms\": {";
  bool first = true;
  for (const auto& [name, st] : self) {
    char buf[160];
    snprintf(buf, sizeof(buf), "%s\"%s\": {\"count\": %llu, \"self\": %.3f, \"total\": %.3f}",
             first ? "" : ", ", name.c_str(), static_cast<unsigned long long>(st.count),
             st.self_ns / 1e6, st.total_ns / 1e6);
    line += buf;
    first = false;
  }
  printf("%s}}\n", line.c_str());
  // Engine call latencies, from the in-process spans (the replay of the
  // serving stream, or the drill's update burst).
  for (const char* op : {"begin", "get", "put", "scan", "commit"}) {
    std::vector<int64_t> d = run->tracer->Durations(std::string("txn.") + op);
    run->Layer(std::string("txn.") + op + "_us_p50", Percentile(d, 0.50) / 1e3, "us");
    run->Layer(std::string("txn.") + op + "_us_p99", Percentile(d, 0.99) / 1e3, "us");
  }
  // The engine op's own time outside its Begin/op/Commit calls (the
  // wire-side self times are on the self_times line).
  auto op = self.find("op");
  run->Layer("self_us.op",
             op == self.end() || op->second.count == 0
                 ? 0
                 : op->second.self_ns / 1e3 / op->second.count,
             "us");
  run->Layer("trace.requests", static_cast<double>(requests), "count");
  run->Layer("trace.spans", static_cast<double>(run->tracer->span_count()), "count");
  run->Layer("trace.self_sum_mismatches", static_cast<double>(mismatched), "count");
  mkdir(".bench_build", 0755);
  mkdir(".bench_build/traces", 0755);
  std::string path = ".bench_build/traces/" + run->workload->name + "-" +
                     std::to_string(run->seed) + ".tsv";
  if (!run->tracer->WriteTsv(path)) {
    fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

/// The drill's simulated-time metrics and counters, which should be a
/// pure function of the seed and --seconds (run.py --check-determinism
/// compares two runs and names every value that differs).
void PrintDrillSignature(const Run& run) {
  static const char* const kPrefixes[] = {
      "dev.",  "restart.", "restore.", "scheduler.", "archive.", "spr.", "pool.",
      "log.",  "locks.",   "btree.",   "funnel.",    "pri.",     "backup.", "storage."};
  MetricMap sig;
  for (const auto& [name, m] : run.end_to_end) {
    if (name.find("sim") != std::string::npos) sig[name] = m;
  }
  for (const auto& [name, m] : run.per_layer) {
    for (const char* p : kPrefixes) {
      if (name.rfind(p, 0) == 0) sig[name] = m;
    }
  }
  sig["attempted"] = {static_cast<double>(run.attempted), "count"};
  printf("{\"drill_signature\": %s}\n", MetricsJson(sig).c_str());
}

int Usage() {
  fprintf(stderr,
          "usage: spfbench --workload <serve_hot|heal_spill|recover_drill> "
          "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (!strcmp(argv[i], "--workload")) workload = argv[i + 1];
    else if (!strcmp(argv[i], "--seed")) seed = atoll(argv[i + 1]);
    else if (!strcmp(argv[i], "--seconds")) seconds = atof(argv[i + 1]);
    else if (!strcmp(argv[i], "--trace")) trace = atoi(argv[i + 1]);
    else return Usage();
  }
  Run run;
  run.workload = FindWorkload(workload);
  if (run.workload == nullptr || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  run.seed = static_cast<uint64_t>(seed);
  run.seconds = seconds;
  run.trace = trace == 1;
  if (run.trace) run.tracer = std::make_unique<Tracer>();
  for (uint32_t w = 0; w < WriteLog::kMaxWriters; ++w) run.completed[w].store(1);

  // Set up several times and report the median, so one slow set-up does
  // not decide setup_s; the last database is the one measured.
  constexpr int kSetups = 3;
  std::vector<double> setup_total, setup_load, setup_backup;
  std::unique_ptr<spf::Database> db;
  Tracer::Buffer* tb = run.TraceBuffer();
  const bool serving = run.workload->clients > 0;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    Progress("set-up " + std::to_string(i + 1));
    SetupTimes t;
    db = SetupDatabase(&run, &t, tb);
    if (db == nullptr) break;
    setup_total.push_back(t.total_s);
    setup_load.push_back(t.load_s);
    setup_backup.push_back(t.backup_s);
    if (i == 0) PrintOptions(run, db.get());
    if (i == 0 && serving) {
      // The serving workloads also report the recovery metrics: a short
      // drill on the first set-up's copy of their data set, which would
      // otherwise be discarded. It runs before serving, on a set-up state
      // that depends only on the seed (after serving, the state to
      // recover depends on how much the host let the clients write).
      RunDrill(db.get(), &run, run.workload->records > 100000 ? 5 : 10, false);
    }
  }
  if (db != nullptr) {
    if (serving) {
      RunServing(db.get(), &run);
    } else {
      // A fixed cycle count (not a deadline) keeps the drill's simulated
      // metrics and counters a pure function of the seed and --seconds.
      RunDrill(db.get(), &run, std::max(2, static_cast<int>(seconds / 4 + 0.5)), true);
    }
  }
  run.E2e("setup_s", Median(setup_total), "s");
  run.Layer("setup.load_s", Median(setup_load), "s");
  run.Layer("setup.backup_s", Median(setup_backup), "s");
  if (run.trace) ReportTrace(&run);
  db.reset();
  if (!serving) PrintDrillSignature(run);

  // End-to-end figures the host's noise moves by more than any bound
  // (see README.md): reported, but as per-layer metrics, which carry no
  // bound; a --trace 0 run prints them on a line of their own.
  static const char* const kUngated[] = {"ops_per_s",       "op_p50_us",  "op_p99_us",
                                         "heal_read_p99_ms", "burst_repair_ms", "restart_ms",
                                         "first_ack_after_failure_ms"};
  MetricMap ungated;
  for (const char* name : kUngated) {
    auto it = run.end_to_end.find(name);
    if (it == run.end_to_end.end()) continue;
    ungated[name] = it->second;
    run.per_layer[name] = it->second;
    run.end_to_end.erase(it);
  }
  if (!run.trace) printf("{\"ungated\": %s}\n", MetricsJson(ungated).c_str());

  const bool ok = run.correct();
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
         ok ? "true" : "false", static_cast<unsigned long long>(run.attempted),
         static_cast<unsigned long long>(run.failed),
         MetricsJson(run.trace ? run.per_layer : run.end_to_end).c_str());
  return ok ? 0 : 1;
}
