// The recovery drill: single-threaded and in-process, with the archiver
// driven only by explicit ArchiveAll() calls so simulated time is a pure
// function of the seed. Each cycle runs
//   1. a burst of random updates (one transaction each),
//   2. 256 foreground single-page repairs (fail a leaf, read a key on it),
//   3. RecoverPages on 64 failed random leaves,
//   4. SimulateCrash + Restart,
//   5. FailDevice + RecoverMedia while one committer thread waits for
//      its first acknowledged commit,
// and ends with a full backup.
// A full-scan digest taken before each crash or device failure must
// equal the digest after recovery (adjusted by the committer's write).

#include <set>
#include <thread>

#include "bench.h"

namespace spfbench {
namespace {

constexpr int kBurstUpdates = 4000;
// 256 rather than 32 foreground repairs per cycle: heal_read_p99_ms needs
// samples beyond its percentile, and each repair costs well under 1 ms.
constexpr int kForegroundRepairs = 256;
constexpr int kBurstRepairPages = 64;

struct DrillSamples {
  std::vector<int64_t> op_ns;        // burst update latencies
  std::vector<double> cycle_ops_per_s, cycle_op_p99_us, cycle_heal_p99_ms;
  uint64_t ops = 0, ops_failed = 0;
  int64_t burst_plain_ns = 0, burst_traced_ns = 0;
  uint64_t plain_ops = 0, traced_ops = 0;
  std::vector<int64_t> heal_ns;      // foreground repair reads, wall
  std::vector<double> repair_sim_ms;
  std::vector<double> burst_repair_ms, burst_repair_sim_ms, archive_pages_per_page,
      clusters;
  std::vector<double> restart_ms, restart_sim_ms, analysis_sim_ms, redo_sim_ms,
      redo_applied, redo_page_reads;
  std::vector<double> restore_ms, restore_sim_s, restore_part_sim_s, replay_sim_s,
      pages_restored, on_demand_segments, admission_waits, first_ack_ms;
  uint64_t user_bytes = 0;
};

/// Picks a leaf (not in `used`, when given) with a key on it, and makes
/// sure the device holds its current image (a dirty page is flushed).
bool PickCleanLeaf(spf::Database* db, Run* run, spf::Random* rng, std::set<spf::PageId>* used,
                   uint64_t* key, spf::PageId* leaf) {
  for (int tries = 0; tries < 1000; ++tries) {
    *key = rng->Uniform(run->workload->records);
    auto l = db->LeafPageOf(KeyOf(*key));
    if (!l.ok()) continue;
    if (used != nullptr && used->count(*l)) continue;
    if (db->pool()->IsDirty(*l) && !db->pool()->FlushPage(*l).ok()) continue;
    if (used != nullptr) used->insert(*l);
    *leaf = *l;
    return true;
  }
  run->Fail("no leaf found");
  return false;
}

std::string ValueOrFail(spf::Database* db, Run* run, uint64_t key, const char* where) {
  auto v = db->Get(KeyOf(key));
  if (!v.ok()) {
    run->Fail(std::string(where) + ": Get " + KeyOf(key) + ": " + v.status().ToString());
    return "";
  }
  return *v;
}

void Burst(spf::Database* db, Run* run, spf::Random* rng, Tracer::Buffer* tb, bool primary,
           DrillSamples* out) {
  const int64_t start = NowNs();
  const size_t first = out->op_ns.size();
  int64_t half_ns = 0;
  for (int i = 0; i < kBurstUpdates; ++i) {
    // In the traced run the second half of every burst is traced, so the
    // tracing overhead is measured on identical work.
    const bool traced = tb != nullptr && primary && i >= kBurstUpdates / 2;
    if (traced && half_ns == 0) half_ns = NowNs();
    Tracer::Buffer* b = traced ? tb : nullptr;
    uint64_t key = rng->Uniform(run->workload->records);
    uint64_t seq = run->writes.Record(kDrillWriter, key);
    std::string value = MakeValue(key, kDrillWriter, seq);
    uint64_t request = (uint64_t{3} << 48) | (out->ops + 1);
    const int64_t t0 = NowNs();
    spf::TxnError err;
    {
      Span root(b, "op", 0, request);
      for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        spf::Txn txn;
        {
          Span s(b, "txn.begin", root.id(), request);
          txn = db->BeginTxn();
        }
        {
          Span s(b, "txn.put", root.id(), request);
          err = txn.Put(KeyOf(key), value);
        }
        if (err.ok()) {
          Span s(b, "txn.commit", root.id(), request);
          err = txn.Commit();
        }
        if (err.ok() || !err.retryable()) break;
      }
    }
    out->op_ns.push_back(NowNs() - t0);
    out->ops++;
    run->completed[kDrillWriter].store(seq + 1);
    if (!err.ok()) {
      out->ops_failed++;
      run->Fail("drill update: " + err.ToString());
    } else {
      out->user_bytes += 10 + kValueBytes;
    }
  }
  const int64_t end = NowNs();
  const std::vector<int64_t> cycle(out->op_ns.begin() + first, out->op_ns.end());
  out->cycle_op_p99_us.push_back(Percentile(cycle, 0.99) / 1e3);
  const int64_t plain_end = half_ns != 0 ? half_ns : end;
  const int plain_ops = half_ns != 0 ? kBurstUpdates / 2 : kBurstUpdates;
  out->cycle_ops_per_s.push_back(plain_ops / ((plain_end - start) / 1e9));
  if (half_ns != 0) {
    out->burst_plain_ns += half_ns - start;
    out->burst_traced_ns += end - half_ns;
    out->plain_ops += kBurstUpdates / 2;
    out->traced_ops += kBurstUpdates - kBurstUpdates / 2;
  } else {
    out->burst_plain_ns += end - start;
    out->plain_ops += kBurstUpdates;
  }
  // The archiver is driven by hand, which keeps simulated time
  // deterministic.
  spf::Status st = db->archiver()->ArchiveAll();
  if (!st.ok()) run->Fail("ArchiveAll: " + st.ToString());
}

void ForegroundRepairs(spf::Database* db, Run* run, spf::Random* rng, Tracer::Buffer* tb,
                       DrillSamples* out) {
  const size_t first = out->heal_ns.size();
  for (int i = 0; i < kForegroundRepairs; ++i) {
    uint64_t key;
    spf::PageId leaf;
    if (!PickCleanLeaf(db, run, rng, nullptr, &key, &leaf)) return;
    std::string before = ValueOrFail(db, run, key, "pre-failure read");
    if (!db->pool()->DiscardPage(leaf)) {
      run->Fail("DiscardPage refused an unpinned page");
      continue;
    }
    db->data_device()->InjectSilentCorruption(leaf, rng->Next());
    const uint64_t sim0 = db->clock()->NowNanos();
    const int64_t t0 = NowNs();
    spf::StatusOr<std::string> after = spf::Status::Internal("not run");
    {
      Span s(tb, "heal.read", 0, (uint64_t{4} << 48) | (out->heal_ns.size() + 1));
      after = db->Get(KeyOf(key));
    }
    out->heal_ns.push_back(NowNs() - t0);
    out->repair_sim_ms.push_back((db->clock()->NowNanos() - sim0) / 1e6);
    if (!after.ok() || *after != before) {
      run->Fail("read after single-page repair of page " + std::to_string(leaf) +
                " does not return the pre-failure value of " + KeyOf(key));
    }
  }
  const std::vector<int64_t> cycle(out->heal_ns.begin() + first, out->heal_ns.end());
  out->cycle_heal_p99_ms.push_back(Percentile(cycle, 0.99) / 1e6);
}

void BurstRepair(spf::Database* db, Run* run, spf::Random* rng, Tracer::Buffer* tb,
                 DrillSamples* out) {
  std::set<spf::PageId> used;
  std::vector<spf::PageId> leaves;
  std::vector<std::pair<uint64_t, std::string>> probes;
  for (int i = 0; i < kBurstRepairPages; ++i) {
    uint64_t key;
    spf::PageId leaf;
    if (!PickCleanLeaf(db, run, rng, &used, &key, &leaf)) return;
    probes.emplace_back(key, ValueOrFail(db, run, key, "pre-failure read"));
    leaves.push_back(leaf);
  }
  for (spf::PageId leaf : leaves) {
    if (!db->pool()->DiscardPage(leaf)) run->Fail("DiscardPage refused an unpinned page");
    db->data_device()->InjectSilentCorruption(leaf, rng->Next());
  }
  const auto c0 = db->Stats().scheduler;
  const auto a0 = db->archive_device()->stats();
  const uint64_t sim0 = db->clock()->NowNanos();
  const int64_t t0 = NowNs();
  spf::StatusOr<spf::RecoverPagesResult> r = spf::Status::Internal("not run");
  {
    Span s(tb, "db.RecoverPages", 0, (uint64_t{5} << 48) | (out->burst_repair_ms.size() + 1));
    r = db->RecoverPages(leaves);
  }
  out->burst_repair_ms.push_back((NowNs() - t0) / 1e6);
  out->burst_repair_sim_ms.push_back((db->clock()->NowNanos() - sim0) / 1e6);
  const auto a1 = db->archive_device()->stats();
  out->archive_pages_per_page.push_back(static_cast<double>(a1.page_reads - a0.page_reads) /
                                        kBurstRepairPages);
  out->clusters.push_back(
      static_cast<double>(db->Stats().scheduler.chain_clusters - c0.chain_clusters));
  if (!r.ok()) {
    run->Fail("RecoverPages: " + r.status().ToString());
    return;
  }
  for (const auto& [key, before] : probes) {
    if (ValueOrFail(db, run, key, "read after RecoverPages") != before) {
      run->Fail("RecoverPages lost the pre-failure value of " + KeyOf(key));
    }
  }
}

}  // namespace

void RunDrill(spf::Database* db, Run* run, int cycles, bool primary) {
  Tracer::Buffer* tb = run->TraceBuffer();
  spf::Random rng(StreamSeed(run->seed, 3));
  DrillSamples d;
  LayerTotals totals;  // component counters, never across a crash
  const LayerCounters dev0 = ReadCounters(db);
  const uint64_t records = run->workload->records;

  for (int cycle = 0; cycle < cycles; ++cycle) {
    LayerCounters c0 = ReadCounters(db);
    Progress("drill cycle " + std::to_string(cycle + 1) + ": update burst");
    Burst(db, run, &rng, tb, primary, &d);
    Progress("drill: foreground repairs");
    ForegroundRepairs(db, run, &rng, tb, &d);
    Progress("drill: RecoverPages");
    BurstRepair(db, run, &rng, tb, &d);
    Progress("drill: crash + Restart");

    // 4. crash + restart
    uint64_t keys = 0;
    Versions before, after;
    const uint64_t digest = FullDigest(db, run, &keys, &before);
    totals.Add(c0, ReadCounters(db));
    db->SimulateCrash();
    {
      const uint64_t sim0 = db->clock()->NowNanos();
      const int64_t t0 = NowNs();
      spf::StatusOr<spf::RestartStats> rs = spf::Status::Internal("not run");
      {
        Span s(tb, "db.Restart", 0, (uint64_t{6} << 48) | (cycle + 1));
        rs = db->Restart();
      }
      d.restart_ms.push_back((NowNs() - t0) / 1e6);
      d.restart_sim_ms.push_back((db->clock()->NowNanos() - sim0) / 1e6);
      if (!rs.ok()) {
        run->Fail("Restart: " + rs.status().ToString());
        break;
      }
      d.analysis_sim_ms.push_back(rs->analysis_sim_seconds * 1e3);
      d.redo_sim_ms.push_back(rs->redo_sim_seconds * 1e3);
      d.redo_applied.push_back(static_cast<double>(rs->redo_applied));
      d.redo_page_reads.push_back(static_cast<double>(rs->redo_page_reads));
    }
    uint64_t keys_after = 0;
    if (FullDigest(db, run, &keys_after, &after) != digest || keys_after != keys ||
        keys != records) {
      run->Fail("digest after Restart differs from the digest before the crash; " +
                DescribeDiff(before, after));
    }

    Progress("drill: FailDevice + RecoverMedia");
    // 5. device failure + media recovery, with a committer waiting for its
    // first ack. Its key's leaf is not cached, so the commit needs the
    // failed device and waits for the restore to bring its page back.
    c0 = ReadCounters(db);
    const uint64_t ckey = rng.Uniform(records);
    const std::string old_value = ValueOrFail(db, run, ckey, "committer pre-read");
    auto cleaf = db->LeafPageOf(KeyOf(ckey));
    if (!cleaf.ok() || !db->pool()->EvictPage(*cleaf).ok()) run->Fail("evict committer leaf");
    const uint64_t cseq = run->writes.Record(kCommitterWriter, ckey);
    const std::string new_value = MakeValue(ckey, kCommitterWriter, cseq);
    std::atomic<int64_t> first_ack_ns{-1};
    db->data_device()->FailDevice();
    const int64_t failed_at = NowNs();
    std::thread committer([&] {
      while (NowNs() - failed_at < 30'000'000'000) {
        spf::Txn txn = db->BeginTxn();
        spf::TxnError err = txn.Put(KeyOf(ckey), new_value);
        if (err.ok()) err = txn.Commit();
        if (err.ok()) {
          first_ack_ns.store(NowNs() - failed_at);
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    const uint64_t sim0 = db->clock()->NowNanos();
    spf::StatusOr<spf::MediaRecoveryStats> ms = spf::Status::Internal("not run");
    {
      Span s(tb, "db.RecoverMedia", 0, (uint64_t{8} << 48) | (cycle + 1));
      ms = db->RecoverMedia();
    }
    d.restore_ms.push_back((NowNs() - failed_at) / 1e6);
    d.restore_sim_s.push_back((db->clock()->NowNanos() - sim0) / 1e9);
    committer.join();
    run->completed[kCommitterWriter].store(cseq + 1);
    if (!ms.ok()) {
      run->Fail("RecoverMedia: " + ms.status().ToString());
      break;
    }
    d.restore_part_sim_s.push_back(ms->restore_sim_seconds);
    d.replay_sim_s.push_back(ms->replay_sim_seconds);
    d.pages_restored.push_back(static_cast<double>(ms->pages_restored));
    d.on_demand_segments.push_back(static_cast<double>(ms->phases.on_demand_segments));
    d.admission_waits.push_back(static_cast<double>(ms->phases.admission_waits));
    ++d.ops;
    if (first_ack_ns.load() < 0) {
      ++d.ops_failed;
      run->Fail("no commit acknowledged within 30 s of the device failure");
    } else {
      d.first_ack_ms.push_back(first_ack_ns.load() / 1e6);
    }
    const uint64_t expected = digest - PairHash(KeyOf(ckey), old_value) +
                              PairHash(KeyOf(ckey), new_value);
    before = after;
    if (ckey < before.size()) before[ckey] = {kCommitterWriter, cseq};
    if (FullDigest(db, run, &keys_after, &after) != expected || keys_after != records) {
      run->Fail("digest after RecoverMedia differs from the digest before the failure; " +
                DescribeDiff(before, after));
    }
    totals.Add(c0, ReadCounters(db));
    // A fresh full backup closes the cycle (a periodic backup schedule):
    // every cycle then recovers one cycle's worth of log, so its samples
    // are alike instead of growing with the number of cycles run.
    auto backup = db->TakeFullBackup();
    if (!backup.ok()) run->Fail("TakeFullBackup: " + backup.status().ToString());
  }
  const LayerCounters dev1 = ReadCounters(db);
  auto series = [](const char* name, const std::vector<double>& v) {
    std::string out = std::string(name) + ":";
    for (double x : v) out += " " + std::to_string(x);
    return out;
  };
  Progress("drill per cycle, " + series("restart_ms", d.restart_ms) + "; " +
           series("restore_ms", d.restore_ms) + "; " + series("first_ack_ms", d.first_ack_ms) +
           "; " + series("burst_repair_ms", d.burst_repair_ms));

  // --- end-to-end -------------------------------------------------------------
  run->attempted += d.ops + d.heal_ns.size() + d.burst_repair_ms.size() +
                    d.restart_ms.size();
  run->failed += d.ops_failed;
  // Rates and tail latencies are taken per cycle and the median cycle is
  // reported, so a host hiccup moves one cycle, not the run's figure.
  if (primary) {
    run->E2e("ops_per_s", Median(d.cycle_ops_per_s), "1/s");
    run->E2e("op_p50_us", Percentile(d.op_ns, 0.50) / 1e3, "us");
    run->E2e("op_p99_us", Median(d.cycle_op_p99_us), "us");
    run->Layer("ops_failed_share",
               d.ops ? static_cast<double>(d.ops_failed) / d.ops : 0, "share");
    run->Layer("frame.max_ms",
               d.op_ns.empty() ? 0 : *std::max_element(d.op_ns.begin(), d.op_ns.end()) / 1e6,
               "ms");
    run->Layer("frame.stalls",
               static_cast<double>(std::count_if(d.op_ns.begin(), d.op_ns.end(),
                                                 [](int64_t ns) { return ns > kStallNs; })),
               "count");
  }
  if (!run->workload->heal_probe) {  // heal_spill's probe measures these
    run->E2e("heal_read_p50_ms", Percentile(d.heal_ns, 0.50) / 1e6, "ms");
    run->E2e("heal_read_p99_ms", Median(d.cycle_heal_p99_ms), "ms");
    run->Layer("heal.probes", static_cast<double>(d.heal_ns.size()), "count");
  }
  // Simulated times are means: their medians sit on the cost of the
  // common case, which is the same constant for every seed.
  run->E2e("repair_sim_ms", Mean(d.repair_sim_ms), "ms");
  run->E2e("burst_repair_ms", Median(d.burst_repair_ms), "ms");
  run->E2e("burst_repair_sim_ms", Median(d.burst_repair_sim_ms), "ms");
  run->E2e("restart_ms", Median(d.restart_ms), "ms");
  run->E2e("restart_sim_ms", Median(d.restart_sim_ms), "ms");
  run->E2e("restore_ms", Median(d.restore_ms), "ms");
  run->E2e("restore_sim_s", Mean(d.restore_sim_s), "s");
  run->E2e("first_ack_after_failure_ms", Median(d.first_ack_ms), "ms");

  // --- per layer --------------------------------------------------------------
  run->Layer("scheduler.clusters", Median(d.clusters), "count");
  run->Layer("scheduler.archive_pages_per_page", Median(d.archive_pages_per_page), "count");
  run->Layer("restart.analysis_sim_ms", Median(d.analysis_sim_ms), "ms");
  run->Layer("restart.redo_sim_ms", Median(d.redo_sim_ms), "ms");
  run->Layer("restart.redo_applied", Median(d.redo_applied), "count");
  run->Layer("restart.redo_page_reads", Median(d.redo_page_reads), "count");
  run->Layer("restore.restore_sim_s", Median(d.restore_part_sim_s), "s");
  run->Layer("restore.replay_sim_s", Median(d.replay_sim_s), "s");
  run->Layer("restore.pages_restored", Median(d.pages_restored), "count");
  run->Layer("restore.on_demand_segments", Median(d.on_demand_segments), "count");
  run->Layer("restore.admission_waits", Median(d.admission_waits), "count");
  LayerTotals devs;
  devs.AddDevices(dev0, dev1);
  const struct {
    const char* name;
    const DeviceDelta* delta;
  } kDevices[] = {{"data", &devs.data}, {"log", &devs.log}, {"archive", &devs.archive},
                  {"backup", &devs.backup}};
  for (const auto& dev : kDevices) {
    const std::string p = std::string("dev.") + dev.name + ".";
    run->Layer(p + "reads", static_cast<double>(dev.delta->reads) / cycles, "count");
    run->Layer(p + "bytes_read", static_cast<double>(dev.delta->bytes_read) / cycles, "B");
    run->Layer(p + "bytes_written", static_cast<double>(dev.delta->bytes_written) / cycles,
               "B");
    run->Layer(p + "sim_ms", dev.delta->sim_ns / 1e6 / cycles, "ms");
  }
  if (primary) {
    ReportEngineLayers(run, totals, d.ops, d.user_bytes);
    // The drill has no wire: the serving-fabric metrics do not apply.
    run->Layer("server.fabric_us", 0, "us");
    run->Layer("server.codec_ns_per_frame", 0, "ns");
    run->Layer("server.retries_per_frame", 0, "count");
    const double plain = d.burst_plain_ns ? d.plain_ops / (d.burst_plain_ns / 1e9) : 0;
    const double traced = d.burst_traced_ns ? d.traced_ops / (d.burst_traced_ns / 1e9) : 0;
    run->Layer("trace.ops_per_s_untraced", plain, "1/s");
    run->Layer("trace.ops_per_s_traced", traced, "1/s");
    run->Layer("trace.overhead_share", plain > 0 && traced > 0 ? 1 - traced / plain : 0,
               "share");
  }
}

}  // namespace spfbench
