// Bounded chaos-harness runs for ctest (tools/chaos): DSL round-trips,
// replay determinism, three pinned scenario mixes with every online
// invariant check enabled, and the tests/chaos_seeds/ regression corpus.
// The open-ended torture loop lives in the chaos_driver binary (nightly
// CI); everything here is sized to finish in seconds.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos_driver.h"
#include "chaos/chaos_schedule.h"
#include "chaos/invariants.h"

namespace spf {
namespace chaos {
namespace {

// A small, fast workload shape shared by the scenario-mix tests.
ChaosSchedule SmallSchedule(uint64_t seed) {
  ChaosSchedule s;
  s.seed = seed;
  s.writers = 2;
  s.txns_per_writer = 24;
  s.ops_per_txn = 3;
  s.keys_per_writer = 48;
  s.value_len = 18;
  s.seed_records = 400;
  s.contended_keys = 3;
  s.batch_pct = 30;
  s.delete_pct = 15;
  s.contended_pct = 10;
  s.scan_every = 6;
  s.restore_segment_pages = 32;
  s.drain_timeout_ms = 1000;
  return s;
}

void ExpectClean(const ChaosReport& report) {
  for (const std::string& v : report.violations) {
    ADD_FAILURE() << "invariant violation: " << v;
  }
  EXPECT_TRUE(report.ok());
}

TEST(ChaosScheduleTest, GenerateIsDeterministic) {
  ChaosSchedule a = GenerateSchedule(1234);
  ChaosSchedule b = GenerateSchedule(1234);
  EXPECT_EQ(SerializeSchedule(a), SerializeSchedule(b));
  ChaosSchedule c = GenerateSchedule(1235);
  EXPECT_NE(SerializeSchedule(a), SerializeSchedule(c));
}

TEST(ChaosScheduleTest, DslRoundTrip) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 0xdeadbeefull}) {
    ChaosSchedule s = GenerateSchedule(seed);
    std::string text = SerializeSchedule(s);
    auto parsed = ParseSchedule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(text, SerializeSchedule(*parsed)) << "seed " << seed;
  }
}

TEST(ChaosScheduleTest, TraceFooterRoundTrip) {
  ChaosSchedule s = GenerateSchedule(7);
  TraceResult r;
  r.present = true;
  r.schedule_digest = 111;
  r.shadow_digest = 222;
  r.committed_txns = 333;
  r.events_fired = 4;
  std::string trace = SerializeTrace(s, r);
  TraceResult back;
  auto parsed = ParseSchedule(trace, &back);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(back.present);
  EXPECT_EQ(back.schedule_digest, 111u);
  EXPECT_EQ(back.shadow_digest, 222u);
  EXPECT_EQ(back.committed_txns, 333u);
  EXPECT_EQ(back.events_fired, 4u);
  EXPECT_EQ(SerializeSchedule(s), SerializeSchedule(*parsed));
}

TEST(ChaosScheduleTest, ParseRejectsTypos) {
  // A typo in a pinned scenario must not silently change the scenario.
  EXPECT_FALSE(ParseSchedule("writerz 3\n").ok());
  EXPECT_FALSE(ParseSchedule("event at=1 kind=corupt key=2\n").ok());
  EXPECT_FALSE(ParseSchedule("event at=1 kind=crash key=2 bogus=3\n").ok());
  EXPECT_FALSE(ParseSchedule("writers three\n").ok());
}

// The core replay contract: the same schedule produces the same committed
// state (shadow digest) and the same committed-transaction count, every
// time, regardless of thread scheduling.
TEST(ChaosDriverTest, ReplayIsDeterministic) {
  ChaosSchedule s = SmallSchedule(99);
  s.events.push_back({10, EventKind::kCorrupt, 17, 1, 0});
  s.events.push_back({20, EventKind::kCrash, 0, 1, 0});
  s.events.push_back({30, EventKind::kQuiesce, 0, 1, 0});

  ChaosReport first = ChaosDriver(s).Run();
  ExpectClean(first);
  ChaosReport second = ChaosDriver(s).Run();
  ExpectClean(second);
  EXPECT_EQ(first.schedule_digest, second.schedule_digest);
  EXPECT_EQ(first.shadow_digest, second.shadow_digest);
  EXPECT_EQ(first.committed_txns, second.committed_txns);
  EXPECT_EQ(first.committed_txns, s.total_txns());
}

// Scenario mix 1: single-page failure classes under live traffic — silent
// corruption, a transient read error, a worn-out location that re-fails
// after repair, a multi-page range failure — with a mid-run quiesce.
TEST(ChaosDriverTest, ScenarioSinglePageClasses) {
  ChaosSchedule s = SmallSchedule(301);
  s.events.push_back({6, EventKind::kCorrupt, 31, 1, 0});
  s.events.push_back({12, EventKind::kReadError, 97, 1, 0});
  s.events.push_back({18, EventKind::kWearOut, 55, 1, 2});
  s.events.push_back({24, EventKind::kFailRange, 120, 4, 0});
  s.events.push_back({32, EventKind::kQuiesce, 0, 1, 0});
  s.events.push_back({40, EventKind::kBackup, 0, 1, 0});
  ExpectClean(ChaosDriver(s).Run());
}

// Scenario mix 2: media events — a live-traffic full restore, back-to-back
// restores, a checkpoint, and a crash — stale-version pair included.
TEST(ChaosDriverTest, ScenarioMediaAndCrash) {
  ChaosSchedule s = SmallSchedule(302);
  s.events.push_back({5, EventKind::kStaleCapture, 1, 1, 0});
  s.events.push_back({10, EventKind::kFullRestore, 0, 1, 0});
  s.events.push_back({16, EventKind::kStaleRevert, 1, 1, 0});
  s.events.push_back({22, EventKind::kCheckpoint, 0, 1, 0});
  s.events.push_back({28, EventKind::kBackToBackRestore, 0, 1, 0});
  s.events.push_back({36, EventKind::kCrash, 0, 1, 0});
  ExpectClean(ChaosDriver(s).Run());
}

// Scenario mix 3: the hard one — a restore that fails mid-sweep (real
// data loss in segment 0, poisoned backup segment mid-device), a crash on
// top of the half-restored device, the finishing restore, then a second
// crash and a final quiesce.
TEST(ChaosDriverTest, ScenarioCrashDuringRestore) {
  ChaosSchedule s = SmallSchedule(303);
  s.restore_segment_pages = 64;
  s.events.push_back({8, EventKind::kCorrupt, 9, 1, 0});
  s.events.push_back({16, EventKind::kCrashDuringRestore, 0, 1, 0});
  s.events.push_back({28, EventKind::kCrash, 0, 1, 0});
  s.events.push_back({38, EventKind::kQuiesce, 0, 1, 0});
  ExpectClean(ChaosDriver(s).Run());
}

// Crash-only mix: writers, a checkpoint and repeated crashes, no fault
// events. Write-back crashes leave completed writes whose PriUpdates were
// in the lost log tail; plain crashes leave dirty pages for redo to
// replay. Neither is a single-page failure, so restart must repair
// nothing (a lost PriUpdate is regenerated, Figure 12 third row).
TEST(ChaosDriverTest, ScenarioCrashOnlyRepairsNothing) {
  ChaosSchedule s = SmallSchedule(304);
  s.events.push_back({6, EventKind::kWriteBackCrash, 0, 1, 0});
  s.events.push_back({12, EventKind::kCheckpoint, 0, 1, 0});
  s.events.push_back({18, EventKind::kCrash, 0, 1, 0});
  s.events.push_back({26, EventKind::kWriteBackCrash, 0, 1, 0});
  s.events.push_back({34, EventKind::kWriteBackCrash, 0, 1, 0});
  s.events.push_back({42, EventKind::kQuiesce, 0, 1, 0});
  ChaosReport report = ChaosDriver(s).Run();
  ExpectClean(report);
  EXPECT_EQ(report.events_fired, s.events.size());
  EXPECT_EQ(report.restart_repairs, 0u);
}

// Regression corpus: every .chaos file in tests/chaos_seeds/ replays
// clean, and files carrying a `# result` footer must reproduce it.
TEST(ChaosDriverTest, SeedCorpusReplaysClean) {
#ifndef SPF_CHAOS_SEED_DIR
  GTEST_SKIP() << "SPF_CHAOS_SEED_DIR not configured";
#else
  std::filesystem::path dir(SPF_CHAOS_SEED_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".chaos") files.push_back(entry.path());
  }
  ASSERT_FALSE(files.empty()) << "no .chaos seeds in " << dir;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    TraceResult recorded;
    auto parsed = ParseSchedule(buf.str(), &recorded);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ChaosReport report = ChaosDriver(*parsed).Run();
    ExpectClean(report);
    if (recorded.present) {
      EXPECT_EQ(report.schedule_digest, recorded.schedule_digest);
      EXPECT_EQ(report.shadow_digest, recorded.shadow_digest);
      EXPECT_EQ(report.committed_txns, recorded.committed_txns);
    }
  }
#endif
}

// StatsSnapshot v3 added the network-server block; the invariant layer
// must cover it: version stamp pinned, server counters monotone within
// an epoch, and the frame-outcome conservation law.
TEST(ChaosInvariantsTest, SnapshotV3ServerBlockIsCovered) {
  SnapshotMonotonicity mono;
  StatsSnapshot a;
  ASSERT_EQ(StatsSnapshot::kVersion, 3u);  // this test covers the v3 bump
  a.server.frames_decoded = 10;
  a.server.txns_committed = 8;
  a.server.ops_served = 20;
  EXPECT_TRUE(mono.Check(a).empty());

  // A server counter regressing inside one epoch is a violation.
  StatsSnapshot b = a;
  b.server.frames_decoded = 4;
  std::vector<std::string> v = mono.Check(b);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("server.frames_decoded"), std::string::npos);

  // A snapshot stamped with an outdated version is caught every call.
  StatsSnapshot stale = b;
  stale.version = 2;
  v = mono.Check(stale);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("snapshot version"), std::string::npos);

  // NoteReset forgives the post-crash restart of the volatile counters.
  mono.NoteReset();
  StatsSnapshot fresh;
  EXPECT_TRUE(mono.Check(fresh).empty());
}

TEST(ChaosInvariantsTest, ServerConservationLaw) {
  ServerStats s;
  s.connections_accepted = 5;
  s.connections_closed = 5;
  s.frames_decoded = 10;
  s.txns_committed = 6;
  s.txns_failed = 3;
  s.info_requests = 1;
  s.gate_parked_commits = 2;
  EXPECT_TRUE(CheckServerConservation(s).empty());

  ServerStats leak = s;
  leak.txns_failed = 2;  // one decoded frame vanished without an outcome
  std::vector<std::string> v = CheckServerConservation(leak);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("frames_decoded"), std::string::npos);

  ServerStats overclosed = s;
  overclosed.connections_closed = 6;
  EXPECT_EQ(CheckServerConservation(overclosed).size(), 1u);

  ServerStats overparked = s;
  overparked.gate_parked_commits = 100;
  EXPECT_EQ(CheckServerConservation(overparked).size(), 1u);
}

}  // namespace
}  // namespace chaos
}  // namespace spf
