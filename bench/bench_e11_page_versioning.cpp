// E11 — Page versioning via single-page rollback (paper section 5.1.4).
//
// "Snapshot isolation can be implemented by taking an up-to-date copy of a
// database page and rolling it back using 'undo' information in the
// recovery log" — the same per-page log chain that powers single-page
// recovery also materializes historical page versions. This bench sweeps
// the rollback distance (number of chained updates to unwind) and reports
// the cost, which — like single-page recovery — is one random log read
// per record on disk-class log storage, and near-free once the chain is
// cached.

#include "bench_util.h"
#include "comparators/page_versioning.h"

namespace spf {
namespace bench {
namespace {

void Run() {
  printf("E11: materializing old page versions by per-page rollback\n");
  Table table({"rollback distance", "log reads", "rollback time",
               "verified against history"});

  std::vector<int> distances{1, 10, 50, 200};
  if (SmokeMode()) distances = {1, 10};
  for (int distance : distances) {
    DatabaseOptions options = DiskOptions(4096);
    options.backup_policy.updates_threshold = 0;
    auto db = MakeLoadedDb(options, 1000);

    // Build a known update history on one key and remember the LSN and
    // value after each step.
    auto victim_or = db->LeafPageOf(Key(500));
    SPF_CHECK(victim_or.ok());
    PageId victim = *victim_or;
    std::vector<std::pair<Lsn, std::string>> history;  // (page_lsn, value)
    for (int i = 0; i <= distance; ++i) {
      Txn t = db->BeginTxn();
      std::string value = "version-" + std::to_string(i);
      SPF_CHECK_OK(t.Update(Key(500), value));
      SPF_CHECK_OK(t.Commit());
      auto guard = db->pool()->FixPage(victim, LatchMode::kShared);
      SPF_CHECK(guard.ok());
      history.emplace_back(guard->view().page_lsn(), value);
    }

    // Copy the current page and roll it back to the FIRST recorded state.
    PageBuffer copy(kDefaultPageSize);
    {
      auto guard = db->pool()->FixPage(victim, LatchMode::kShared);
      SPF_CHECK(guard.ok());
      std::memcpy(copy.data(), guard->view().data(), kDefaultPageSize);
    }
    PageVersioning versioning(db->log());
    SimTimer timer(db->clock());
    Status s = versioning.RollBackTo(copy.view(), history.front().first);
    double elapsed = timer.ElapsedSeconds();
    SPF_CHECK_OK(s);

    // The rolled-back image must show the historical value.
    BTreeNode node(copy.view());
    auto fr = node.Find(Key(500));
    SPF_CHECK(fr.found);
    bool verified = node.ValueAt(fr.slot) == history.front().second &&
                    copy.view().page_lsn() == history.front().first;
    PageVersionStats stats = versioning.stats();
    table.AddRow({std::to_string(distance), std::to_string(stats.log_reads),
                  FormatSeconds(elapsed), verified ? "yes" : "NO"});
  }
  table.Print();
  printf(
      "\nPaper expectation: version distance N costs N chained log reads -\n"
      "the same linear-in-chain-length behavior as single-page recovery\n"
      "(E3), because both walk the identical per-page chain, one applying\n"
      "redo forward from a backup, the other undo backward from the\n"
      "current image.\n");
}

}  // namespace
}  // namespace bench
}  // namespace spf

int main(int argc, char** argv) {
  spf::bench::Init(argc, argv);
  spf::bench::Run();
  return 0;
}
