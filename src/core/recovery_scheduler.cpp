#include "common/sync.h"
#include "core/recovery_scheduler.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <queue>
#include <thread>

#include "btree/btree_log.h"

namespace spf {

// --- worker pool ------------------------------------------------------------

/// Minimal persistent parallel-for pool. One job at a time (the scheduler
/// serializes batches); the coordinating thread participates in the work,
/// so num_workers == 0 degenerates to an inline loop.
///
/// Each job is its own heap object: a worker that wakes late snapshots
/// whatever job_ points to under the mutex, and can only claim indices
/// from THAT job's exhausted counter — never from a newer job — so a
/// laggard neither dereferences a cleared function pointer nor steals
/// work from the next ParallelFor.
class RecoveryScheduler::WorkerPool {
 public:
  explicit WorkerPool(size_t n) {
    threads_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }

  ~WorkerPool() {
    {
      MutexLock g(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
    if (threads_.empty() || count <= 1) {
      for (size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->count = count;

    UniqueLock lk(mu_);
    job_ = job;
    generation_++;
    cv_.notify_all();
    lk.Unlock();

    Run(*job);

    lk.Lock();
    while (active_ != 0) done_cv_.wait(lk);
    // `fn` dies with this frame; laggards holding the old job see its
    // counter exhausted and never touch fn again.
  }

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
  };

  static void Run(Job& job) {
    size_t i;
    while ((i = job.next.fetch_add(1, std::memory_order_relaxed)) <
           job.count) {
      (*job.fn)(i);
    }
  }

  void Loop() {
    uint64_t seen = 0;
    UniqueLock lk(mu_);
    while (true) {
      while (!shutdown_ && generation_ == seen) cv_.wait(lk);
      if (shutdown_) return;
      seen = generation_;
      std::shared_ptr<Job> job = job_;
      active_++;
      lk.Unlock();
      Run(*job);
      lk.Lock();
      if (--active_ == 0) done_cv_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  OrderedMutex mu_{LockRank::kRepairWorkers};
  CondVar cv_;
  CondVar done_cv_;
  /// Current (or most recent) job.
  std::shared_ptr<Job> job_ SPF_GUARDED_BY(mu_);
  uint64_t generation_ SPF_GUARDED_BY(mu_) = 0;
  size_t active_ SPF_GUARDED_BY(mu_) = 0;
  bool shutdown_ SPF_GUARDED_BY(mu_) = false;
};

// --- per-page task ----------------------------------------------------------

struct RecoveryScheduler::PageTask {
  PageId id = kInvalidPageId;
  PriEntry entry;
  std::unique_ptr<char[]> frame;
  Lsn backup_lsn = kInvalidLsn;       ///< PageLSN of the loaded backup image
  std::vector<LogRecord> chain;       ///< collected descending (LIFO stack)
  Lsn next_lsn = kInvalidLsn;         ///< walk cursor (descending)
  SinglePageRecoveryStats acc;        ///< batch-local counters
  Status status;                      ///< first error, if any
  bool done = false;                  ///< no further phases needed

  void Fail(Status s) {
    if (status.ok()) status = std::move(s);
    done = true;
  }

  /// Sets the chain-walk cursor once `frame` holds the backup image whose
  /// PageLSN is `backup`. A page not updated since that image skips the
  /// walk entirely.
  void SetChainTarget(Lsn backup) {
    backup_lsn = backup;
    if (entry.last_lsn == kInvalidLsn || entry.last_lsn <= backup) {
      next_lsn = kInvalidLsn;
    } else {
      next_lsn = entry.last_lsn;
    }
  }
};

// --- scheduler --------------------------------------------------------------

namespace {
/// Segment size for the shared log reads of a cluster walk.
constexpr uint64_t kLogSegmentBytes = 256 * 1024;
}  // namespace

RecoveryScheduler::RecoveryScheduler(SinglePageRecovery* spr,
                                     uint32_t num_workers)
    : spr_(spr), num_workers_(num_workers) {}

RecoveryScheduler::~RecoveryScheduler() = default;

Status RecoveryScheduler::RepairPage(PageId id, char* frame) {
  {
    MutexLock g(stats_mu_);
    stats_.single_repairs++;
  }
  return spr_->RepairPage(id, frame);
}

RecoverySchedulerStats RecoveryScheduler::stats() const {
  MutexLock g(stats_mu_);
  return stats_;
}

void RecoveryScheduler::ResetStats() {
  MutexLock g(stats_mu_);
  stats_ = RecoverySchedulerStats();
}

std::vector<RecoveryScheduler::PageTask> RecoveryScheduler::PrepareBatch(
    std::vector<PageId>* pages) {
  std::sort(pages->begin(), pages->end());
  pages->erase(std::unique(pages->begin(), pages->end()), pages->end());

  std::vector<PageTask> tasks(pages->size());
  for (size_t i = 0; i < pages->size(); ++i) {
    tasks[i].id = (*pages)[i];
    tasks[i].acc.repairs_attempted++;
  }

  MutexLock g(stats_mu_);
  stats_.batches++;
  stats_.pages_requested += pages->size();
  return tasks;
}

StatusOr<BatchRepairResult> RecoveryScheduler::RepairBatch(
    std::vector<PageId> pages) {
  return RepairBatchImpl(std::move(pages), /*notify_sink=*/true);
}

StatusOr<BatchRepairResult> RecoveryScheduler::RepairBatchNoEscalation(
    std::vector<PageId> pages) {
  return RepairBatchImpl(std::move(pages), /*notify_sink=*/false);
}

void RecoveryScheduler::SetEscalationSink(
    std::function<void(std::vector<PageId>)> sink) {
  escalation_sink_ = std::move(sink);
}

StatusOr<BatchRepairResult> RecoveryScheduler::RepairBatchImpl(
    std::vector<PageId> pages, bool notify_sink) {
  BatchRepairResult result;
  {
    MutexLock batch_guard(batch_mu_);

    std::vector<PageTask> tasks = PrepareBatch(&pages);
    PartialRestoreBreakdown unused;
    result = RepairBatched(&tasks, std::nullopt, &unused);

    MutexLock g(stats_mu_);
    stats_.pages_repaired += result.repaired;
    stats_.pages_failed += result.failed;
  }
  // Sink outside batch_mu_: the funnel's drain may start another batch.
  if (notify_sink && escalation_sink_ != nullptr && !result.failures.empty()) {
    std::vector<PageId> unhealed;
    unhealed.reserve(result.failures.size());
    for (const PageRepairOutcome& f : result.failures) {
      unhealed.push_back(f.page_id);
    }
    escalation_sink_(std::move(unhealed));
  }
  return result;
}

StatusOr<BatchRepairResult> RecoveryScheduler::RepairBatchFromBackup(
    std::vector<PageId> pages, BackupId backup,
    PartialRestoreBreakdown* breakdown) {
  MutexLock batch_guard(batch_mu_);

  std::vector<PageTask> tasks = PrepareBatch(&pages);
  PartialRestoreBreakdown local;
  BatchRepairResult result = RepairBatched(
      &tasks, backup, breakdown != nullptr ? breakdown : &local);

  {
    MutexLock g(stats_mu_);
    stats_.partial_restores++;
    stats_.pages_repaired += result.repaired;
    stats_.pages_failed += result.failed;
  }
  return result;
}

BatchRepairResult RecoveryScheduler::RepairBatched(
    std::vector<PageTask>* tasks, std::optional<BackupId> restore_from,
    PartialRestoreBreakdown* bd) {
  SimTimer timer(spr_->clock());
  const uint32_t page_size = spr_->page_size();
  // Spawn the worker threads on first use only: most Database instances
  // (tests, crash/restart cycles) never repair a batch.
  if (workers_ == nullptr) {
    workers_ = std::make_unique<WorkerPool>(num_workers_);
  }

  // --- phase 0: PRI lookups (in-memory) -------------------------------------
  // Partial restore tolerates entries whose backup reference was lost.
  for (PageTask& task : *tasks) {
    auto entry_or = restore_from ? spr_->LookupChainAnchor(task.id)
                                 : spr_->LookupEntry(task.id);
    if (!entry_or.ok()) {
      task.Fail(entry_or.status());
      continue;
    }
    task.entry = *entry_or;
    task.frame = std::make_unique<char[]>(page_size);
  }

  // --- phase 1: backup loads, grouped by backup source ----------------------
  // Pages restored from the same full backup are read in one ascending
  // pass of its sorted reader (sequential runs with short gaps read
  // through). Every other source is an independent point read; those
  // pages fan out across the worker pool only AFTER the sorted passes, so
  // no per-page slot read interleaves with a pass on the same device.
  //
  // Partial restore reads kFullBackup pages and pages whose reference was
  // LOST (kNone — where RepairBatch has to escalate) from `restore_from`.
  // Any per-page reference (individual copy, in-log image, format record)
  // is NEWER than the full backup — the index collapses to kFullBackup at
  // every OnFullBackup — and for a page born after the backup it is the
  // ONLY valid source: the page's full-backup slot holds pre-birth bytes.
  SimTimer restore_timer(spr_->clock());
  // Tasks are in ascending id order (PrepareBatch sorted them), so every
  // full-backup group is too.
  std::map<BackupId, std::vector<size_t>> from_full;
  std::vector<size_t> from_per_page;
  for (size_t i = 0; i < tasks->size(); ++i) {
    const PageTask& task = (*tasks)[i];
    if (task.done) continue;
    const BackupRef& ref = task.entry.backup;
    if (restore_from && (ref.kind == BackupKind::kFullBackup ||
                         ref.kind == BackupKind::kNone)) {
      from_full[*restore_from].push_back(i);
    } else if (ref.kind == BackupKind::kFullBackup) {
      from_full[ref.value].push_back(i);
    } else {
      from_per_page.push_back(i);
    }
  }
  for (const auto& [backup, idxs] : from_full) {
    bd->backup_runs += LoadFromFullBackup(tasks, idxs, backup);
    for (size_t idx : idxs) {
      if ((*tasks)[idx].status.ok()) bd->backup_pages_loaded++;
    }
  }
  workers_->ParallelFor(from_per_page.size(), [&](size_t i) {
    PageTask& task = (*tasks)[from_per_page[i]];
    Status s = spr_->LoadBackupImage(task.id, task.entry, task.frame.get(),
                                     &task.acc);
    if (!s.ok()) {
      task.Fail(std::move(s));
      return;
    }
    task.SetChainTarget(PageView(task.frame.get(), page_size).page_lsn());
  });
  for (size_t idx : from_per_page) {
    if ((*tasks)[idx].status.ok()) bd->per_page_loads++;
  }
  bd->restore_sim_seconds = restore_timer.ElapsedSeconds();
  {
    MutexLock g(stats_mu_);
    stats_.backup_groups += from_full.size() + from_per_page.size();
  }

  // --- phases 2-3: shared-segment cluster walk, then apply + verify + heal ---
  SimTimer replay_timer(spr_->clock());
  WalkClusters(tasks, &bd->segment_fetches);
  ApplyPhase(tasks);
  bd->replay_sim_seconds = replay_timer.ElapsedSeconds();

  BatchRepairResult result = CollectOutcomes(tasks, timer);
  for (const PageTask& task : *tasks) {
    bd->records_applied += task.acc.log_records_applied;
  }
  return result;
}

uint64_t RecoveryScheduler::LoadFromFullBackup(std::vector<PageTask>* tasks,
                                               const std::vector<size_t>& idxs,
                                               BackupId backup) {
  const uint32_t page_size = spr_->page_size();
  std::vector<PageId> ids;
  std::vector<char*> frames;
  for (size_t idx : idxs) {
    ids.push_back((*tasks)[idx].id);
    frames.push_back((*tasks)[idx].frame.get());
  }
  std::vector<Status> read_status;
  auto streams_or = spr_->backups()->ReadPagesFromFullBackup(
      backup, ids, frames.data(), &read_status);
  if (!streams_or.ok()) {
    for (size_t idx : idxs) (*tasks)[idx].Fail(streams_or.status());
    return 0;
  }
  for (size_t k = 0; k < idxs.size(); ++k) {
    PageTask& task = (*tasks)[idxs[k]];
    PageView page(task.frame.get(), page_size);
    Status s = read_status[k];
    if (s.ok()) s = page.Verify(task.id);
    if (!s.ok()) {
      task.Fail(std::move(s));
      continue;
    }
    task.acc.backup_reads++;
    task.acc.last_backup_kind = BackupKind::kFullBackup;
    task.SetChainTarget(page.page_lsn());
  }
  return *streams_or;
}

void RecoveryScheduler::WalkClusters(std::vector<PageTask>* tasks,
                                     uint64_t* fetches) {
  // Cluster pages whose chain ranges (backup_lsn, target] overlap; each
  // cluster is walked once, popping records in descending LSN order so
  // every shared log segment is fetched exactly once.
  struct Range {
    Lsn lo, hi;
    size_t idx;
  };
  std::vector<Range> ranges;
  for (size_t i = 0; i < tasks->size(); ++i) {
    PageTask& task = (*tasks)[i];
    if (task.done || task.next_lsn == kInvalidLsn) continue;
    Lsn lo = task.backup_lsn == kInvalidLsn ? 0 : task.backup_lsn;
    ranges.push_back({lo, task.entry.last_lsn, i});
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  size_t cluster_count = 0;
  uint64_t total_fetches = 0;
  size_t pos = 0;
  while (pos < ranges.size()) {
    std::vector<size_t> members{ranges[pos].idx};
    Lsn hi = ranges[pos].hi;
    size_t end = pos + 1;
    while (end < ranges.size() && ranges[end].lo <= hi) {
      hi = std::max(hi, ranges[end].hi);
      members.push_back(ranges[end].idx);
      end++;
    }
    total_fetches += WalkCluster(tasks, members);
    cluster_count++;
    pos = end;
  }
  *fetches += total_fetches;
  MutexLock g(stats_mu_);
  stats_.chain_clusters += cluster_count;
  stats_.segment_fetches += total_fetches;
}

void RecoveryScheduler::ApplyPhase(std::vector<PageTask>* tasks) {
  workers_->ParallelFor(tasks->size(), [&](size_t i) {
    PageTask& task = (*tasks)[i];
    if (task.done) return;
    Status s = spr_->ApplyChain(&task.chain, task.frame.get(), &task.acc);
    if (s.ok()) {
      s = spr_->FinishRepair(task.id, task.entry, task.frame.get(),
                             &task.acc);
    }
    if (!s.ok()) task.Fail(std::move(s));
  });
}

BatchRepairResult RecoveryScheduler::CollectOutcomes(
    std::vector<PageTask>* tasks, const SimTimer& timer) {
  // The batch shares one clock, so per-page timing is not separable;
  // publish the amortized per-page cost as the last-repair snapshot.
  BatchRepairResult result;
  uint64_t succeeded = 0;
  for (const PageTask& task : *tasks) {
    if (task.status.ok()) succeeded++;
  }
  uint64_t per_page_ns = succeeded > 0 ? timer.ElapsedNanos() / succeeded : 0;
  for (PageTask& task : *tasks) {
    if (task.status.ok()) {
      result.repaired++;
      spr_->NoteLastRepair(task.acc.last_chain_length, per_page_ns,
                           task.acc.last_backup_kind);
    } else {
      result.failed++;
      task.acc.escalations++;
      result.failures.push_back(
          {task.id, SinglePageRecovery::Escalate(task.id, task.status)});
    }
    spr_->MergeStats(task.acc, task.id);
  }
  return result;
}

uint64_t RecoveryScheduler::WalkCluster(std::vector<PageTask>* tasks,
                                        const std::vector<size_t>& members) {
  // Snapshot the archive watermark once per cluster: it only advances, so
  // every chain pointer below it is guaranteed to be in a published run.
  LogArchiver* const archive = spr_->archive();
  const Lsn archived_upto = archive != nullptr ? archive->archived_upto() : 0;
  // Per-member newest archived chain LSN, kInvalidLsn while the walk is
  // still in the tail. Set when a chain pointer drops below the watermark;
  // the archived remainder is fetched in one batch after the heap drains.
  std::vector<Lsn> archived_hi(members.size(), kInvalidLsn);

  // Max-heap over every member's next chain pointer: records pop in
  // globally descending LSN order, so the segment reader's window slides
  // monotonically backward through the log and fetches each segment once.
  using HeapItem = std::pair<Lsn, size_t>;  // (next lsn, member position)
  std::priority_queue<HeapItem> heap;
  for (size_t m = 0; m < members.size(); ++m) {
    PageTask& task = (*tasks)[members[m]];
    if (task.done || task.next_lsn == kInvalidLsn) continue;
    if (task.next_lsn < archived_upto) {
      archived_hi[m] = task.next_lsn;
    } else {
      heap.push({task.next_lsn, m});
    }
  }

  LogSegmentReader reader(spr_->log(), kLogSegmentBytes);
  while (!heap.empty()) {
    auto [lsn, m] = heap.top();
    heap.pop();
    PageTask& task = (*tasks)[members[m]];
    if (task.done) continue;
    auto rec_or = reader.Read(lsn);
    if (!rec_or.ok()) {
      task.Fail(rec_or.status());
      continue;
    }
    LogRecord rec = std::move(rec_or).value();
    if (rec.page_id != task.id) {
      task.Fail(Status::Corruption("per-page chain contains foreign record"));
      continue;
    }
    Lsn prev = rec.page_prev_lsn;
    task.chain.push_back(std::move(rec));
    if (prev != kInvalidLsn && prev > task.backup_lsn) {
      if (prev < archived_upto) {
        archived_hi[m] = prev;  // leave the tail; finish from sorted runs
      } else {
        heap.push({prev, m});
      }
    } else if (prev != task.backup_lsn && prev != kInvalidLsn) {
      task.Fail(
          Status::Corruption("per-page chain does not reach the backup"));
    }
  }

  uint64_t archive_pages = 0;
  FetchArchivedChains(tasks, members, archived_hi, &archive_pages);

  // Attribute the shared segment fetches (and the cluster's archive range
  // fetch) to the cluster's first member's accumulator (the aggregate is
  // what the counters are for).
  if (!members.empty()) {
    (*tasks)[members.front()].acc.log_reads += reader.segment_fetches();
    (*tasks)[members.front()].acc.archive_reads += archive_pages;
  }
  return reader.segment_fetches();
}

void RecoveryScheduler::FetchArchivedChains(
    std::vector<PageTask>* tasks, const std::vector<size_t>& members,
    const std::vector<Lsn>& archived_hi, uint64_t* archive_pages) {
  // Completes every cluster member whose chain walk crossed the archive
  // watermark: ONE chain-following fetch over the sorted runs covers the
  // whole cluster's archived remainders, reading only the runs that hold
  // them — the run store's analogue of the shared segment reads above.
  std::vector<ChainRequest> requests;
  std::vector<size_t> owner;  // request -> member position
  for (size_t m = 0; m < members.size(); ++m) {
    if (archived_hi[m] == kInvalidLsn) continue;
    const PageTask& task = (*tasks)[members[m]];
    if (task.done) continue;
    requests.push_back({task.id, task.backup_lsn, archived_hi[m]});
    owner.push_back(m);
  }
  if (requests.empty()) return;
  LogArchiver* const archive = spr_->archive();
  SPF_CHECK(archive != nullptr) << "archived chain without an archive";

  std::vector<ChainFetch> fetched;
  auto pages_or = archive->FetchChains(requests, &fetched);
  for (size_t i = 0; i < requests.size(); ++i) {
    PageTask& task = (*tasks)[members[owner[i]]];
    const Status& s = pages_or.ok() ? fetched[i].status : pages_or.status();
    if (!s.ok()) {
      task.Fail(s);
      continue;
    }
    // task.chain is newest-first; the archived records are older than
    // everything already collected.
    for (LogRecord& rec : fetched[i].newest_first) {
      task.chain.push_back(std::move(rec));
    }
  }
  if (!pages_or.ok()) return;
  *archive_pages += pages_or.value();

  MutexLock g(stats_mu_);
  stats_.archive_fetches++;
}

}  // namespace spf
