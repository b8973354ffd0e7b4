// Per-layer counters read in-process: every component's stats() plus
// Database::Stats() and SimDevice::stats(), snapshotted around each
// measured phase. Deltas are taken between snapshots of the same
// incarnation of the volatile components (a crash rebuilds them and
// restarts their counters); the devices survive crashes.

#pragma once

#include <cstdint>

#include "db/database.h"

namespace spfbench {

struct DeviceDelta {
  uint64_t reads = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t sim_ns = 0;
};

struct LayerCounters {
  spf::StatsSnapshot db;
  spf::BTreeStats btree;
  spf::BackupStats backup;
  spf::PriManagerStats pri;
  spf::DeviceStats data, log, archive, backup_dev;
};

inline LayerCounters ReadCounters(spf::Database* db) {
  LayerCounters c;
  c.db = db->Stats();
  c.btree = db->tree()->stats();
  c.backup = db->backups()->stats();
  c.pri = db->pri_manager()->stats();
  c.data = db->data_device()->stats();
  c.log = db->log_device()->stats();
  c.archive = db->archive_device()->stats();
  c.backup_dev = db->backup_device()->stats();
  return c;
}

/// Accumulated per-layer work over one or more phases.
struct LayerTotals {
  // buffer pool
  uint64_t fixes = 0, hits = 0, misses = 0, evictions = 0, write_backs = 0,
           verify_failures = 0;
  // locks
  uint64_t lock_acquisitions = 0, lock_waits = 0, lock_timeouts = 0;
  // log
  uint64_t log_forces = 0, log_bytes = 0, gc_batches = 0, gc_commits = 0,
           commits = 0, pri_update_records = 0;
  // archive
  uint64_t archive_runs = 0, archive_merges = 0, archive_bytes = 0;
  // btree
  uint64_t splits = 0, foster_traversals = 0;
  // single-page repair, funnel
  uint64_t spr_repairs = 0, spr_log_reads = 0, spr_archive_reads = 0,
           spr_backup_reads = 0, spr_records_applied = 0;
  uint64_t funnel_enqueued = 0, funnel_coalesced = 0, funnel_rejected = 0;
  uint64_t page_backups_taken = 0;
  // devices
  DeviceDelta data, log, archive, backup;

  void Add(const LayerCounters& a, const LayerCounters& b);
  void AddDevices(const LayerCounters& a, const LayerCounters& b);
};

inline DeviceDelta DevDelta(const spf::DeviceStats& a, const spf::DeviceStats& b) {
  DeviceDelta d;
  d.reads = b.page_reads - a.page_reads;
  d.bytes_read = b.bytes_read - a.bytes_read;
  d.bytes_written = b.bytes_written - a.bytes_written;
  d.sim_ns = b.sim_ns_charged - a.sim_ns_charged;
  return d;
}

inline void AddDev(DeviceDelta* acc, const DeviceDelta& d) {
  acc->reads += d.reads;
  acc->bytes_read += d.bytes_read;
  acc->bytes_written += d.bytes_written;
  acc->sim_ns += d.sim_ns;
}

inline uint64_t PerType(const spf::LogStats& s, spf::LogRecordType t) {
  auto it = s.per_type.find(t);
  return it == s.per_type.end() ? 0 : it->second;
}

inline void LayerTotals::AddDevices(const LayerCounters& a, const LayerCounters& b) {
  AddDev(&data, DevDelta(a.data, b.data));
  AddDev(&log, DevDelta(a.log, b.log));
  AddDev(&archive, DevDelta(a.archive, b.archive));
  AddDev(&backup, DevDelta(a.backup_dev, b.backup_dev));
}

inline void LayerTotals::Add(const LayerCounters& a, const LayerCounters& b) {
  const spf::StatsSnapshot& x = a.db;
  const spf::StatsSnapshot& y = b.db;
  fixes += y.pool.fixes - x.pool.fixes;
  hits += y.pool.hits - x.pool.hits;
  misses += y.pool.misses - x.pool.misses;
  evictions += y.pool.evictions - x.pool.evictions;
  write_backs += y.pool.write_backs - x.pool.write_backs;
  verify_failures += y.pool.verify_failures - x.pool.verify_failures;
  lock_acquisitions += y.locks.acquisitions - x.locks.acquisitions;
  lock_waits += y.locks.waits - x.locks.waits;
  lock_timeouts += y.locks.timeouts - x.locks.timeouts;
  log_forces += y.log.forces - x.log.forces;
  log_bytes += y.log.bytes_appended - x.log.bytes_appended;
  gc_batches += y.log.group_commit_batches - x.log.group_commit_batches;
  gc_commits += y.log.group_commit_commits - x.log.group_commit_commits;
  commits += PerType(y.log, spf::LogRecordType::kCommitTxn) -
             PerType(x.log, spf::LogRecordType::kCommitTxn);
  pri_update_records += b.pri.pri_updates_logged - a.pri.pri_updates_logged;
  archive_runs += y.archive.runs_written - x.archive.runs_written;
  archive_merges += y.archive.merges - x.archive.merges;
  archive_bytes += y.archive.archived_bytes - x.archive.archived_bytes;
  splits += b.btree.splits - a.btree.splits;
  foster_traversals += b.btree.foster_traversals - a.btree.foster_traversals;
  spr_repairs += y.spr.repairs_succeeded - x.spr.repairs_succeeded;
  spr_log_reads += y.spr.log_reads - x.spr.log_reads;
  spr_archive_reads += y.spr.archive_reads - x.spr.archive_reads;
  spr_backup_reads += y.spr.backup_reads - x.spr.backup_reads;
  spr_records_applied += y.spr.log_records_applied - x.spr.log_records_applied;
  funnel_enqueued += y.funnel.enqueued - x.funnel.enqueued;
  funnel_coalesced += y.funnel.coalesced - x.funnel.coalesced;
  funnel_rejected += y.funnel.rejected - x.funnel.rejected;
  page_backups_taken += b.backup.page_backups_taken - a.backup.page_backups_taken;
  AddDevices(a, b);
}

}  // namespace spfbench
