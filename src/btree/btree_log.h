// Body encodings for B-tree log records and the physical redo dispatcher.
//
// Logging is physiological (section 5.1.2): redo is physical to a page —
// the record names the page and redo re-performs the in-page action by key
// — while undo is logical, implemented as a compensating B-tree operation
// that may land on a different page after splits (btree.cpp).

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "log/log_record.h"
#include "storage/page.h"

namespace spf {
namespace btree_log {

// --- record bodies -----------------------------------------------------------

/// kBTreeInsert: a record was inserted into a leaf. If the key previously
/// existed as a ghost, the insert revived it; `had_ghost`/`old_value`
/// preserve what undo must restore.
struct InsertBody {
  std::string key;
  std::string value;
  bool had_ghost = false;
  std::string old_value;  // valid iff had_ghost
};

/// kBTreeMarkGhost: logical deletion — the record's ghost bit was set.
struct MarkGhostBody {
  std::string key;
};

/// kBTreeUpdate: a leaf record's value was replaced.
struct UpdateBody {
  std::string key;
  std::string old_value;
  std::string new_value;
};

/// kBTreeReclaimGhost (system txn): ghosts physically removed from a page.
struct ReclaimBody {
  std::vector<std::string> keys;
};

/// kBTreeSplit (system txn), applied to the foster parent: records >= sep
/// were donated to the new foster child.
struct SplitBody {
  std::string separator;
  PageId new_child = kInvalidPageId;
};

/// kBTreeAdopt (system txn): two sub-actions discriminated by a tag —
/// the parent inserts (separator, child) and the foster parent clears its
/// foster edge.
struct AdoptParentBody {
  std::string separator;
  PageId child = kInvalidPageId;
};
struct AdoptChildBody {
  PageId adopted_child = kInvalidPageId;  // for the record only
};

/// kPageMigrate, applied to the POINTER OWNER (permanent parent or foster
/// parent): the child at `old_child` moved verbatim to `new_child`
/// (sections 5.1.3 / 5.2.3; the Foster B-tree's single incoming pointer
/// makes this a one-record pointer swap).
struct MigrateBody {
  PageId old_child = kInvalidPageId;
  PageId new_child = kInvalidPageId;
};

/// kBTreeGrowRoot, applied to the database meta page: the root moved.
struct GrowRootBody {
  PageId old_root = kInvalidPageId;
  PageId new_root = kInvalidPageId;
};

/// kPageFormat (system txn): full initial content of a page; doubles as a
/// backup source for the page recovery index (section 5.2.1).
struct FormatBody {
  uint16_t page_type = 0;      // PageType
  std::string node_content;    // BTreeNode::SerializeContent() output
};

/// kCompensation: the redo side of an undo action (CLR). `action` selects
/// the compensating in-page operation.
enum class ClrAction : uint8_t {
  kMarkGhost = 1,        // compensates an insert
  kRevive = 2,           // compensates a mark-ghost (value still in ghost)
  kRestoreValue = 3,     // compensates an update
  kGhostWithValue = 4,   // compensates an insert that revived a ghost
};
struct ClrBody {
  ClrAction action;
  std::string key;
  std::string value;  // used by kRestoreValue / kGhostWithValue
};

// --- encode / decode ---------------------------------------------------------

std::string Encode(const InsertBody& b);
std::string Encode(const MarkGhostBody& b);
std::string Encode(const UpdateBody& b);
std::string Encode(const ReclaimBody& b);
std::string Encode(const SplitBody& b);
std::string Encode(const AdoptParentBody& b);
std::string Encode(const AdoptChildBody& b);
std::string Encode(const MigrateBody& b);
std::string Encode(const GrowRootBody& b);
std::string Encode(const FormatBody& b);
std::string Encode(const ClrBody& b);

StatusOr<InsertBody> DecodeInsert(std::string_view body);
StatusOr<MarkGhostBody> DecodeMarkGhost(std::string_view body);
StatusOr<UpdateBody> DecodeUpdate(std::string_view body);
StatusOr<ReclaimBody> DecodeReclaim(std::string_view body);
StatusOr<SplitBody> DecodeSplit(std::string_view body);
StatusOr<AdoptParentBody> DecodeAdoptParent(std::string_view body);
StatusOr<AdoptChildBody> DecodeAdoptChild(std::string_view body);
StatusOr<MigrateBody> DecodeMigrate(std::string_view body);
StatusOr<GrowRootBody> DecodeGrowRoot(std::string_view body);
StatusOr<FormatBody> DecodeFormat(std::string_view body);
StatusOr<ClrBody> DecodeClr(std::string_view body);

/// The adopt record's body starts with a tag byte distinguishing the
/// parent-insert from the child-clear sub-action.
constexpr char kAdoptTagParent = 0;
constexpr char kAdoptTagChild = 1;
bool IsAdoptParent(std::string_view body);

// --- physical redo -----------------------------------------------------------

/// Re-applies `rec` to `page` (which must be the page named by the
/// record). The caller has already decided redo is needed (PageLSN <
/// rec.lsn) and is responsible for advancing the PageLSN afterwards.
/// Handles every B-tree record type plus kPageFormat; other types are a
/// CHECK failure.
Status RedoBTreeRecord(const LogRecord& rec, PageView page);

/// One redo step of every replay path (single-page and batched repair,
/// media restore, restart redo): RedoBTreeRecord, then the PageLSN
/// advances to rec.lsn and update_count bumps once — matching the live
/// path's per-record bump (LogManager::AppendPageRecord), so a replayed
/// image is byte-identical to the one it replaces.
Status ReplayPageRecord(const LogRecord& rec, PageView page);

}  // namespace btree_log
}  // namespace spf
