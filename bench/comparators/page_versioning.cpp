#include "comparators/page_versioning.h"

#include "btree/btree_log.h"
#include "btree/node_layout.h"

namespace spf {

Status PageVersioning::UndoOnPage(const LogRecord& rec, PageView page) {
  BTreeNode node(page);
  switch (rec.type) {
    case LogRecordType::kBTreeInsert: {
      SPF_ASSIGN_OR_RETURN(auto body, btree_log::DecodeInsert(rec.body));
      auto fr = node.Find(body.key);
      if (!fr.found) return Status::Corruption("undo insert: key missing");
      if (body.had_ghost) {
        SPF_RETURN_IF_ERROR(node.ReplaceValue(fr.slot, body.old_value));
        node.SetGhost(fr.slot, true);
      } else {
        node.RemoveSlot(fr.slot);
      }
      return Status::OK();
    }
    case LogRecordType::kBTreeMarkGhost: {
      SPF_ASSIGN_OR_RETURN(auto body, btree_log::DecodeMarkGhost(rec.body));
      auto fr = node.Find(body.key);
      if (!fr.found) return Status::Corruption("undo ghost: key missing");
      node.SetGhost(fr.slot, false);
      return Status::OK();
    }
    case LogRecordType::kBTreeUpdate: {
      SPF_ASSIGN_OR_RETURN(auto body, btree_log::DecodeUpdate(rec.body));
      auto fr = node.Find(body.key);
      if (!fr.found) return Status::Corruption("undo update: key missing");
      return node.ReplaceValue(fr.slot, body.old_value);
    }
    default:
      return Status::NotSupported(
          "page rollback across structural record type " +
          std::string(LogRecordTypeName(rec.type)));
  }
}

Status PageVersioning::RollBackTo(PageView page, Lsn as_of_lsn) {
  uint64_t rolled = 0;
  while (page.page_lsn() != kInvalidLsn && page.page_lsn() > as_of_lsn) {
    auto rec_or = log_->Read(page.page_lsn());
    {
      std::lock_guard<std::mutex> g(mu_);
      stats_.log_reads++;
    }
    if (!rec_or.ok()) return rec_or.status();
    const LogRecord& rec = *rec_or;
    if (rec.page_id != page.page_id()) {
      return Status::Corruption("per-page chain contains foreign record");
    }
    SPF_RETURN_IF_ERROR(UndoOnPage(rec, page));
    page.set_page_lsn(rec.page_prev_lsn);
    rolled++;
  }
  std::lock_guard<std::mutex> g(mu_);
  stats_.versions_built++;
  stats_.records_rolled_back += rolled;
  return Status::OK();
}

}  // namespace spf
