#include "rowstore/btree.h"

#include <algorithm>

namespace imci {

BTree::BTree(BufferPool* pool, std::atomic<PageId>* page_alloc,
             TableId table_id, PageId meta_page_id)
    : pool_(pool),
      page_alloc_(page_alloc),
      table_id_(table_id),
      meta_page_id_(meta_page_id) {}

Status BTree::CreateEmpty() {
  PageRef meta = pool_->NewPage(meta_page_id_, table_id_, PageType::kMeta);
  PageRef root = pool_->NewPage(AllocPage(), table_id_, PageType::kLeaf);
  meta->root_page = root->id;
  meta->first_leaf = root->id;
  return Status::OK();
}

Status BTree::GetMeta(PageRef* meta) const {
  return pool_->GetPage(meta_page_id_, meta);
}

Status BTree::DescendToLeaf(int64_t key, PageRef* leaf,
                            std::vector<PageRef>* path) const {
  // Reads take each page's latch transiently (one at a time, never nested):
  // on RO nodes Phase#1 replay mutates leaf pages in place under the page
  // latch, concurrently with row-engine reads. On the RW node the owning
  // table's latch already excludes writers, so these are uncontended.
  PageRef meta;
  IMCI_RETURN_NOT_OK(GetMeta(&meta));
  PageId next;
  {
    std::shared_lock<std::shared_mutex> g(meta->latch);
    next = meta->root_page;
  }
  PageRef node;
  IMCI_RETURN_NOT_OK(pool_->GetPage(next, &node));
  for (;;) {
    {
      std::shared_lock<std::shared_mutex> g(node->latch);
      if (node->type != PageType::kInternal) break;
      next = node->children[node->ChildIndexFor(key)];
    }
    if (path) path->push_back(node);
    PageRef child;
    IMCI_RETURN_NOT_OK(pool_->GetPage(next, &child));
    node = child;
  }
  *leaf = node;
  return Status::OK();
}

RedoRecord BTree::MakeSmoRecord(const std::vector<PageRef>& smo_pages) const {
  RedoRecord rec;
  rec.type = RedoType::kSmo;
  rec.tid = 0;  // system-generated: never a logical DML
  rec.table_id = table_id_;
  for (const PageRef& p : smo_pages) {
    std::string img;
    p->Serialize(&img);
    rec.page_images.emplace_back(p->id, std::move(img));
  }
  return rec;
}

Status BTree::Insert(int64_t key, const std::string& image,
                     std::vector<RedoRecord>* redo) {
  std::vector<PageRef> smo_pages;
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::vector<PageRef> path;
    PageRef leaf;
    IMCI_RETURN_NOT_OK(DescendToLeaf(key, &leaf, &path));
    if (leaf->FindSlot(key) >= 0) {
      return Status::InvalidArgument("duplicate key");
    }
    const size_t need = image.size() + 12;
    if (!leaf->keys.empty() &&
        leaf->byte_size + need > Page::kSoftCapacityBytes) {
      IMCI_RETURN_NOT_OK(SplitLeaf(leaf, path, &smo_pages));
      continue;  // re-descend: the key may now belong to the new sibling
    }
    // Structural phase done: emit the SMO images (pre-row-insert state) so a
    // replica applying [kSmo, kInsert] in order converges to our state.
    if (!smo_pages.empty()) {
      redo->push_back(MakeSmoRecord(smo_pages));
    }
    int pos = leaf->LowerBound(key);
    leaf->keys.insert(leaf->keys.begin() + pos, key);
    leaf->payloads.insert(leaf->payloads.begin() + pos, image);
    leaf->byte_size += need;
    pool_->MarkDirty(leaf->id);

    RedoRecord rec;
    rec.type = RedoType::kInsert;
    rec.table_id = table_id_;
    rec.page_id = leaf->id;
    rec.slot_id = static_cast<uint32_t>(pos);
    rec.after_image = image;
    redo->push_back(std::move(rec));
    return Status::OK();
  }
  return Status::Internal("btree insert: split loop did not converge");
}

Status BTree::SplitLeaf(const PageRef& leaf, std::vector<PageRef>& path,
                        std::vector<PageRef>* smo_pages) {
  PageRef right = pool_->NewPage(AllocPage(), table_id_, PageType::kLeaf);
  const size_t mid = leaf->keys.size() / 2;
  right->keys.assign(leaf->keys.begin() + mid, leaf->keys.end());
  right->payloads.assign(leaf->payloads.begin() + mid, leaf->payloads.end());
  leaf->keys.resize(mid);
  leaf->payloads.resize(mid);
  right->next_leaf = leaf->next_leaf;
  leaf->next_leaf = right->id;
  leaf->byte_size = leaf->RecomputeByteSize();
  right->byte_size = right->RecomputeByteSize();
  pool_->MarkDirty(leaf->id);
  const int64_t sep = right->keys.front();
  smo_pages->push_back(leaf);
  smo_pages->push_back(right);
  return InsertIntoParent(leaf, sep, right, path, smo_pages);
}

Status BTree::InsertIntoParent(const PageRef& left, int64_t sep_key,
                               const PageRef& right,
                               std::vector<PageRef>& path,
                               std::vector<PageRef>* smo_pages) {
  if (path.empty()) {
    // Root split: grow the tree by one level and update the meta page.
    PageRef meta;
    IMCI_RETURN_NOT_OK(GetMeta(&meta));
    PageRef new_root =
        pool_->NewPage(AllocPage(), table_id_, PageType::kInternal);
    new_root->keys.push_back(sep_key);
    new_root->children.push_back(left->id);
    new_root->children.push_back(right->id);
    new_root->byte_size = new_root->RecomputeByteSize();
    meta->root_page = new_root->id;
    pool_->MarkDirty(meta->id);
    smo_pages->push_back(new_root);
    smo_pages->push_back(meta);
    return Status::OK();
  }
  PageRef parent = path.back();
  path.pop_back();
  int pos = parent->LowerBound(sep_key);
  parent->keys.insert(parent->keys.begin() + pos, sep_key);
  parent->children.insert(parent->children.begin() + pos + 1, right->id);
  parent->byte_size += 16;
  pool_->MarkDirty(parent->id);
  if (std::find_if(smo_pages->begin(), smo_pages->end(),
                   [&](const PageRef& p) { return p->id == parent->id; }) ==
      smo_pages->end()) {
    smo_pages->push_back(parent);
  }
  constexpr size_t kMaxFanout = 512;
  if (parent->keys.size() <= kMaxFanout) return Status::OK();
  // Split the internal node.
  PageRef right_int =
      pool_->NewPage(AllocPage(), table_id_, PageType::kInternal);
  const size_t mid = parent->keys.size() / 2;
  const int64_t up_key = parent->keys[mid];
  right_int->keys.assign(parent->keys.begin() + mid + 1, parent->keys.end());
  right_int->children.assign(parent->children.begin() + mid + 1,
                             parent->children.end());
  parent->keys.resize(mid);
  parent->children.resize(mid + 1);
  parent->byte_size = parent->RecomputeByteSize();
  right_int->byte_size = right_int->RecomputeByteSize();
  smo_pages->push_back(right_int);
  return InsertIntoParent(parent, up_key, right_int, path, smo_pages);
}

Status BTree::Update(int64_t key, const std::string& new_image,
                     std::string* old_image, std::vector<RedoRecord>* redo) {
  PageRef leaf;
  IMCI_RETURN_NOT_OK(DescendToLeaf(key, &leaf, nullptr));
  int slot = leaf->FindSlot(key);
  if (slot < 0) return Status::NotFound("update: key");
  *old_image = leaf->payloads[slot];
  RedoRecord rec;
  rec.type = RedoType::kUpdate;
  rec.table_id = table_id_;
  rec.page_id = leaf->id;
  rec.slot_id = static_cast<uint32_t>(slot);
  rec.diff = RowDiff::Compute(*old_image, new_image);
  leaf->byte_size += new_image.size() - leaf->payloads[slot].size();
  leaf->payloads[slot] = new_image;
  pool_->MarkDirty(leaf->id);
  redo->push_back(std::move(rec));
  return Status::OK();
}

Status BTree::Delete(int64_t key, std::string* old_image,
                     std::vector<RedoRecord>* redo) {
  PageRef leaf;
  IMCI_RETURN_NOT_OK(DescendToLeaf(key, &leaf, nullptr));
  int slot = leaf->FindSlot(key);
  if (slot < 0) return Status::NotFound("delete: key");
  *old_image = leaf->payloads[slot];
  leaf->byte_size -= leaf->payloads[slot].size() + 12;
  leaf->keys.erase(leaf->keys.begin() + slot);
  leaf->payloads.erase(leaf->payloads.begin() + slot);
  pool_->MarkDirty(leaf->id);
  // Underflowing leaves are left in place (no merge); the paper's row store
  // consolidations are likewise system SMOs and orthogonal to the protocol.
  RedoRecord rec;
  rec.type = RedoType::kDelete;
  rec.table_id = table_id_;
  rec.page_id = leaf->id;
  rec.slot_id = static_cast<uint32_t>(slot);
  redo->push_back(std::move(rec));
  return Status::OK();
}

Status BTree::Lookup(int64_t key, std::string* image) const {
  PageRef leaf;
  IMCI_RETURN_NOT_OK(DescendToLeaf(key, &leaf, nullptr));
  std::shared_lock<std::shared_mutex> g(leaf->latch);
  int slot = leaf->FindSlot(key);
  if (slot < 0) return Status::NotFound("lookup");
  *image = leaf->payloads[slot];
  return Status::OK();
}

Status BTree::Scan(
    const std::function<bool(int64_t, const std::string&)>& fn) const {
  PageRef meta;
  IMCI_RETURN_NOT_OK(GetMeta(&meta));
  PageId pid;
  {
    std::shared_lock<std::shared_mutex> g(meta->latch);
    pid = meta->first_leaf;
  }
  while (pid != kInvalidPageId) {
    PageRef leaf;
    IMCI_RETURN_NOT_OK(pool_->GetPage(pid, &leaf));
    std::shared_lock<std::shared_mutex> g(leaf->latch);
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      if (!fn(leaf->keys[i], leaf->payloads[i])) return Status::OK();
    }
    pid = leaf->next_leaf;
  }
  return Status::OK();
}

Status BTree::ScanRange(
    int64_t lo, int64_t hi,
    const std::function<bool(int64_t, const std::string&)>& fn) const {
  PageRef leaf;
  IMCI_RETURN_NOT_OK(DescendToLeaf(lo, &leaf, nullptr));
  PageRef cur = leaf;
  while (cur) {
    PageId next_id = kInvalidPageId;
    {
      std::shared_lock<std::shared_mutex> g(cur->latch);
      for (int i = cur->LowerBound(lo);
           i < static_cast<int>(cur->keys.size()); ++i) {
        if (cur->keys[i] > hi) return Status::OK();
        if (!fn(cur->keys[i], cur->payloads[i])) return Status::OK();
      }
      next_id = cur->next_leaf;
    }
    if (next_id == kInvalidPageId) break;
    PageRef next;
    IMCI_RETURN_NOT_OK(pool_->GetPage(next_id, &next));
    cur = next;
  }
  return Status::OK();
}

Status BTree::BulkLoad(
    const std::vector<std::pair<int64_t, std::string>>& sorted_rows) {
  PageRef meta;
  IMCI_RETURN_NOT_OK(GetMeta(&meta));
  // Build leaf level.
  std::vector<PageRef> leaves;
  PageRef cur;
  for (const auto& [key, image] : sorted_rows) {
    if (!cur || cur->byte_size + image.size() + 12 >
                    Page::kSoftCapacityBytes * 9 / 10) {
      PageRef next = pool_->NewPage(AllocPage(), table_id_, PageType::kLeaf);
      if (cur) cur->next_leaf = next->id;
      cur = next;
      leaves.push_back(cur);
    }
    cur->keys.push_back(key);
    cur->payloads.push_back(image);
    cur->byte_size += image.size() + 12;
  }
  if (leaves.empty()) {
    leaves.push_back(pool_->NewPage(AllocPage(), table_id_, PageType::kLeaf));
  }
  meta->first_leaf = leaves.front()->id;
  // Build internal levels bottom-up.
  std::vector<std::pair<int64_t, PageId>> level;
  level.reserve(leaves.size());
  for (const PageRef& l : leaves) {
    level.emplace_back(l->keys.empty() ? 0 : l->keys.front(), l->id);
  }
  while (level.size() > 1) {
    std::vector<std::pair<int64_t, PageId>> next_level;
    constexpr size_t kFanout = 256;
    for (size_t i = 0; i < level.size(); i += kFanout) {
      size_t end = std::min(i + kFanout, level.size());
      PageRef node =
          pool_->NewPage(AllocPage(), table_id_, PageType::kInternal);
      node->children.push_back(level[i].second);
      for (size_t j = i + 1; j < end; ++j) {
        node->keys.push_back(level[j].first);
        node->children.push_back(level[j].second);
      }
      node->byte_size = node->RecomputeByteSize();
      next_level.emplace_back(level[i].first, node->id);
    }
    level = std::move(next_level);
  }
  meta->root_page = level.front().second;
  pool_->MarkDirty(meta->id);
  return Status::OK();
}

}  // namespace imci
