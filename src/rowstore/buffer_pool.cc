#include "rowstore/buffer_pool.h"

namespace imci {

Status BufferPool::GetPage(PageId id, PageRef* out) {
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = pages_.find(id);
    if (it != pages_.end()) {
      *out = it->second;
      return Status::OK();
    }
  }
  std::string image;
  IMCI_RETURN_NOT_OK(fs_->ReadPage(id, &image));
  auto page = std::make_shared<Page>();
  IMCI_RETURN_NOT_OK(Page::Deserialize(image.data(), image.size(), page.get()));
  std::lock_guard<std::mutex> g(mu_);
  // A racing miss may have attached the page first; keep its copy.
  *out = pages_.emplace(id, page).first->second;
  return Status::OK();
}

PageRef BufferPool::GetCached(PageId id) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = pages_.find(id);
  return it == pages_.end() ? nullptr : it->second;
}

PageRef BufferPool::NewPage(PageId id, TableId table_id, PageType type) {
  auto page = std::make_shared<Page>();
  page->id = id;
  page->table_id = table_id;
  page->type = type;
  std::lock_guard<std::mutex> g(mu_);
  pages_[id] = page;
  dirty_.insert(id);
  return page;
}

void BufferPool::PutPage(PageRef page, bool dirty) {
  std::lock_guard<std::mutex> g(mu_);
  PageId id = page->id;
  pages_[id] = std::move(page);
  if (dirty) dirty_.insert(id);
}

void BufferPool::MarkDirty(PageId id) {
  std::lock_guard<std::mutex> g(mu_);
  dirty_.insert(id);
}

Status BufferPool::FlushPage(PageId id) {
  PageRef page;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = pages_.find(id);
    if (it == pages_.end()) return Status::OK();
    page = it->second;
    dirty_.erase(id);
  }
  std::string image;
  page->Serialize(&image);
  return fs_->WritePage(id, std::move(image));
}

Status BufferPool::FlushAll() {
  std::vector<PageId> to_flush;
  {
    std::lock_guard<std::mutex> g(mu_);
    to_flush.assign(dirty_.begin(), dirty_.end());
  }
  for (PageId id : to_flush) IMCI_RETURN_NOT_OK(FlushPage(id));
  return Status::OK();
}

Status BufferPool::FlushAllResident() {
  std::vector<PageId> all;
  {
    std::lock_guard<std::mutex> g(mu_);
    all.reserve(pages_.size());
    for (auto& [id, page] : pages_) all.push_back(id);
  }
  for (PageId id : all) IMCI_RETURN_NOT_OK(FlushPage(id));
  return Status::OK();
}

}  // namespace imci
