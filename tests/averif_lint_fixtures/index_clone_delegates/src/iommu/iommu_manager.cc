namespace atmo {

IommuDomainId IommuManager::CreateDomain(PageAllocator* alloc, CtnrPtr ctnr) {
  auto [it, inserted] = domains_.emplace(next_domain_, PageTable());
  domain_index_.emplace(next_domain_, &it->second);
  dirty_.Mark(next_domain_);
  return next_domain_++;
}

bool IommuManager::Wf() const {
  if (domain_index_.size() != domains_.size()) {
    return false;
  }
  for (const auto& [id, table] : domains_) {
    auto it = domain_index_.find(id);
    if (it == domain_index_.end() || it->second != &table) {
      return false;
    }
  }
  for (const auto& [id, owner] : owner_overrides_) {
    if (domains_.find(id) == domains_.end()) {
      return false;
    }
  }
  return true;
}

IommuManager IommuManager::CloneForVerification(PhysMem* mem) const {
  IommuManager out(mem);
  CloneForVerificationInto(&out, mem);
  return out;
}

void IommuManager::CloneForVerificationInto(IommuManager* out, PhysMem* mem) const {
  out->mem_ = mem;
  out->domains_ = domains_;
  out->domain_index_.clear();
  for (auto& [id, table] : out->domains_) {
    out->domain_index_[id] = &table;
  }
  out->owner_overrides_ = owner_overrides_;
  out->dirty_.Reset();
}

}  // namespace atmo
