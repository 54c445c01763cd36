#include "src/iommu/iommu_manager.h"

#include <utility>
#include <vector>

#include "src/vstd/check.h"
#include "src/vstd/sorted_refill.h"

namespace atmo {

PageTable* IommuManager::FindDomain(IommuDomainId domain) {
  auto it = domains_.find(domain);
  return it == domains_.end() ? nullptr : &it->second;
}

const PageTable* IommuManager::FindDomain(IommuDomainId domain) const {
  auto it = domains_.find(domain);
  return it == domains_.end() ? nullptr : &it->second;
}

IommuDomainId IommuManager::CreateDomain(PageAllocator* alloc, CtnrPtr ctnr) {
  std::optional<PageTable> table = PageTable::New(mem_, alloc, ctnr);
  if (!table.has_value()) {
    return kNoIommuDomain;
  }
  IommuDomainId id = next_domain_++;
  // averif-lint: allow(hot-path-alloc) — IOMMU domain creation is a cold control-plane op
  domains_.emplace(id, std::move(*table));
  dirty_.Mark(id);
  return id;
}

void IommuManager::DestroyDomain(PageAllocator* alloc, IommuDomainId domain) {
  PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "DestroyDomain of unknown domain");
  for (const auto& [device, dom] : device_domains_) {
    ATMO_CHECK(dom != domain, "DestroyDomain with attached devices");
  }
  // Unmap all DMA windows, then release the tables.
  std::vector<VAddr> iovas;
  for (const auto& [iova, entry] : table->AddressSpace()) {
    iovas.push_back(iova);
  }
  for (VAddr iova : iovas) {
    table->Unmap(iova);
  }
  table->Destroy(alloc);
  domains_.erase(domain);
  owner_overrides_.erase(domain);
  dirty_.Mark(domain);
}

CtnrPtr IommuManager::DomainOwner(IommuDomainId domain) const {
  const PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "DomainOwner of unknown domain");
  auto ov = owner_overrides_.find(domain);
  return ov != owner_overrides_.end() ? ov->second : table->owner();
}

void IommuManager::SetDomainOwner(IommuDomainId domain, CtnrPtr ctnr) {
  ATMO_CHECK(FindDomain(domain) != nullptr, "SetDomainOwner of unknown domain");
  // PageTable keeps its owner immutable; rebuild ownership by re-tagging
  // node pages at the allocator and replacing the table's owner via clone is
  // overkill — the table owner field is advisory; quota attribution is the
  // kernel's. We track the override here.
  owner_overrides_[domain] = ctnr;
  dirty_.Mark(domain);
}

bool IommuManager::AttachDevice(IommuDomainId domain, DeviceId device) {
  if (FindDomain(domain) == nullptr) {
    return false;
  }
  if (device_domains_.count(device) != 0) {
    return false;  // already attached elsewhere
  }
  device_domains_[device] = domain;
  dirty_.Mark(domain);
  return true;
}

void IommuManager::DetachDevice(DeviceId device) {
  auto it = device_domains_.find(device);
  ATMO_CHECK(it != device_domains_.end(), "DetachDevice of unattached device");
  dirty_.Mark(it->second);
  device_domains_.erase(it);
}

IommuDomainId IommuManager::DomainOf(DeviceId device) const {
  auto it = device_domains_.find(device);
  return it == device_domains_.end() ? kNoIommuDomain : it->second;
}

MapError IommuManager::MapDma(PageAllocator* alloc, IommuDomainId domain, VAddr iova, PAddr pa,
                              PageSize size, MapEntryPerm perm) {
  PageTable* table = FindDomain(domain);
  if (table == nullptr) {
    return MapError::kNotMapped;
  }
  dirty_.Mark(domain);
  return table->Map(alloc, iova, pa, size, perm);
}

std::optional<MapEntry> IommuManager::UnmapDma(IommuDomainId domain, VAddr iova) {
  PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "UnmapDma on unknown domain");
  dirty_.Mark(domain);
  return table->Unmap(iova);
}

std::optional<PAddr> IommuManager::Translate(DeviceId device, VAddr iova, bool write) const {
  auto dev = device_domains_.find(device);
  if (dev == device_domains_.end()) {
    return std::nullopt;  // unattached devices are blocked entirely
  }
  const PageTable* dom = FindDomain(dev->second);
  ATMO_CHECK(dom != nullptr, "device attached to dead domain");
  // Hardware path: walk the real table bits.
  std::optional<WalkResult> walk = mmu_.Walk(dom->cr3(), iova);
  if (!walk.has_value()) {
    return std::nullopt;
  }
  if (write && !walk->perm.writable) {
    return std::nullopt;
  }
  return walk->paddr;
}

std::uint64_t IommuManager::DomainPageCount(IommuDomainId domain) const {
  const PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "DomainPageCount of unknown domain");
  return table->PageClosure().size();
}

SpecSet<PagePtr> IommuManager::PageClosure() const {
  SpecSet<PagePtr> out;
  for (const auto& [id, table] : domains_) {
    out = out.Union(table.PageClosure());
  }
  return out;
}

SpecSet<IommuDomainId> IommuManager::DomainsOwnedBy(CtnrPtr ctnr) const {
  SpecSet<IommuDomainId> out;
  for (const auto& [id, table] : domains_) {
    auto ov = owner_overrides_.find(id);
    CtnrPtr owner = ov != owner_overrides_.end() ? ov->second : table.owner();
    if (owner == ctnr) {
      out.add(id);
    }
  }
  return out;
}

SpecSet<PagePtr> IommuManager::DomainPageClosure(IommuDomainId domain) const {
  const PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "DomainPageClosure of unknown domain");
  return table->PageClosure();
}

MapError IommuManager::CanMapDma(IommuDomainId domain, VAddr iova, PageSize size) const {
  const PageTable* table = FindDomain(domain);
  if (table == nullptr) {
    return MapError::kNotMapped;
  }
  return table->CanMap(iova, size);
}

std::uint64_t IommuManager::FreshNodesForDma(IommuDomainId domain, VAddr iova,
                                             PageSize size) const {
  const PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "FreshNodesForDma of unknown domain");
  return table->FreshNodesFor(iova, size, nullptr);
}

bool IommuManager::Wf() const {
  for (const auto& [id, table] : domains_) {
    if (!table.StructureWf(*mem_)) {
      return false;
    }
  }
  for (const auto& [device, domain] : device_domains_) {
    if (domains_.find(domain) == domains_.end()) {
      return false;
    }
  }
  // Ownership overrides are an index over domains_ too: every override key
  // must reference a live domain, else a stale entry could resurrect a dead
  // domain's ownership in DomainsOwnedBy.
  for (const auto& [id, owner] : owner_overrides_) {
    if (domains_.find(id) == domains_.end()) {
      return false;
    }
  }
  return true;
}

void IommuManager::CloneForVerificationInto(IommuManager* out, PhysMem* mem) const {
  out->mem_ = mem;
  out->mmu_ = Mmu(mem);
  out->next_domain_ = next_domain_;
  // Per-domain pooled table clones into the reused map nodes. The plain-data
  // maps below copy-assign, which reuses the destination's nodes.
  RefillSorted(domains_, &out->domains_, [mem](const PageTable& from, PageTable* to) {
    from.CloneForVerificationInto(to, mem);
  });
  out->device_domains_ = device_domains_;
  out->owner_overrides_ = owner_overrides_;
  out->dirty_.Reset();  // clones start with an empty mutation log
}

}  // namespace atmo
