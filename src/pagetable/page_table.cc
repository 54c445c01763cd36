#include "src/pagetable/page_table.h"

#include <utility>

#include "src/vstd/check.h"
#include "src/vstd/sorted_refill.h"

namespace atmo {

namespace {

// Bytes covered by one entry of a node at `level` (level 1 entry = 4K page).
constexpr std::uint64_t EntrySpan(int level) {
  return 1ull << (12 + 9 * (level - 1));
}

// Leaf level for a mapping of the given size.
constexpr int LeafLevel(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return 1;
    case PageSize::k2M:
      return 2;
    case PageSize::k1G:
      return 3;
  }
  return 1;
}

}  // namespace

const char* MapErrorName(MapError error) {
  switch (error) {
    case MapError::kOk:
      return "ok";
    case MapError::kAlreadyMapped:
      return "already-mapped";
    case MapError::kConflict:
      return "conflict";
    case MapError::kOutOfMemory:
      return "out-of-memory";
    case MapError::kMisaligned:
      return "misaligned";
    case MapError::kNotMapped:
      return "not-mapped";
  }
  return "?";
}

PageTable::PageTable(PhysMem* mem, PAddr cr3, FramePerm root_perm, CtnrPtr owner)
    : mem_(mem), cr3_(cr3), owner_(owner) {
  mem_->ZeroPage(root_perm);
  // averif-lint: allow(hot-path-alloc) — page-table construction (root node) happens at address-space creation — control plane
  node_perms_.emplace(cr3, std::move(root_perm));
  node_info_.set(cr3, PtNodeInfo{.level = 4, .va_base = 0});
}

std::optional<PageTable> PageTable::New(PhysMem* mem, PageAllocator* alloc, CtnrPtr owner) {
  std::optional<PageAlloc> root = alloc->AllocPage4K(owner);
  if (!root.has_value()) {
    return std::nullopt;
  }
  return PageTable(mem, root->ptr, std::move(root->perm), owner);
}

std::uint64_t PageTable::ReadEntry(PAddr node, std::uint64_t index) const {
  auto it = node_perms_.find(node);
  ATMO_CHECK(it != node_perms_.end(), "page-table read of unowned node");
  return mem_->ReadU64(it->second, node + index * 8);
}

void PageTable::WriteEntry(PAddr node, std::uint64_t index, std::uint64_t pte) {
  auto it = node_perms_.find(node);
  ATMO_CHECK(it != node_perms_.end(), "page-table write of unowned node");
  mem_->WriteU64(it->second, node + index * 8, pte);
  if (write_observer_) {
    write_observer_();
  }
}

std::optional<PAddr> PageTable::EnsureChild(PageAllocator* alloc, PAddr node,
                                            std::uint64_t index, int child_level,
                                            VAddr child_base) {
  std::uint64_t pte = ReadEntry(node, index);
  if ((pte & kPtePresent) != 0) {
    return pte & kPteAddrMask;
  }
  std::optional<PageAlloc> page = alloc->AllocPage4K(owner_);
  if (!page.has_value()) {
    return std::nullopt;
  }
  mem_->ZeroPage(page->perm);
  PAddr child = page->ptr;
  // averif-lint: allow(hot-path-alloc) — allocates only when an intermediate node is first needed; steady-state walks hit existing nodes
  node_perms_.emplace(child, std::move(page->perm));
  node_info_.set(child, PtNodeInfo{.level = child_level, .va_base = child_base});
  // Intermediate entries carry maximal rights; effective rights come from
  // the leaf (the MMU intersects along the walk).
  MapEntryPerm wide{.writable = true, .user = true, .no_execute = false};
  WriteEntry(node, index, MakePte(child, wide, /*leaf_superpage=*/false));
  return child;
}

MapError PageTable::Map(PageAllocator* alloc, VAddr va, PAddr pa, PageSize size,
                        MapEntryPerm perm) {
  std::uint64_t bytes = PageBytes(size);
  if (va % bytes != 0 || pa % bytes != 0) {
    return MapError::kMisaligned;
  }
  if (VaIndex(va, 4) >= kPtEntriesPerNode) {
    return MapError::kMisaligned;  // beyond the modelled 48-bit space
  }

  int leaf = LeafLevel(size);
  PAddr node = cr3_;
  for (int level = 4; level > leaf; --level) {
    std::uint64_t index = VaIndex(va, level);
    std::uint64_t pte = ReadEntry(node, index);
    if ((pte & kPtePresent) != 0 && (pte & kPtePageSize) != 0) {
      return MapError::kConflict;  // an existing superpage covers this range
    }
    VAddr child_base = (va / (EntrySpan(level - 1) * kPtEntriesPerNode)) *
                       (EntrySpan(level - 1) * kPtEntriesPerNode);
    std::optional<PAddr> child = EnsureChild(alloc, node, index, level - 1, child_base);
    if (!child.has_value()) {
      return MapError::kOutOfMemory;
    }
    node = *child;
  }

  std::uint64_t leaf_index = VaIndex(va, leaf);
  std::uint64_t existing = ReadEntry(node, leaf_index);
  if ((existing & kPtePresent) != 0) {
    // At superpage levels a present non-PS entry is a child table: conflict.
    if (leaf > 1 && (existing & kPtePageSize) == 0) {
      return MapError::kConflict;
    }
    return MapError::kAlreadyMapped;
  }

  WriteEntry(node, leaf_index, MakePte(pa, perm, /*leaf_superpage=*/leaf > 1));
  MapEntry entry{.addr = pa, .size = size, .perm = perm};
  MutableMapping(size).set(va, entry);
  va_index_[va] = entry;
  return MapError::kOk;
}

MapError PageTable::CanMap(VAddr va, PageSize size) const {
  std::uint64_t bytes = PageBytes(size);
  if (va % bytes != 0 || VaIndex(va, 4) >= kPtEntriesPerNode) {
    return MapError::kMisaligned;
  }
  int leaf = LeafLevel(size);
  PAddr node = cr3_;
  for (int level = 4; level > leaf; --level) {
    std::uint64_t pte = mem_->HwReadU64(node + VaIndex(va, level) * 8);
    if ((pte & kPtePresent) == 0) {
      return MapError::kOk;  // chain absent from here: fresh nodes suffice
    }
    if ((pte & kPtePageSize) != 0) {
      return MapError::kConflict;
    }
    node = pte & kPteAddrMask;
  }
  std::uint64_t existing = mem_->HwReadU64(node + VaIndex(va, leaf) * 8);
  if ((existing & kPtePresent) != 0) {
    if (leaf > 1 && (existing & kPtePageSize) == 0) {
      return MapError::kConflict;
    }
    return MapError::kAlreadyMapped;
  }
  return MapError::kOk;
}

std::uint64_t PageTable::FreshNodesFor(VAddr va, PageSize size,
                                       std::set<std::uint64_t>* virtual_nodes) const {
  int leaf = LeafLevel(size);
  PAddr node = cr3_;
  std::uint64_t fresh = 0;
  bool below_fresh = false;
  for (int level = 4; level > leaf; --level) {
    // Key identifying the child node slot this level would descend into.
    std::uint64_t child_span = EntrySpan(level - 1) * kPtEntriesPerNode;
    std::uint64_t key = (static_cast<std::uint64_t>(level - 1) << 52) | (va / child_span);
    if (below_fresh) {
      // averif-lint: allow(hot-path-alloc) — per-call scratch set for fresh-node charge accounting on map ops; bounded by the dynamic AllocProbe gate
      if (virtual_nodes == nullptr || virtual_nodes->insert(key).second) {
        ++fresh;
      }
      continue;
    }
    std::uint64_t pte = mem_->HwReadU64(node + VaIndex(va, level) * 8);
    if ((pte & kPtePresent) == 0) {
      below_fresh = true;
      // averif-lint: allow(hot-path-alloc) — same per-call charge-accounting scratch set
      if (virtual_nodes == nullptr || virtual_nodes->insert(key).second) {
        ++fresh;
      }
    } else {
      node = pte & kPteAddrMask;
    }
  }
  return fresh;
}

std::optional<MapEntry> PageTable::Unmap(VAddr va) {
  auto indexed = va_index_.find(va);
  if (indexed == va_index_.end()) {
    return std::nullopt;
  }
  PageSize size = indexed->second.size;
  ATMO_CHECK(mapping(size).contains(va), "va_index_ refers to a mapping the ghost maps lack");

  int leaf = LeafLevel(size);
  PAddr node = cr3_;
  for (int level = 4; level > leaf; --level) {
    std::uint64_t pte = ReadEntry(node, VaIndex(va, level));
    ATMO_CHECK((pte & kPtePresent) != 0 && (pte & kPtePageSize) == 0,
               "ghost map refers to a mapping the concrete table lacks");
    node = pte & kPteAddrMask;
  }
  std::uint64_t leaf_index = VaIndex(va, leaf);
  std::uint64_t pte = ReadEntry(node, leaf_index);
  ATMO_CHECK((pte & kPtePresent) != 0, "ghost map refers to an absent leaf");
  WriteEntry(node, leaf_index, 0);

  MapEntry out = MutableMapping(size).at(va);
  MutableMapping(size).erase(va);
  va_index_.erase(va);
  return out;
}

std::optional<MapEntry> PageTable::Resolve(VAddr va) const {
  // Resolution through the hashed index over the abstract maps; refinement
  // (checked separately) guarantees this equals what the MMU would see.
  // One probe per size class, aligned down to that class's base.
  for (std::uint64_t bytes : {kPageSize4K, kPageSize2M, kPageSize1G}) {
    auto it = va_index_.find(va & ~(bytes - 1));
    if (it != va_index_.end() && PageBytes(it->second.size) == bytes) {
      return it->second;
    }
  }
  return std::nullopt;
}

const SpecMap<VAddr, MapEntry>& PageTable::mapping(PageSize size) const {
  switch (size) {
    case PageSize::k4K:
      return map_4k_;
    case PageSize::k2M:
      return map_2m_;
    case PageSize::k1G:
      return map_1g_;
  }
  return map_4k_;
}

SpecMap<VAddr, MapEntry>& PageTable::MutableMapping(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return map_4k_;
    case PageSize::k2M:
      return map_2m_;
    case PageSize::k1G:
      return map_1g_;
  }
  return map_4k_;
}

SpecMap<VAddr, MapEntry> PageTable::AddressSpace() const {
  if (map_2m_.empty() && map_1g_.empty()) {
    return map_4k_;  // COW share: O(1) for 4K-only address spaces
  }
  SpecMap<VAddr, MapEntry> out = map_4k_;
  for (const auto& [va, entry] : map_2m_) {
    out.set(va, entry);
  }
  for (const auto& [va, entry] : map_1g_) {
    out.set(va, entry);
  }
  return out;
}

SpecSet<PagePtr> PageTable::PageClosure() const {
  SpecSet<PagePtr> out;
  for (const auto& [addr, perm] : node_perms_) {
    out.add(addr);
  }
  return out;
}

bool PageTable::StructureWf(const PhysMem& mem) const {
  // The hashed index is exactly the union of the three ghost maps: same
  // cardinality and every indexed entry present in the map of its size
  // class with the same value.
  if (va_index_.size() != MappingCount()) {
    return false;
  }
  for (const auto& [va, entry] : va_index_) {
    const SpecMap<VAddr, MapEntry>& ground_truth = mapping(entry.size);
    if (!ground_truth.contains(va) || !(ground_truth.at(va) == entry)) {
      return false;
    }
  }

  // Ghost metadata domain equals the permission map domain, root included.
  if (node_perms_.size() != node_info_.size() || !node_perms_.count(cr3_)) {
    return false;
  }
  if (!node_info_.contains(cr3_) || node_info_.at(cr3_).level != 4 ||
      node_info_.at(cr3_).va_base != 0) {
    return false;
  }

  SpecMap<PAddr, int> ref_count;
  for (const auto& [addr, perm] : node_perms_) {
    if (!node_info_.contains(addr)) {
      return false;
    }
    const PtNodeInfo& info = node_info_.at(addr);
    if (info.level < 1 || info.level > 4) {
      return false;
    }
    for (std::uint64_t index = 0; index < kPtEntriesPerNode; ++index) {
      std::uint64_t pte = mem.HwReadU64(addr + index * 8);
      if ((pte & kPtePresent) == 0) {
        continue;
      }
      PAddr target = pte & kPteAddrMask;
      bool superpage_leaf = (info.level == 3 || info.level == 2) && (pte & kPtePageSize) != 0;
      if (info.level == 1 || superpage_leaf) {
        // Leaf: alignment by level.
        std::uint64_t align = EntrySpan(info.level);
        if (target % align != 0) {
          return false;
        }
        continue;
      }
      if (info.level == 1 || (pte & kPtePageSize) != 0) {
        return false;  // PS bit outside PDPT/PD
      }
      // Non-leaf: must reference a registered node of the next level whose
      // va_base matches this slot.
      if (!node_info_.contains(target)) {
        return false;
      }
      const PtNodeInfo& child = node_info_.at(target);
      VAddr slot_base = info.va_base + index * EntrySpan(info.level);
      if (child.level != info.level - 1 || child.va_base != slot_base) {
        return false;
      }
      ref_count.set(target, (ref_count.contains(target) ? ref_count.at(target) : 0) + 1);
    }
  }

  // Acyclicity / tree shape: the root is never referenced; every other node
  // is referenced exactly once.
  if (ref_count.contains(cr3_)) {
    return false;
  }
  for (const auto& [addr, perm] : node_perms_) {
    if (addr == cr3_) {
      continue;
    }
    if (!ref_count.contains(addr) || ref_count.at(addr) != 1) {
      return false;
    }
  }
  return true;
}

void PageTable::Destroy(PageAllocator* alloc) {
  ATMO_CHECK(MappingCount() == 0, "Destroy of page table with live mappings (leak)");
  while (!node_perms_.empty()) {
    auto it = node_perms_.begin();
    PAddr addr = it->first;
    FramePerm perm = std::move(it->second);
    node_perms_.erase(it);
    alloc->FreePage(addr, std::move(perm));
  }
  node_info_ = SpecMap<PAddr, PtNodeInfo>();
  va_index_.clear();
  cr3_ = kNullPtr;
}

void PageTable::CloneForVerificationInto(PageTable* out, PhysMem* mem) const {
  out->mem_ = mem;
  out->cr3_ = cr3_;
  out->owner_ = owner_;
  // Node permissions: one merge walk over the reused map nodes.
  RefillSorted(node_perms_, &out->node_perms_, [](const FramePerm& from, FramePerm* to) {
    *to = from.CloneForVerification();
  });
  // COW spec maps: O(1) rep shares. The hashed index copy-assign reuses the
  // destination's bucket array.
  out->node_info_ = node_info_;
  out->map_4k_ = map_4k_;
  out->map_2m_ = map_2m_;
  out->map_1g_ = map_1g_;
  out->va_index_ = va_index_;
  out->write_observer_ = nullptr;
}

}  // namespace atmo
