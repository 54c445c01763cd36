// 4-level page table with flat permission storage (§6.2).
//
// The concrete page table is a tree of 4 KiB node frames living in simulated
// physical memory — the same bits the MMU walker reads. Following the
// paper's key design choice, the tracked permissions of *all* PML levels are
// stored in one flat map at the page-table root, together with per-node
// ghost metadata (level + virtual-address base). The abstract state is three
// ghost maps from virtual address to MapEntry, one per page size, which the
// refinement checkers (src/pagetable/refinement.h) compare against what the
// MMU resolves.
//
// Page-table updates are modelled write-by-write: every 8-byte store to a
// node can be observed through a write observer, which lets tests check the
// paper's §4.2 consistency property — a step that does not modify a leaf
// entry leaves the abstract address space unchanged, and a step that does
// changes exactly one entry.

#ifndef ATMO_SRC_PAGETABLE_PAGE_TABLE_H_
#define ATMO_SRC_PAGETABLE_PAGE_TABLE_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/hw/mmu.h"
#include "src/hw/phys_mem.h"
#include "src/pmem/page_allocator.h"
#include "src/vstd/spec_map.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/types.h"

namespace atmo {

enum class MapError {
  kOk = 0,
  kAlreadyMapped,   // the exact virtual page is already mapped
  kConflict,        // a superpage / table node occupies the slot
  kOutOfMemory,     // could not allocate an intermediate node
  kMisaligned,      // va/pa not aligned to the mapping size
  kNotMapped,       // unmap of an absent mapping
};

const char* MapErrorName(MapError error);

// Ghost metadata for one page-table node (flat storage).
struct PtNodeInfo {
  int level = 0;      // 4 = PML4 (root) ... 1 = PT
  VAddr va_base = 0;  // first virtual address covered by this node

  friend bool operator==(const PtNodeInfo&, const PtNodeInfo&) = default;
};

class PageTable {
 public:
  // Allocates the root node. Returns nullopt on OOM.
  static std::optional<PageTable> New(PhysMem* mem, PageAllocator* alloc, CtnrPtr owner);

  PageTable(PageTable&&) noexcept = default;
  PageTable& operator=(PageTable&&) noexcept = default;

  PAddr cr3() const { return cr3_; }
  CtnrPtr owner() const { return owner_; }

  // Installs `pa` at `va` with the given size and rights. Allocates
  // intermediate nodes from `alloc` as needed (charged to the table owner).
  MapError Map(PageAllocator* alloc, VAddr va, PAddr pa, PageSize size, MapEntryPerm perm);

  // Dry-run of Map: reports the error Map would return (kOk, kMisaligned,
  // kConflict, kAlreadyMapped) without mutating anything or consulting the
  // allocator (node allocation is handled by the caller's cost accounting).
  MapError CanMap(VAddr va, PageSize size) const;

  // Number of fresh intermediate nodes a Map at `va` would allocate,
  // assuming the nodes in `virtual_nodes` (keys: level * 2^52 | base) have
  // already been "created" by earlier maps of the same batch; newly counted
  // nodes are added to the set. Enables exact batched cost pre-computation.
  // `virtual_nodes` may be null for single-mapping queries (no dedup
  // needed, no allocation on the syscall fast path).
  std::uint64_t FreshNodesFor(VAddr va, PageSize size,
                              std::set<std::uint64_t>* virtual_nodes) const;

  // Removes the mapping at `va` (any size); returns what was mapped.
  // Intermediate nodes are kept (they are reclaimed in Destroy()).
  std::optional<MapEntry> Unmap(VAddr va);

  // Software resolve through the kernel's own view (not the MMU).
  std::optional<MapEntry> Resolve(VAddr va) const;

  // --- Ghost state ---
  const SpecMap<VAddr, MapEntry>& mapping_4k() const { return map_4k_; }
  const SpecMap<VAddr, MapEntry>& mapping_2m() const { return map_2m_; }
  const SpecMap<VAddr, MapEntry>& mapping_1g() const { return map_1g_; }
  const SpecMap<VAddr, MapEntry>& mapping(PageSize size) const;
  // Union of the three maps: the process's abstract address space.
  SpecMap<VAddr, MapEntry> AddressSpace() const;
  std::size_t MappingCount() const {
    return map_4k_.size() + map_2m_.size() + map_1g_.size();
  }

  const std::map<PAddr, FramePerm>& node_perms() const { return node_perms_; }
  const SpecMap<PAddr, PtNodeInfo>& node_info() const { return node_info_; }

  // Pages used by this data structure and everything it owns (§4.2
  // page_closure): the node frames. Mapped target pages are owned by the
  // address space, not the table.
  SpecSet<PagePtr> PageClosure() const;

  // Structural well-formedness: node ghost metadata is consistent, every
  // non-leaf present entry points to exactly one registered child node of
  // the next level, leaves are aligned, cr3 is the only root, and the
  // hashed va_index_ equals the union of the three ghost maps.
  bool StructureWf(const PhysMem& mem) const;

  // Frees every node frame back to the allocator, consuming permissions.
  // All mappings must have been unmapped first (leak freedom: target pages
  // would otherwise lose their accounting).
  void Destroy(PageAllocator* alloc);

  // After-write hook for consistency tests (§4.2). Called after every
  // 8-byte store to a node frame.
  void SetWriteObserver(std::function<void()> observer) { write_observer_ = std::move(observer); }

  // Clone for the verification harness: overwrite `out` (a previously
  // cloned or default-shell table) in place, reusing its node-permission
  // map nodes and va_index_ buckets. `mem` must already hold this table's
  // node frames (the caller clones PhysMem first), so no frame bytes move
  // here.
  void CloneForVerificationInto(PageTable* out, PhysMem* mem) const;
  // Shell for pooled-clone pools: no root, no permissions; only usable as
  // a CloneForVerificationInto destination.
  PageTable() : mem_(nullptr), cr3_(kNullPtr), owner_(kNullPtr) {}

 private:
  PageTable(PhysMem* mem, PAddr cr3, FramePerm root_perm, CtnrPtr owner);

  std::uint64_t ReadEntry(PAddr node, std::uint64_t index) const;
  void WriteEntry(PAddr node, std::uint64_t index, std::uint64_t pte);

  // Ensures a child node exists at (node, index); returns its address or
  // nullopt on OOM. `child_level` is node's level - 1.
  std::optional<PAddr> EnsureChild(PageAllocator* alloc, PAddr node, std::uint64_t index,
                                   int child_level, VAddr child_base);

  SpecMap<VAddr, MapEntry>& MutableMapping(PageSize size);

  PhysMem* mem_;
  PAddr cr3_;
  CtnrPtr owner_;
  std::map<PAddr, FramePerm> node_perms_;  // flat permission storage
  SpecMap<PAddr, PtNodeInfo> node_info_;   // flat ghost metadata
  SpecMap<VAddr, MapEntry> map_4k_;
  SpecMap<VAddr, MapEntry> map_2m_;
  SpecMap<VAddr, MapEntry> map_1g_;
  // Hashed union of the three ghost maps, keyed by mapping base VA and
  // maintained in lockstep by Map/Unmap (the only mutation points). Turns
  // the per-syscall VA lookups in Resolve/Unmap into O(1) hash probes;
  // StructureWf cross-checks it against the ghost-map ground truth.
  std::unordered_map<VAddr, MapEntry> va_index_;
  std::function<void()> write_observer_;
};

}  // namespace atmo

#endif  // ATMO_SRC_PAGETABLE_PAGE_TABLE_H_
