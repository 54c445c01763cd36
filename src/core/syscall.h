// System-call interface of the Atmosphere microkernel (§3).
//
// A syscall is a plain record (modelling the register file at kernel entry).
// Kernel::Step(thread, syscall) executes one invocation atomically under the
// big lock. Failure is atomic: any return other than kOk/kBlocked leaves the
// abstract kernel state unchanged — the per-syscall specifications in
// src/spec assert exactly that.

#ifndef ATMO_SRC_CORE_SYSCALL_H_
#define ATMO_SRC_CORE_SYSCALL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/ipc/message.h"
#include "src/vstd/types.h"

namespace atmo {

enum class SysOp : std::uint8_t {
  kYield = 0,
  kMmap,            // map fresh pages into the caller's address space
  kMunmap,          // remove mappings from the caller's address space
  kNewContainer,    // child container of the caller's container
  kNewProcess,      // child process of the caller's process
  kNewThread,       // thread in the caller's (or a same-container) process
  kNewEndpoint,     // endpoint bound to a caller descriptor slot
  kUnbindEndpoint,  // drop a caller descriptor (frees the endpoint at zero)
  kSend,            // send a message (blocks if no receiver)
  kRecv,            // receive a message (blocks if no sender)
  kCall,            // send, then block for the reply
  kReply,           // reply to the thread that called us
  kExit,            // terminate the calling thread
  kKillProcess,     // terminate a descendant process subtree
  kKillContainer,   // terminate a descendant container subtree, harvest
  kIommuCreateDomain,
  kIommuAttachDevice,
  kIommuDetachDevice,
  kIommuMapDma,
  kIommuUnmapDma,
  kRingSetup,   // create a submission/completion ring owned by the caller
  kRingSubmit,  // enqueue one deferred syscall onto a ring's SQ
  kRingEnter,   // drain the SQ: execute entries back-to-back, fill the CQ
  kGrantReturn, // return a borrowed page (va_range.base = borrower VA)
  kObsQuery,    // snapshot the caller's obs counters into a writable page
                // (va_range.base = destination VA, must be a mapping base)
};

// One bit per component of AbstractKernel (src/spec/abstract_state.h).
// `containers` covers root_container as well; `free_sets` covers the three
// per-size-class free sets; `scheduler` covers run_queue and current.
struct FrameProfile {
  bool threads = false;
  bool containers = false;
  bool procs = false;
  bool endpoints = false;
  bool address_spaces = false;
  bool pages = false;
  bool free_sets = false;
  bool iommu = false;
  bool rings = false;
  bool scheduler = false;
};

// Everything known about one SysOp as data. The behaviour lives in the two
// dispatchers (Kernel::Exec and SyscallSpec); the facts live in the row
// SysOpInfoOf returns.
struct SysOpInfo {
  // "sys.<name>": the trace label of the op's spans. The op's name (used in
  // check-failure messages and reports) is the text after "sys.".
  const char* label = nullptr;
  // The abstract-state components the op may change on ANY outcome
  // (success, blocked or failure). RefinementChecker::Step fails when a
  // component outside it changes (FrameProfileViolation in
  // src/spec/frame_profile.h).
  FrameProfile frame = {};
  // May be deferred onto a syscall ring (kRingSubmit's ring_op). Excluded:
  // blocking IPC (a CQ entry cannot represent a parked thread); kYield (the
  // batch already runs with its owner on the CPU); exit and the kills (could
  // remove the draining thread mid-batch); ring ops (no nesting); kObsQuery
  // (a deferred snapshot would report counters as of an unpredictable drain
  // point).
  bool ring_submittable = false;
  // A successful return value is a fresh kernel address, whose value depends
  // on allocator placement — a channel the paper's model excludes by
  // construction, so noninterference compares it as "created vs not".
  bool returns_object_pointer = false;
  // False only on the fallback row a hostile out-of-range cast lands on.
  bool known = true;

  constexpr const char* name() const { return known ? label + sizeof("sys.") - 1 : "?"; }
};

// The table: one row per op. The switch has no `default:`, so under the
// project's -Werror=switch -Werror=switch-enum a new enumerator without a
// row does not compile.
//
// Frame derivation notes:
//   * object creation charges quota (containers) and allocates object/table
//     pages (pages + free_sets);
//   * rendezvous IPC can move threads between queues (threads, endpoints,
//     scheduler) and a delivered payload can map a granted page
//     (address_spaces, pages, free_sets, receiver quota) or delegate an
//     IOMMU domain (iommu, both containers' charge);
//   * kills harvest resources upward: everything the subtree owned can be
//     re-attributed or freed.
// Keep profiles tight: a component is listed only if some reachable path of
// the op mutates it. Widening a profile to silence a runtime violation must
// be justified against the concrete kernel path that touches the component
// (DESIGN.md §11).
constexpr SysOpInfo SysOpInfoOf(SysOp op) {
  constexpr FrameProfile kAll = {.threads = true, .containers = true, .procs = true,
                                 .endpoints = true, .address_spaces = true, .pages = true,
                                 .free_sets = true, .iommu = true, .rings = true,
                                 .scheduler = true};
  // Everything a delivered payload can reach, except process structure.
  constexpr FrameProfile kIpc = {.threads = true, .containers = true, .endpoints = true,
                                 .address_spaces = true, .pages = true, .free_sets = true,
                                 .iommu = true, .scheduler = true};
  constexpr FrameProfile kUserMemory = {.containers = true, .address_spaces = true,
                                        .pages = true, .free_sets = true};
  constexpr FrameProfile kDmaMemory = {.containers = true, .pages = true, .free_sets = true,
                                       .iommu = true};
  switch (op) {
    case SysOp::kYield:
      return {.label = "sys.yield", .frame = {.threads = true, .scheduler = true}};
    case SysOp::kMmap:
      return {.label = "sys.mmap", .frame = kUserMemory, .ring_submittable = true};
    case SysOp::kMunmap:
      return {.label = "sys.munmap", .frame = kUserMemory, .ring_submittable = true};
    case SysOp::kNewContainer:
      return {.label = "sys.new_container",
              .frame = {.containers = true, .pages = true, .free_sets = true},
              .ring_submittable = true,
              .returns_object_pointer = true};
    case SysOp::kNewProcess:
      return {.label = "sys.new_process",
              .frame = {.containers = true, .procs = true, .address_spaces = true,
                        .pages = true, .free_sets = true},
              .ring_submittable = true,
              .returns_object_pointer = true};
    case SysOp::kNewThread:
      return {.label = "sys.new_thread",
              .frame = {.threads = true, .containers = true, .procs = true, .pages = true,
                        .free_sets = true, .scheduler = true},
              .ring_submittable = true,
              .returns_object_pointer = true};
    case SysOp::kNewEndpoint:
      return {.label = "sys.new_endpoint",
              .frame = {.threads = true, .containers = true, .endpoints = true,
                        .pages = true, .free_sets = true},
              .ring_submittable = true,
              .returns_object_pointer = true};
    case SysOp::kUnbindEndpoint:
      return {.label = "sys.unbind_endpoint",
              .frame = {.threads = true, .containers = true, .endpoints = true,
                        .pages = true, .free_sets = true},
              .ring_submittable = true};
    case SysOp::kSend:
      return {.label = "sys.send", .frame = kIpc};
    case SysOp::kRecv:
      return {.label = "sys.recv", .frame = kIpc};
    case SysOp::kCall:
      return {.label = "sys.call", .frame = kIpc};
    case SysOp::kReply:
      return {.label = "sys.reply", .frame = kIpc};
    case SysOp::kExit:
      return {.label = "sys.exit",
              .frame = {.threads = true, .containers = true, .procs = true,
                        .endpoints = true, .pages = true, .free_sets = true,
                        .scheduler = true}};
    case SysOp::kKillProcess:
      return {.label = "sys.kill_process",
              .frame = {.threads = true, .containers = true, .procs = true,
                        .endpoints = true, .address_spaces = true, .pages = true,
                        .free_sets = true, .scheduler = true}};
    case SysOp::kKillContainer:
      return {.label = "sys.kill_container",
              .frame = {.threads = true, .containers = true, .procs = true,
                        .endpoints = true, .address_spaces = true, .pages = true,
                        .free_sets = true, .iommu = true, .scheduler = true}};
    case SysOp::kIommuCreateDomain:
      return {.label = "sys.iommu_create_domain",
              .frame = kDmaMemory,
              .ring_submittable = true,
              .returns_object_pointer = true};
    case SysOp::kIommuAttachDevice:
      return {.label = "sys.iommu_attach_device",
              .frame = {.iommu = true},
              .ring_submittable = true};
    case SysOp::kIommuDetachDevice:
      return {.label = "sys.iommu_detach_device",
              .frame = {.iommu = true},
              .ring_submittable = true};
    case SysOp::kIommuMapDma:
      return {.label = "sys.iommu_map_dma", .frame = kDmaMemory, .ring_submittable = true};
    case SysOp::kIommuUnmapDma:
      return {.label = "sys.iommu_unmap_dma", .frame = kDmaMemory, .ring_submittable = true};
    case SysOp::kRingSetup:
      // The fresh ring id is global-counter shaped.
      return {.label = "sys.ring_setup",
              .frame = {.rings = true},
              .returns_object_pointer = true};
    case SysOp::kRingSubmit:
      return {.label = "sys.ring_submit", .frame = {.rings = true}};
    case SysOp::kRingEnter:
      // One checked transition covering a whole drained batch: the union of
      // every submittable op's profile (everything but the scheduler-only
      // bits kNewThread already brings in) plus the ring itself. This width
      // is the amortization tradeoff — per-entry tightness is recovered by
      // the differential oracle (tests/ring_batch_differential_test.cc).
      return {.label = "sys.ring_enter", .frame = kAll};
    case SysOp::kGrantReturn:
      // Borrower unmap + lender rights restore: two address spaces and the
      // page's borrow relabeling. The lender still maps the frame, so the
      // return can never release it — no container charge or free-set edge.
      return {.label = "sys.grant_return",
              .frame = {.address_spaces = true, .pages = true},
              .ring_submittable = true};
    case SysOp::kObsQuery:
      // The tightest profile in the table: the snapshot lands in page byte
      // contents, which Ψ does not model, so at abstract level the syscall
      // touches nothing at all. Its return value is sizeof(ObsQueryRecord),
      // a constant.
      return {.label = "sys.obs_query", .frame = {}};
  }
  // A hostile cast lands on the widest profile, so the runtime frame check
  // never under-approximates.
  return {.label = "sys.unknown", .frame = kAll, .known = false};
}

namespace syscall_internal {

// The number of leading enumerator values `known` accepts, or 0 when a
// value after the first rejected one is accepted again (a gap).
template <typename Enum, typename Known>
constexpr std::size_t DenseCount(Known known) {
  std::size_t n = 0;
  while (n <= 0xff && known(static_cast<Enum>(n))) {
    ++n;
  }
  for (std::size_t i = n; i <= 0xff; ++i) {
    if (known(static_cast<Enum>(i))) {
      return 0;
    }
  }
  return n;
}

}  // namespace syscall_internal

inline constexpr std::size_t kSysOpCount = syscall_internal::DenseCount<SysOp>(
    [](SysOp op) { return SysOpInfoOf(op).known; });
static_assert(kSysOpCount > 0,
              "every SysOp needs a row, and SysOp values must be contiguous from 0");
// Every row names its op; name() relies on the "sys." prefix.
static_assert(
    [] {
      for (std::size_t i = 0; i < kSysOpCount; ++i) {
        const char* label = SysOpInfoOf(static_cast<SysOp>(i)).label;
        if (label == nullptr || !std::string_view(label).starts_with("sys.") ||
            std::string_view(label).size() == sizeof("sys.") - 1) {
          return false;
        }
      }
      return true;
    }(),
    "every SysOp row needs a \"sys.<name>\" label");

// Record layout kObsQuery writes at the destination VA. Plain u64 words so
// user code (and the differential test) can read it back with HwReadBytes
// without any packing concerns. The snapshot is advisory telemetry — it is
// *about* the kernel, not part of Ψ, which is exactly why ObsQuerySpec can
// demand Ψ' == Ψ (the abstraction carries no memory byte contents).
struct ObsQueryRecord {
  std::uint64_t magic = 0;            // kObsQueryMagic
  std::uint64_t version = 0;          // kObsQueryVersion
  std::uint64_t mapped_pages = 0;     // mappings in the caller's address space
  std::uint64_t borrows_lent = 0;     // outstanding loans where caller is lender
  std::uint64_t borrows_held = 0;     // outstanding loans where caller is borrower
  std::uint64_t ring_sq_depth = 0;    // queued submissions across caller-owned rings
  std::uint64_t ring_cq_depth = 0;    // unreaped completions across caller-owned rings
  std::uint64_t dropped_samples = 0;  // trace requests the obs sampler declined

  friend bool operator==(const ObsQueryRecord&, const ObsQueryRecord&) = default;
};

inline constexpr std::uint64_t kObsQueryMagic = 0x4154'4d4f'4f42'5351ull;  // "ATMOOBSQ"
inline constexpr std::uint64_t kObsQueryVersion = 1;

// Contiguous virtual range of `count` pages of uniform size (VaRange4K in
// the paper generalized over page sizes).
struct VaRange {
  VAddr base = 0;
  std::uint64_t count = 0;
  PageSize size = PageSize::k4K;

  std::uint64_t bytes() const { return count * PageBytes(size); }
  VAddr At(std::uint64_t i) const { return base + i * PageBytes(size); }

  friend bool operator==(const VaRange&, const VaRange&) = default;
};

// Upper bound on pages per mmap/munmap — keeps single syscalls short under
// the big lock (the paper's §4.3 discussion notes long-running calls leak
// timing; bounding region size is the fix it proposes).
inline constexpr std::uint64_t kMaxMmapCount = 512;

struct Syscall {
  SysOp op = SysOp::kYield;

  // kMmap / kMunmap
  VaRange va_range;
  MapEntryPerm map_perm;

  // kNewContainer
  std::uint64_t quota = 0;
  std::uint64_t cpu_mask = ~0ull;

  // kNewThread (target process; kNullPtr = caller's process),
  // kKillProcess / kKillContainer (target object)
  Ptr target = kNullPtr;

  // IPC: descriptor index and payload. Grant fields are interpreted on the
  // sender side: PageGrant.page is the *sender virtual address* of the page
  // to grant; EndpointGrant.endpoint is the *sender descriptor index* to
  // delegate. The kernel resolves them to physical object pointers during
  // the transfer.
  EdptIdx edpt_idx = 0;
  IpcPayload payload;

  // IOMMU ops.
  std::uint64_t iommu_domain = 0;
  std::uint32_t device = 0;
  VAddr iova = 0;
  VAddr dma_va = 0;  // caller VA of the page to expose to the device

  // Syscall rings (kRingSetup / kRingSubmit / kRingEnter). A submitted entry
  // reuses this same register file for the deferred call's arguments:
  // `ring_op` names the inner op and the kernel rewrites `op := ring_op`
  // (clearing the ring fields) when the entry is drained — see
  // RingInnerCall() in src/core/syscall_ring.h.
  std::uint64_t ring_id = 0;        // kRingSubmit / kRingEnter: target ring
  std::uint32_t ring_entries = 0;   // kRingSetup: SQ/CQ capacity (power of two)
  std::uint32_t ring_flags = 0;     // kRingSetup: RingFlags bits
  SysOp ring_op = SysOp::kYield;    // kRingSubmit: the deferred op
  std::uint64_t ring_user_data = 0; // kRingSubmit: echoed in the completion
  std::uint32_t ring_budget = 0;    // kRingEnter: max entries (0 = no limit)

  friend bool operator==(const Syscall&, const Syscall&) = default;
};

enum class SysError : std::uint8_t {
  kOk = 0,
  kBlocked,        // the caller blocked; result delivered on wake-up
  kNoMemory,       // physical memory exhausted
  kQuotaExceeded,  // container reservation exhausted
  kCapacity,       // a bounded kernel structure is full
  kInvalid,        // malformed arguments / dangling handle
  kDenied,         // caller lacks authority over the target
  kWouldFault,     // transfer could not be applied to the peer
};

constexpr const char* SysErrorName(SysError error) {
  switch (error) {
    case SysError::kOk:
      return "ok";
    case SysError::kBlocked:
      return "blocked";
    case SysError::kNoMemory:
      return "no-memory";
    case SysError::kQuotaExceeded:
      return "quota-exceeded";
    case SysError::kCapacity:
      return "capacity";
    case SysError::kInvalid:
      return "invalid";
    case SysError::kDenied:
      return "denied";
    case SysError::kWouldFault:
      return "would-fault";
  }
  return "?";
}

inline constexpr std::size_t kSysErrorCount = syscall_internal::DenseCount<SysError>(
    [](SysError error) { return SysErrorName(error)[0] != '?'; });
static_assert(kSysErrorCount > 0,
              "every SysError needs a name, and SysError values must be contiguous from 0");

struct SyscallRet {
  SysError error = SysError::kOk;
  std::uint64_t value = 0;  // created object pointer / domain id / count

  bool ok() const { return error == SysError::kOk; }
  friend bool operator==(const SyscallRet&, const SyscallRet&) = default;
};

}  // namespace atmo

#endif  // ATMO_SRC_CORE_SYSCALL_H_
