// RefillSorted — the pooled-clone merge walk (DESIGN.md §14).
//
// Overwrites `*dst` with a deep copy of the ordered map `src` in one pass
// over both key sequences, reusing dst's map nodes: values under common keys
// are overwritten in place by `clone_into(from, &to)`, stale keys are
// erased, and missing keys are inserted with a position hint. Once dst's key
// set tracks src's, a refill allocates no map nodes.
//
// A missing key is inserted as a default-constructed shell that
// `clone_into` then fills (PageTable). Values with no default state — the
// linear PointsTo/FramePerm tokens — are inserted as their own leaf
// CloneForVerification().

#ifndef ATMO_SRC_VSTD_SORTED_REFILL_H_
#define ATMO_SRC_VSTD_SORTED_REFILL_H_

#include <type_traits>

namespace atmo {

template <typename Map, typename CloneInto>
void RefillSorted(const Map& src, Map* dst, CloneInto clone_into) {
  using Value = typename Map::mapped_type;
  auto dit = dst->begin();
  for (const auto& [key, from] : src) {
    while (dit != dst->end() && dit->first < key) {
      dit = dst->erase(dit);
    }
    if (dit != dst->end() && dit->first == key) {
      clone_into(from, &dit->second);
    } else if constexpr (std::is_default_constructible_v<Value>) {
      // averif-lint: allow(hot-path-alloc) — emplace_hint refills a recycled node; allocates only when live state grew past the pooled high-water mark
      dit = dst->emplace_hint(dit, key, Value());
      clone_into(from, &dit->second);
    } else {
      // averif-lint: allow(hot-path-alloc) — as above, for leaf permission tokens
      dit = dst->emplace_hint(dit, key, from.CloneForVerification());
    }
    ++dit;
  }
  dst->erase(dit, dst->end());
}

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_SORTED_REFILL_H_
