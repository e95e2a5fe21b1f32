// Read-out of a multi-copy main table: every live key exactly once, with no
// side table of keys already seen.
//
// Rehash starts by "reading out all inserted items" (§I.2), and a
// multi-copy table holds most keys more than once. A key keeps at most one
// copy per sub-table, and each copy's counter holds the key's copy count c.
// The read-out therefore reports a key at its copy in the lowest sub-table
// that holds one:
//
//  * c == 1 — the sole copy is reported directly; at the loads growth
//    fires at, this is most occupants.
//  * c >= 2, in sub-table t — sub-tables t..d-1 hold at most d - t of the
//    c copies, so if c > d - t an earlier sub-table holds one and this copy
//    is skipped without a look. Otherwise the key's candidates in
//    sub-tables 0..t-1 are checked. With d = 3 only a counter-2 copy in
//    sub-table 1 needs that check.
//
// Slots are visited in ascending order and sub-tables occupy ascending slot
// ranges, so keys come out in the order of their lowest-indexed copy: a
// rebuild from the read-out depends only on the table's contents.

#ifndef MCCUCKOO_CORE_READ_OUT_H_
#define MCCUCKOO_CORE_READ_OUT_H_

#include <cstddef>
#include <cstdint>

namespace mccuckoo {

/// Calls `emit(slot)` once per distinct key of a multi-copy main table of
/// `d` sub-tables of `slots_per_subtable` slots each, at the key's copy in
/// its lowest sub-table. `counter(slot)` is the slot's copy counter (0 for
/// an empty or tombstoned slot); `copy_before(slot, t)` reports whether the
/// occupant of `slot`, which lies in sub-table t, also has a copy in one of
/// sub-tables 0..t-1.
template <typename CounterFn, typename CopyBeforeFn, typename EmitFn>
void ForEachDistinctOccupant(size_t num_slots, size_t slots_per_subtable,
                             uint32_t d, CounterFn&& counter,
                             CopyBeforeFn&& copy_before, EmitFn&& emit) {
  for (size_t slot = 0; slot < num_slots; ++slot) {
    const uint64_t c = counter(slot);
    if (c == 0) continue;
    if (c >= 2) {
      const auto t = static_cast<uint32_t>(slot / slots_per_subtable);
      if (c > d - t) continue;  // pigeonhole: an earlier copy exists
      if (t > 0 && copy_before(slot, t)) continue;
    }
    emit(slot);
  }
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_CORE_READ_OUT_H_
