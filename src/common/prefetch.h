// A software prefetch the optimizer cannot delete.

#ifndef MCCUCKOO_COMMON_PREFETCH_H_
#define MCCUCKOO_COMMON_PREFETCH_H_

namespace mccuckoo {

/// __builtin_prefetch(p, kRw, kLocality), kept. GCC models the builtin as
/// a call without side effects, so a loop whose body does nothing but
/// prefetch has no effect it must preserve, and C++'s finite-loop rule
/// (-ffinite-loops, on at -O2) lets it delete the loop, prefetches and
/// all: the stage-1 loops of the batch and scalar-write paths compiled to
/// nothing for the single-slot table. The empty volatile asm that takes
/// the address emits no instruction but counts as an effect. Use this in
/// any loop that only prefetches.
template <int kRw, int kLocality>
inline void PrefetchLine(const void* p) {
  __builtin_prefetch(p, kRw, kLocality);
  asm volatile("" : : "r"(p));
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_COMMON_PREFETCH_H_
