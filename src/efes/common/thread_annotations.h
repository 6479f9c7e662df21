// Lock-discipline annotations checked by efes_lint (DESIGN.md §10).
//
// EFES_GUARDED_BY(mutex) marks a data member as protected by a mutex
// member of the same class. It expands to nothing at compile time; the
// lock-discipline check reads the annotation and reports any access to
// the member from a method body that is not lexically inside a
// std::lock_guard / std::unique_lock / std::scoped_lock region of that
// mutex. The macro goes after the declarator name:
//
//   std::deque<Task> queue_ EFES_GUARDED_BY(mutex_);
//   bool stop_ EFES_GUARDED_BY(mutex_) = false;
//
// Conventions enforced by the check:
//   - the annotated member and the mutex belong to the same class;
//   - constructors and destructors are exempt (no concurrent access
//     before/after the object's lifetime);
//   - `x.unlock()` / `x.lock()` on a named lock object suspend and
//     resume its region;
//   - methods whose name ends in `Locked` assert "caller holds the
//     guarding mutex" and are exempt from the access check.

#ifndef EFES_COMMON_THREAD_ANNOTATIONS_H_
#define EFES_COMMON_THREAD_ANNOTATIONS_H_

#define EFES_GUARDED_BY(mutex)

#endif  // EFES_COMMON_THREAD_ANNOTATIONS_H_
