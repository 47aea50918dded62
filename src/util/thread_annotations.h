// Clang Thread Safety Analysis attribute shim.
//
// The determinism contract (DESIGN.md "The execution engine") leans on a
// small set of locking and lock-free protocols: the pool's condvar
// parking, the metrics registry's registration lock, the trace ring's
// buffer lock, and the shard-disjoint lock-free writes of the gain
// memo. These macros let us state each protocol *in the type system* so
// `-Wthread-safety -Werror` (enabled automatically under Clang, see the
// top-level CMakeLists and the `tidy` preset) turns a forgotten lock
// into a compile error instead of a TSan lottery ticket.
//
// On non-Clang compilers (the container's GCC toolchain included) every
// macro expands to nothing; the annotations are documentation there and
// enforcement in the Clang CI lane.
//
// Conventions (docs/STATIC_ANALYSIS.md has the long form):
//   * Mutex-protected state uses dc::Mutex / dc::MutexLock / dc::CondVar
//     (src/util/mutex.h), never raw std::mutex -- the raw types carry no
//     capability, so the analysis cannot see them (and
//     tools/lint/dclint.py rule `raw-mutex` rejects them in the
//     concurrent subsystems).
//   * Every member behind a mutex is declared DC_GUARDED_BY(mu_).
//   * Private helpers that expect the lock held are DC_REQUIRES(mu_).
//   * Lock-free atomic protocols cannot be expressed to the analysis;
//     they are documented with a `DC_LOCK_FREE:` comment stating the
//     ordering argument, whose presence dclint rule `lock-free-comment`
//     enforces next to every std::atomic member.
#ifndef DELTACLUS_UTIL_THREAD_ANNOTATIONS_H_
#define DELTACLUS_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define DC_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define DC_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside Clang
#endif

/// Marks a class as a capability (lockable). `x` names the capability
/// kind in diagnostics, e.g. DC_CAPABILITY("mutex").
#define DC_CAPABILITY(x) DC_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define DC_SCOPED_CAPABILITY DC_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Declares that a member is protected by the given capability: every
/// read/write must happen with it held.
#define DC_GUARDED_BY(x) DC_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// As DC_GUARDED_BY, for the pointee of a pointer member.
#define DC_PT_GUARDED_BY(x) DC_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// The annotated function may only be called with the capabilities held
/// (and does not release them).
#define DC_REQUIRES(...) \
  DC_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// The annotated function acquires the capabilities and returns with
/// them held.
#define DC_ACQUIRE(...) \
  DC_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// The annotated function releases the capabilities.
#define DC_RELEASE(...) \
  DC_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Shared (reader) holds of a reader/writer capability: the annotated
/// function tries to acquire one and returns `success` exactly when it
/// did, or releases one.
#define DC_TRY_ACQUIRE_SHARED(...) \
  DC_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))
#define DC_RELEASE_SHARED(...) \
  DC_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// The annotated function must be called *without* the capabilities
/// held (deadlock prevention for self-locking public APIs).
#define DC_EXCLUDES(...) \
  DC_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Returns a reference to the named capability (accessor functions).
#define DC_RETURN_CAPABILITY(x) \
  DC_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the protocol is safe anyway.
#define DC_NO_THREAD_SAFETY_ANALYSIS \
  DC_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // DELTACLUS_UTIL_THREAD_ANNOTATIONS_H_
