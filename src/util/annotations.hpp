// Compile-time concurrency and hot-path annotations.
//
// Two families live here (docs/CONCURRENCY.md is the usage guide):
//
//  1. Clang capability (thread-safety) attributes, wrapped so the tree stays
//     portable: under clang they expand to the attributes consumed by
//     -Wthread-safety, everywhere else to nothing. Lock-owning classes use
//     the annotated wrappers in util/mutex.hpp (std::mutex itself carries no
//     capability attribute under libstdc++, so raw std types are invisible
//     to the analysis); every member a mutex protects is declared
//     DQN_GUARDED_BY(that_mutex), and every function with a locking
//     precondition states it with DQN_REQUIRES. The CI static-analysis job
//     builds all first-party targets with -Wthread-safety promoted to an
//     error (CMake -DDQN_THREAD_SAFETY_ERROR=ON), so a lock-discipline
//     violation is a build break, not a TSan coin flip.
//
//  2. DQN_HOT_PATH: marks a function as a steady-state per-packet kernel.
//     scripts/ast_lint.py enforces two invariants inside every marked body:
//     no allocating constructs (new/make_unique/make_shared, std::string
//     growth, container construction or growth), and no string-keyed obs
//     calls (sink.count("...") and friends — pre-resolved handles only).
//     Under clang the macro also emits an AST annotation ("dqn::hot_path")
//     so the dqn-hot-path-alloc clang-tidy check (tools/tidy) can find
//     marked functions semantically; other compilers see an empty token
//     (ast_lint.py matches the macro name textually).
//
// The macro set mirrors the canonical names from clang's thread-safety
// documentation with a DQN_ prefix; keep new code to these spellings so the
// lint fixtures and docs stay accurate.
#pragma once

#if defined(__clang__)
#define DQN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DQN_THREAD_ANNOTATION(x)  // no-op off clang
#endif

// ---- capability declarations ----------------------------------------------

// On a class: instances are a capability (a lock) named `x` in diagnostics.
#define DQN_CAPABILITY(x) DQN_THREAD_ANNOTATION(capability(x))

// On a class: RAII object that acquires in its constructor and releases in
// its destructor (util/mutex.hpp's lock_guard / unique_lock).
#define DQN_SCOPED_CAPABILITY DQN_THREAD_ANNOTATION(scoped_lockable)

// ---- data annotations ------------------------------------------------------

// On a member: reads and writes require holding capability `x`.
#define DQN_GUARDED_BY(x) DQN_THREAD_ANNOTATION(guarded_by(x))

// On a pointer member: the pointed-to data requires holding `x`.
#define DQN_PT_GUARDED_BY(x) DQN_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering declarations (deadlock prevention; see docs/CONCURRENCY.md).
#define DQN_ACQUIRED_BEFORE(...) \
  DQN_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define DQN_ACQUIRED_AFTER(...) \
  DQN_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// ---- function annotations --------------------------------------------------

// Caller must hold the capability (exclusively / shared).
#define DQN_REQUIRES(...) \
  DQN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DQN_REQUIRES_SHARED(...) \
  DQN_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Function acquires / releases the capability itself.
#define DQN_ACQUIRE(...) \
  DQN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DQN_ACQUIRE_SHARED(...) \
  DQN_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define DQN_RELEASE(...) \
  DQN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DQN_RELEASE_SHARED(...) \
  DQN_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

// Function acquires only when it returns `cond` (try_lock-style).
#define DQN_TRY_ACQUIRE(...) \
  DQN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the capability (the function acquires it itself;
// stating it catches self-deadlock on non-reentrant mutexes).
#define DQN_EXCLUDES(...) DQN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Runtime assertion that the capability is held (trusted by the analysis).
#define DQN_ASSERT_CAPABILITY(x) DQN_THREAD_ANNOTATION(assert_capability(x))

// On an accessor: the returned reference is the capability `x`.
#define DQN_RETURN_CAPABILITY(x) DQN_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch — forbidden in first-party code by policy (the tree compiles
// with zero suppressions); exists for vendored code and lint fixtures only.
#define DQN_NO_THREAD_SAFETY_ANALYSIS \
  DQN_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---- hot-path marker -------------------------------------------------------

// Steady-state per-packet kernel: scripts/ast_lint.py rejects allocating
// constructs and string-keyed obs calls inside the marked body. Place on the
// definition (the lint pass analyses bodies); on a declaration it documents
// the contract for callers.
#if defined(__clang__)
#define DQN_HOT_PATH __attribute__((annotate("dqn::hot_path")))
#else
#define DQN_HOT_PATH
#endif
