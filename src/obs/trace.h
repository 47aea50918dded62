// Run tracing: RAII scoped spans feeding a bounded in-memory ring
// buffer, exportable as Chrome trace_event JSON ("Trace Event Format"),
// loadable in chrome://tracing or https://ui.perfetto.dev.
//
// Usage:
//   {
//     DC_TRACE_SPAN("floc/move_phase");
//     ... work ...
//   }  // span records [start, end) on destruction
//
// Cost model: when tracing is disabled (the default), constructing a
// span is one relaxed atomic load and the destructor is a branch --
// cheap enough to leave spans in hot phases unconditionally. When
// enabled, each span takes two clock reads and one short mutex-guarded
// ring-buffer push at destruction; spans are therefore meant for
// phase-level scopes (iterations, sweeps), not per-action inner loops.
//
// The ring buffer is bounded: once full, the oldest events are
// overwritten and `dropped()` counts the overflow, so tracing can stay
// on for arbitrarily long runs with fixed memory.
//
// Enabling: TraceRecorder::SetEnabled(true) (the CLI's --trace-out does
// this).
#ifndef DELTACLUS_OBS_TRACE_H_
#define DELTACLUS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace deltaclus::obs {

namespace internal {
// DC_LOCK_FREE: relaxed load/store only. Gates whether spans record;
// a racing toggle loses spans around the transition, never corrupts the
// ring (Record itself is mutex-guarded) and never affects results.
extern std::atomic<bool> g_trace_enabled;
inline bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}
}  // namespace internal

/// One completed span. `name` and `category` must be string literals
/// (or otherwise outlive the recorder): spans are recorded on hot-ish
/// paths and must not allocate.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  int64_t start_ns = 0;   ///< MonotonicNowNs() at span entry.
  int64_t dur_ns = 0;     ///< Wall duration.
  int64_t cpu_ns = 0;     ///< Thread CPU time consumed inside the span.
  uint32_t tid = 0;       ///< Small sequential per-thread id.
  uint32_t depth = 0;     ///< Span nesting depth on this thread (0 = top).
};

/// Bounded recorder of completed spans. One process-wide instance via
/// Global(); tests may construct their own.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  static TraceRecorder& Global();

  /// Process-wide switch consulted by every span.
  static void SetEnabled(bool enabled);
  static bool Enabled() { return internal::TraceEnabled(); }

  /// Registers a human-readable name for the calling thread
  /// (process-global, last write wins). Exported as a Chrome
  /// trace_event `thread_name` metadata record so pool workers show up
  /// labeled in Perfetto instead of as bare thread ids. Intended for
  /// thread spawn time (takes a short mutex; not for hot paths) and is
  /// deliberately unconditional -- names registered before tracing is
  /// enabled must still label later spans.
  static void NameCurrentThread(const std::string& name);

  /// Appends one completed event (overwrites the oldest when full).
  void Record(const TraceEvent& event) DC_EXCLUDES(mu_);

  /// Completed events, oldest first. Takes the buffer lock.
  std::vector<TraceEvent> Snapshot() const DC_EXCLUDES(mu_);

  /// Events currently held (<= capacity).
  size_t size() const DC_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }
  /// Events overwritten because the buffer was full.
  uint64_t dropped() const DC_EXCLUDES(mu_);

  /// Discards all recorded events.
  void Clear() DC_EXCLUDES(mu_);

  /// Writes the Chrome trace_event JSON document ("X" complete events,
  /// microsecond timestamps, one pid, per-thread tids).
  void WriteChromeTrace(std::ostream& out) const;
  bool WriteChromeTraceFile(const std::string& path) const;

 private:
  const size_t capacity_;
  mutable dc::Mutex mu_;
  std::vector<TraceEvent> ring_ DC_GUARDED_BY(mu_);
  /// Total events ever recorded.
  uint64_t next_ DC_GUARDED_BY(mu_) = 0;
};

/// RAII span. Construct on entry to a scope; records on destruction.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "deltaclus",
                     TraceRecorder* recorder = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_ = nullptr;  // null when tracing was disabled
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  int64_t start_ns_ = 0;
  int64_t cpu_start_ns_ = 0;
  uint32_t depth_ = 0;
};

// Two-level expansion so __LINE__ stringizes into a unique variable name.
#define DC_TRACE_CONCAT_INNER(a, b) a##b
#define DC_TRACE_CONCAT(a, b) DC_TRACE_CONCAT_INNER(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define DC_TRACE_SPAN(name) \
  ::deltaclus::obs::TraceSpan DC_TRACE_CONCAT(dc_trace_span_, __LINE__)(name)
#define DC_TRACE_SPAN_CAT(name, category)                             \
  ::deltaclus::obs::TraceSpan DC_TRACE_CONCAT(dc_trace_span_,         \
                                              __LINE__)(name, category)

}  // namespace deltaclus::obs

#endif  // DELTACLUS_OBS_TRACE_H_
