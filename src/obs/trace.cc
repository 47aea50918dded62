#include "src/obs/trace.h"

#include <algorithm>
#include <fstream>

#include "src/obs/clock.h"
#include "src/obs/json.h"

namespace deltaclus::obs {

namespace internal {
// DC_LOCK_FREE: see the declaration in trace.h -- relaxed gate flag.
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

// Small sequential thread ids: nicer than hashed std::thread::id in the
// trace viewer's per-track labels.
uint32_t ThisThreadId() {
  // DC_LOCK_FREE: relaxed fetch_add; the counter only mints unique ids,
  // their numeric order across threads is irrelevant (viewer labels).
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-thread span nesting depth.
thread_local uint32_t t_span_depth = 0;

// tid -> display name, filled by NameCurrentThread. Process-global and
// leaked, like the recorders.
struct ThreadNameRegistry {
  dc::Mutex mu;
  std::vector<std::pair<uint32_t, std::string>> names DC_GUARDED_BY(mu);

  static ThreadNameRegistry& Get() {
    static ThreadNameRegistry* registry = new ThreadNameRegistry();
    return *registry;
  }
};

}  // namespace

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 1024));
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::SetEnabled(bool enabled) {
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void TraceRecorder::NameCurrentThread(const std::string& name) {
  ThreadNameRegistry& registry = ThreadNameRegistry::Get();
  uint32_t tid = ThisThreadId();
  dc::MutexLock lock(registry.mu);
  for (auto& [t, n] : registry.names) {
    if (t == tid) {
      n = name;
      return;
    }
  }
  registry.names.emplace_back(tid, name);
}

void TraceRecorder::Record(const TraceEvent& event) {
  dc::MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_ % capacity_] = event;
  }
  ++next_;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  dc::MutexLock lock(mu_);
  if (next_ <= capacity_) return ring_;
  // The ring wrapped: the oldest surviving event is at next_ % capacity_.
  std::vector<TraceEvent> out;
  out.reserve(capacity_);
  size_t head = next_ % capacity_;
  out.insert(out.end(), ring_.begin() + head, ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + head);
  return out;
}

size_t TraceRecorder::size() const {
  dc::MutexLock lock(mu_);
  return ring_.size();
}

uint64_t TraceRecorder::dropped() const {
  dc::MutexLock lock(mu_);
  return next_ <= capacity_ ? 0 : next_ - capacity_;
}

void TraceRecorder::Clear() {
  dc::MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
}

void TraceRecorder::WriteChromeTrace(std::ostream& out) const {
  std::vector<TraceEvent> events = Snapshot();
  // Stable chronological order keeps the viewer's layout deterministic.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  JsonWriter w(out);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  // Metadata records first: the process name, then one thread_name per
  // registered thread (sorted by tid for deterministic output), so the
  // viewer labels tracks instead of showing bare ids.
  w.BeginObject();
  w.Key("name").String("process_name");
  w.Key("ph").String("M");
  w.Key("pid").Int(1);
  w.Key("args").BeginObject();
  w.Key("name").String("deltaclus");
  w.EndObject();
  w.EndObject();
  std::vector<std::pair<uint32_t, std::string>> thread_names;
  {
    ThreadNameRegistry& registry = ThreadNameRegistry::Get();
    dc::MutexLock lock(registry.mu);
    thread_names = registry.names;
  }
  std::sort(thread_names.begin(), thread_names.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [tid, name] : thread_names) {
    w.BeginObject();
    w.Key("name").String("thread_name");
    w.Key("ph").String("M");
    w.Key("pid").Int(1);
    w.Key("tid").Uint(tid);
    w.Key("args").BeginObject();
    w.Key("name").String(name);
    w.EndObject();
    w.EndObject();
  }
  for (const TraceEvent& e : events) {
    w.BeginObject();
    w.Key("name").String(e.name == nullptr ? "" : e.name);
    w.Key("cat").String(e.category == nullptr ? "" : e.category);
    w.Key("ph").String("X");
    // Chrome trace timestamps are microseconds (doubles are fine).
    w.Key("ts").Number(static_cast<double>(e.start_ns) * 1e-3);
    w.Key("dur").Number(static_cast<double>(e.dur_ns) * 1e-3);
    w.Key("pid").Int(1);
    w.Key("tid").Uint(e.tid);
    w.Key("args").BeginObject();
    w.Key("cpu_ms").Number(static_cast<double>(e.cpu_ns) * 1e-6);
    w.Key("depth").Uint(e.depth);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("droppedEvents").Uint(dropped());
  w.EndObject();
  out << "\n";
}

bool TraceRecorder::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteChromeTrace(out);
  return out.good();
}

TraceSpan::TraceSpan(const char* name, const char* category,
                     TraceRecorder* recorder) {
  if (recorder == nullptr) {
    if (!internal::TraceEnabled()) return;  // disabled: stay inert
    recorder = &TraceRecorder::Global();
  }
  recorder_ = recorder;
  name_ = name;
  category_ = category;
  depth_ = t_span_depth++;
  start_ns_ = MonotonicNowNs();
  cpu_start_ns_ = ThreadCpuNowNs();
}

TraceSpan::~TraceSpan() {
  if (recorder_ == nullptr) return;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.start_ns = start_ns_;
  event.dur_ns = MonotonicNowNs() - start_ns_;
  event.cpu_ns = ThreadCpuNowNs() - cpu_start_ns_;
  event.tid = ThisThreadId();
  event.depth = depth_;
  --t_span_depth;
  recorder_->Record(event);
}

}  // namespace deltaclus::obs
