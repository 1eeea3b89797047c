// In-memory span tracing for the traced benchmark run.
//
// A span is one call into a layer, recorded by the benchmark's own code
// around that call (and by the timing KvBackend around every storage
// call): a name "<layer>.<what>", start and end on the steady clock, the
// span that caused it, and the request it belongs to. Spans are kept in
// per-thread buffers while the run is hot and collected once at the end,
// so recording takes no lock.
//
// Which request a storage call belongs to travels in a SpanContext: a
// thread-local one set by the benchmark code on the calling thread, or
// else the tracer's shared one, which covers the worker threads a
// ParallelMode::kThreads execution fans out to (one query is in flight at
// a time whenever the shared context is set).
//
// A layer's self time is the time during which one of its spans is the
// innermost active span of a request (SelfTimeByLayer), so within every
// request the layers' self times sum exactly to the root span, even when
// concurrent children overlap each other.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a request's root span
  uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";  ///< static "<layer>.<what>" string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// The request a call on this thread belongs to and the span that is its
/// parent. request == 0 means "no request in flight".
struct SpanContext {
  uint64_t request = 0;
  uint64_t parent = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends to the calling thread's buffer (no lock after the thread's
  /// first span).
  void Record(const Span& span);

  /// The calling thread's context, or the shared one when the thread has
  /// none.
  SpanContext Current() const;
  static SpanContext ThreadContext();
  static void SetThreadContext(SpanContext ctx);
  void SetSharedContext(SpanContext ctx);

  /// Every span recorded so far, across threads, ordered by (request, id).
  std::vector<Span> Collect() const;

  /// Writes `spans` as CSV (span,parent,request,name,thread,start_ns,
  /// end_ns; times relative to the tracer's creation). Returns false when
  /// the file cannot be written.
  bool WriteCsv(const std::string& path, const std::vector<Span>& spans) const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  const uint64_t generation_;
  const int64_t epoch_ns_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> shared_request_{0};
  std::atomic<uint64_t> shared_parent_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// RAII span around one call into a layer. With a null tracer it does
/// nothing, so untraced runs share the traced code path at the cost of a
/// branch. A scope opened with no request in flight starts a new request
/// and becomes its root. While open it is the parent of every span
/// recorded under the thread's context; `shared` also publishes it as the
/// tracer's shared context for worker threads.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, bool shared = false);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Renames the span before it closes (e.g. once the route is known).
  void set_name(const char* name) { span_.name = name; }

 private:
  Tracer* tracer_;
  bool shared_;
  Span span_;
  SpanContext saved_;
};

/// Per-layer self time in nanoseconds, summed over requests. The layer of
/// a span is its name up to the first '.'. Spans outside their request's
/// root interval are clipped to it. `root_ns` (optional) receives the
/// summed root durations; `error` (optional) describes the first request
/// that has no root span or more than one.
std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans,
                                               int64_t* root_ns = nullptr,
                                               std::string* error = nullptr);

/// Durations (ns) of every span with exactly this name.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
