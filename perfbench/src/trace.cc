#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_tracer_generation{1};

thread_local SpanContext t_context;

// The calling thread's buffer, valid while `generation` matches the tracer
// that handed it out (a later tracer on the same thread gets a new one).
thread_local struct {
  uint64_t generation = 0;
  void* buffer = nullptr;
} t_buffer;

std::string LayerOf(const char* name) {
  std::string s(name);
  size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer()
    : generation_(g_tracer_generation.fetch_add(1)), epoch_ns_(NowNs()) {}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (t_buffer.generation == generation_) {
    return static_cast<Buffer*>(t_buffer.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* b = buffers_.back().get();
  b->thread = static_cast<uint32_t>(buffers_.size());
  b->spans.reserve(1 << 12);
  t_buffer.generation = generation_;
  t_buffer.buffer = b;
  return b;
}

void Tracer::Record(const Span& span) {
  Buffer* b = ThreadBuffer();
  Span s = span;
  s.thread = b->thread;
  b->spans.push_back(s);
}

SpanContext Tracer::Current() const {
  if (t_context.request != 0) return t_context;
  return SpanContext{shared_request_.load(std::memory_order_acquire),
                     shared_parent_.load(std::memory_order_acquire)};
}

SpanContext Tracer::ThreadContext() { return t_context; }
void Tracer::SetThreadContext(SpanContext ctx) { t_context = ctx; }

void Tracer::SetSharedContext(SpanContext ctx) {
  shared_parent_.store(ctx.parent, std::memory_order_release);
  shared_request_.store(ctx.request, std::memory_order_release);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.request != b.request ? a.request < b.request : a.id < b.id;
  });
  return all;
}

bool Tracer::WriteCsv(const std::string& path,
                      const std::vector<Span>& spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span,parent,request,name,thread,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%u,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name, s.thread,
                 static_cast<long long>(s.start_ns - epoch_ns_),
                 static_cast<long long>(s.end_ns - epoch_ns_));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, bool shared)
    : tracer_(tracer), shared_(shared) {
  if (tracer_ == nullptr) return;
  SpanContext ctx = tracer_->Current();
  span_.id = tracer_->NewId();
  span_.name = name;
  span_.request = ctx.request != 0 ? ctx.request : span_.id;
  span_.parent = ctx.request != 0 ? ctx.parent : 0;
  saved_ = Tracer::ThreadContext();
  Tracer::SetThreadContext({span_.request, span_.id});
  if (shared_) tracer_->SetSharedContext({span_.request, span_.id});
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
  Tracer::SetThreadContext(saved_);
  if (shared_) tracer_->SetSharedContext(saved_);
}

std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans,
                                               int64_t* root_ns,
                                               std::string* error) {
  std::map<std::string, int64_t> self;
  if (root_ns != nullptr) *root_ns = 0;
  std::vector<const Span*> sorted;
  sorted.reserve(spans.size());
  for (const Span& s : spans) sorted.push_back(&s);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Span* a, const Span* b) {
                     return a->request < b->request;
                   });

  std::vector<std::string> layer_names;
  std::unordered_map<std::string, int> layer_index;
  auto layer_of = [&](const Span* s) {
    std::string layer = LayerOf(s->name);
    auto it = layer_index.find(layer);
    if (it != layer_index.end()) return it->second;
    int idx = static_cast<int>(layer_names.size());
    layer_names.push_back(layer);
    layer_index.emplace(layer, idx);
    return idx;
  };
  std::vector<int64_t> layer_ns;

  size_t begin = 0;
  while (begin < sorted.size()) {
    size_t end = begin;
    while (end < sorted.size() && sorted[end]->request == sorted[begin]->request) {
      ++end;
    }
    std::unordered_map<uint64_t, const Span*> by_id;
    const Span* root = nullptr;
    int roots = 0;
    for (size_t i = begin; i < end; ++i) {
      by_id.emplace(sorted[i]->id, sorted[i]);
      if (sorted[i]->parent == 0) {
        root = sorted[i];
        ++roots;
      }
    }
    if (roots != 1) {
      if (error != nullptr && error->empty()) {
        *error = "request " + std::to_string(sorted[begin]->request) + " has " +
                 std::to_string(roots) + " root spans";
      }
      begin = end;
      continue;
    }
    // Depth along the parent chain; a parent that was never recorded
    // hangs the span directly under the root.
    auto depth_of = [&](const Span* s) {
      int d = 0;
      const Span* cur = s;
      while (cur->parent != 0 && d < 64) {
        ++d;
        auto p = by_id.find(cur->parent);
        if (p == by_id.end()) break;
        cur = p->second;
      }
      return d;
    };
    struct Event {
      int64_t t;
      bool open;
      int depth;
      int layer;
    };
    std::vector<Event> events;
    events.reserve(2 * (end - begin));
    for (size_t i = begin; i < end; ++i) {
      const Span* s = sorted[i];
      int64_t a = std::max(s->start_ns, root->start_ns);
      int64_t b = std::min(s->end_ns, root->end_ns);
      if (a >= b) continue;
      int d = depth_of(s);
      int l = layer_of(s);
      events.push_back({a, true, d, l});
      events.push_back({b, false, d, l});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& x, const Event& y) { return x.t < y.t; });
    layer_ns.resize(layer_names.size(), 0);
    std::multiset<std::pair<int, int>> active;  // (depth, layer)
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.open) {
        active.insert({e.depth, e.layer});
      } else {
        active.erase(active.find({e.depth, e.layer}));
      }
      if (i + 1 < events.size() && !active.empty()) {
        layer_ns[static_cast<size_t>(active.rbegin()->second)] +=
            events[i + 1].t - e.t;
      }
    }
    if (root_ns != nullptr) *root_ns += root->end_ns - root->start_ns;
    begin = end;
  }
  for (size_t i = 0; i < layer_names.size(); ++i) {
    if (i < layer_ns.size()) self[layer_names[i]] += layer_ns[i];
  }
  return self;
}

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

}  // namespace perfbench
