#include "timing_backend.h"

namespace perfbench {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

class TimingIterator : public zidian::KvIterator {
 public:
  TimingIterator(std::unique_ptr<zidian::KvIterator> inner, Tracer* tracer,
                 StorageMeter::Node* counters)
      : inner_(std::move(inner)), tracer_(tracer), counters_(counters) {}

  void Seek(std::string_view target) override {
    int64_t start = NowNs();
    inner_->Seek(target);
    counters_->seeks.fetch_add(1, kRelaxed);
    RecordStorageCall(tracer_, "storage.seek", start, NowNs(),
                      &counters_->busy_ns);
  }
  void SeekToFirst() override {
    int64_t start = NowNs();
    inner_->SeekToFirst();
    counters_->seeks.fetch_add(1, kRelaxed);
    RecordStorageCall(tracer_, "storage.seek", start, NowNs(),
                      &counters_->busy_ns);
  }
  bool Valid() const override { return inner_->Valid(); }
  void Next() override {
    int64_t start = NowNs();
    inner_->Next();
    counters_->nexts.fetch_add(1, kRelaxed);
    RecordStorageCall(tracer_, "storage.next", start, NowNs(),
                      &counters_->busy_ns);
  }
  std::string_view key() const override { return inner_->key(); }
  std::string_view value() const override { return inner_->value(); }

 private:
  std::unique_ptr<zidian::KvIterator> inner_;
  Tracer* tracer_;
  StorageMeter::Node* counters_;
};

}  // namespace

StorageCounts StorageCounts::operator-(const StorageCounts& o) const {
  StorageCounts d;
  d.gets = gets - o.gets;
  d.multiget_keys = multiget_keys - o.multiget_keys;
  d.seeks = seeks - o.seeks;
  d.nexts = nexts - o.nexts;
  d.puts = puts - o.puts;
  d.deletes = deletes - o.deletes;
  d.put_bytes = put_bytes - o.put_bytes;
  d.busy_ns = busy_ns - o.busy_ns;
  return d;
}

StorageMeter::Node* StorageMeter::AddNode() {
  nodes_.push_back(std::make_unique<Node>());
  return nodes_.back().get();
}

StorageCounts StorageMeter::Totals() const {
  StorageCounts t;
  for (const auto& n : nodes_) {
    t.gets += n->gets.load(kRelaxed);
    t.multiget_keys += n->multiget_keys.load(kRelaxed);
    t.seeks += n->seeks.load(kRelaxed);
    t.nexts += n->nexts.load(kRelaxed);
    t.puts += n->puts.load(kRelaxed);
    t.deletes += n->deletes.load(kRelaxed);
    t.put_bytes += n->put_bytes.load(kRelaxed);
    t.busy_ns += n->busy_ns.load(kRelaxed);
  }
  return t;
}

void RecordStorageCall(Tracer* tracer, const char* name, int64_t start_ns,
                       int64_t end_ns, std::atomic<int64_t>* busy_ns) {
  busy_ns->fetch_add(end_ns - start_ns, kRelaxed);
  if (tracer == nullptr) return;
  SpanContext ctx = tracer->Current();
  Span span;
  span.id = tracer->NewId();
  span.request = ctx.request != 0 ? ctx.request : span.id;
  span.parent = ctx.request != 0 ? ctx.parent : 0;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  tracer->Record(span);
}

zidian::Status TimingBackend::Put(std::string_view key, std::string_view value) {
  int64_t start = NowNs();
  zidian::Status s = inner_->Put(key, value);
  counters_->puts.fetch_add(1, kRelaxed);
  counters_->put_bytes.fetch_add(key.size() + value.size(), kRelaxed);
  RecordStorageCall(tracer_, "storage.put", start, NowNs(), &counters_->busy_ns);
  return s;
}

zidian::Status TimingBackend::Delete(std::string_view key) {
  int64_t start = NowNs();
  zidian::Status s = inner_->Delete(key);
  counters_->deletes.fetch_add(1, kRelaxed);
  RecordStorageCall(tracer_, "storage.delete", start, NowNs(),
                    &counters_->busy_ns);
  return s;
}

zidian::Result<std::string> TimingBackend::Get(std::string_view key) const {
  int64_t start = NowNs();
  zidian::Result<std::string> r = inner_->Get(key);
  counters_->gets.fetch_add(1, kRelaxed);
  RecordStorageCall(tracer_, "storage.get", start, NowNs(), &counters_->busy_ns);
  return r;
}

void TimingBackend::MultiGet(std::span<const BatchedKey> keys,
                             std::vector<std::optional<std::string>>* out) const {
  int64_t start = NowNs();
  inner_->MultiGet(keys, out);
  counters_->multiget_keys.fetch_add(keys.size(), kRelaxed);
  RecordStorageCall(tracer_, "storage.multiget", start, NowNs(),
                    &counters_->busy_ns);
}

std::unique_ptr<zidian::KvIterator> TimingBackend::NewIterator() const {
  return std::make_unique<TimingIterator>(inner_->NewIterator(), tracer_,
                                          counters_);
}

}  // namespace perfbench
