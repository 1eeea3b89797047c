// A KvBackend that counts and times every call into the storage engine it
// wraps, installed through ClusterOptions::backend_factory in the traced
// run only, so the program itself is unchanged. Each call is recorded as
// a span ("storage.get", "storage.multiget", "storage.next", ...) tagged
// with the request in flight (Tracer::Current), so it becomes a child of
// that request's span.
//
// Safe under concurrent readers, as the KvBackend contract requires: the
// counters are relaxed atomics and spans go to per-thread buffers.
#ifndef PERFBENCH_TIMING_BACKEND_H_
#define PERFBENCH_TIMING_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/kv_backend.h"
#include "trace.h"

namespace perfbench {

/// Call counts and busy time of the wrapped engines, per node.
struct StorageCounts {
  uint64_t gets = 0;
  uint64_t multiget_keys = 0;
  uint64_t seeks = 0;
  uint64_t nexts = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t put_bytes = 0;
  int64_t busy_ns = 0;

  /// Every backend call, a MultiGet counted once per key.
  uint64_t calls() const {
    return gets + multiget_keys + seeks + nexts + puts + deletes;
  }
  StorageCounts operator-(const StorageCounts& o) const;
};

/// The per-node counters every TimingBackend of one cluster writes to.
class StorageMeter {
 public:
  struct Node {
    std::atomic<uint64_t> gets{0}, multiget_keys{0}, seeks{0}, nexts{0},
        puts{0}, deletes{0}, put_bytes{0};
    std::atomic<int64_t> busy_ns{0};
  };

  /// Adds one node's counters (called by the backend factory, once per
  /// node, before the cluster serves any request).
  Node* AddNode();
  StorageCounts Totals() const;

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
};

class TimingBackend : public zidian::KvBackend {
 public:
  TimingBackend(std::unique_ptr<zidian::KvBackend> inner, Tracer* tracer,
                StorageMeter::Node* counters)
      : inner_(std::move(inner)), tracer_(tracer), counters_(counters) {}

  std::string_view name() const override { return inner_->name(); }
  zidian::Status Put(std::string_view key, std::string_view value) override;
  zidian::Status Delete(std::string_view key) override;
  zidian::Result<std::string> Get(std::string_view key) const override;
  void MultiGet(std::span<const BatchedKey> keys,
                std::vector<std::optional<std::string>>* out) const override;
  std::unique_ptr<zidian::KvIterator> NewIterator() const override;
  void Flush() override { inner_->Flush(); }
  void Compact() override { inner_->Compact(); }
  void Clear() override { inner_->Clear(); }
  zidian::Status SaveToFile(const std::string& path) const override {
    return inner_->SaveToFile(path);
  }
  zidian::Status LoadFromFile(const std::string& path) override {
    return inner_->LoadFromFile(path);
  }
  size_t ApproximateBytes() const override { return inner_->ApproximateBytes(); }
  size_t NumLiveEntries() const override { return inner_->NumLiveEntries(); }

 private:
  std::unique_ptr<zidian::KvBackend> inner_;
  Tracer* tracer_;
  StorageMeter::Node* counters_;
};

/// Records one storage call as a span under the current request and adds
/// its duration to `busy_ns`. Shared by the backend and its iterators.
void RecordStorageCall(Tracer* tracer, const char* name, int64_t start_ns,
                       int64_t end_ns, std::atomic<int64_t>* busy_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_BACKEND_H_
