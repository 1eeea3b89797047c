// The three workloads. Each run sets up its data K times (set-up time is a
// median), measures for the requested seconds, and checks every answer it
// received. A traced run instead does a fixed amount of work twice — once
// on a plain cluster and once on a cluster whose storage nodes are
// wrapped in TimingBackend — and derives the per-layer figures from the
// second, reporting the difference as the tracing overhead.
#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>

#include "checks.h"
#include "common/rng.h"
#include "serve/server.h"
#include "sql/binder.h"
#include "stats.h"
#include "storage/backend.h"
#include "timing_backend.h"
#include "trace.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace perfbench {

namespace {

using zidian::AnswerInfo;
using zidian::Cluster;
using zidian::ClusterOptions;
using zidian::ExecOptions;
using zidian::PreparedQuery;
using zidian::QueryMetrics;
using zidian::Result;
using zidian::RoutePolicy;
using zidian::Status;
using zidian::Workload;

constexpr int kStorageNodes = 8;
constexpr int kOlapWorkers = 4;

double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Ms(double seconds) { return seconds * 1e3; }

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Every per-layer figure, zero where a workload leaves the layer idle, so
// each traced run reports the same metric set.
struct LayerFigures {
  double generate_s = 0, load_taav_s = 0, build_baav_s = 0;
  double prepare_us = 0, prepares_per_op = 0, parse_bind_us = 0;
  double kba_self_s = 0;
  QueryMetrics kba;  // counters of the automatic-route executions
  double ra_self_s = 0;
  QueryMetrics ra;  // counters of the forced-baseline executions
  double insert_us = 0, insert_put_bytes = 0;
  double kv_self_s = 0;
  uint64_t kv_calls = 0, setup_gets = 0;
  QueryMetrics served;  // merged serving metrics (cache, network)
  uint64_t served_ops = 0;
  uint64_t stored_bytes = 0;
  double threads_speedup = 0;
  double serve_self_s = 0, generator_lag_ms = 0;
  double open_p50_ms = 0, open_p99_ms = 0;
  uint64_t rejected = 0;
  double overhead_pct = 0;
  uint64_t spans = 0;
};

void AddLayerMetrics(const LayerFigures& f, RunResult* out) {
  auto count = [&](const char* name, uint64_t v, const char* unit = "count") {
    out->Add(name, static_cast<double>(v), unit);
  };
  out->Add("workloads.generate_s", f.generate_s, "s");
  out->Add("zidian.load_taav_s", f.load_taav_s, "s");
  out->Add("zidian.build_baav_s", f.build_baav_s, "s");
  out->Add("zidian.prepare_us", f.prepare_us, "us");
  out->Add("zidian.prepares_per_op", f.prepares_per_op, "ratio");
  out->Add("sql.parse_bind_us", f.parse_bind_us, "us");
  out->Add("kba.self_s", f.kba_self_s, "s");
  count("kba.compute_values", f.kba.compute_values);
  count("kba.values_accessed", f.kba.values_accessed);
  count("kba.get_calls", f.kba.get_calls);
  count("kba.next_calls", f.kba.next_calls);
  count("kba.bytes_from_storage", f.kba.bytes_from_storage, "B");
  out->Add("kba.wall_fetch_s", f.kba.wall_fetch_seconds, "s");
  out->Add("kba.wall_compute_s", f.kba.wall_compute_seconds, "s");
  out->Add("kba.wall_other_s",
           f.kba.wall_seconds - f.kba.wall_fetch_seconds -
               f.kba.wall_compute_seconds,
           "s");
  out->Add("ra.self_s", f.ra_self_s, "s");
  count("ra.get_calls", f.ra.get_calls);
  count("ra.values_accessed", f.ra.values_accessed);
  count("ra.compute_values", f.ra.compute_values);
  out->Add("baav.insert_us", f.insert_us, "us");
  out->Add("baav.insert_put_bytes", f.insert_put_bytes, "B");
  out->Add("storage.kv_self_s", f.kv_self_s, "s");
  count("storage.kv_calls", f.kv_calls);
  count("storage.setup_gets", f.setup_gets);
  uint64_t lookups = f.served.cache_hits + f.served.cache_misses;
  out->Add("storage.cache_hit_ratio",
           lookups > 0 ? double(f.served.cache_hits) / double(lookups) : 0,
           "ratio");
  count("storage.cache_lookups", lookups);
  count("storage.cache_evictions", f.served.cache_evictions);
  out->Add("storage.round_trips_per_op",
           f.served_ops > 0
               ? double(f.served.get_round_trips) / double(f.served_ops)
               : 0,
           "ratio");
  out->Add("storage.net_service_s", double(f.served.net_service_ns) / 1e9, "s");
  out->Add("storage.net_queue_s", f.served.net_queue_seconds, "s");
  out->Add("storage.net_overlap_s", double(f.served.net_overlap_ns) / 1e9, "s");
  count("storage.stored_bytes", f.stored_bytes, "B");
  out->Add("common.threads_speedup", f.threads_speedup, "ratio");
  out->Add("serve.self_s", f.serve_self_s, "s");
  out->Add("serve.p50_ms", f.open_p50_ms, "ms");
  out->Add("serve.p99_ms", f.open_p99_ms, "ms");
  out->Add("serve.generator_lag_ms", f.generator_lag_ms, "ms");
  count("serve.rejected", f.rejected);
  out->Add("trace.overhead_pct", f.overhead_pct, "%");
  count("trace.spans", f.spans);
}

// ------------------------------------------------------------- set-up ---

enum class Dataset { kTpch, kMot, kAirca };

struct DatasetSpec {
  Dataset dataset;
  double scale;
};

// One dataset loaded into its own cluster, both layouts built.
struct Instance {
  Workload workload;
  std::unique_ptr<StorageMeter> meter;  // traced instances only
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<zidian::Zidian> zidian;
  size_t relation_bytes = 0;
};

struct SetupTimes {
  double generate_s = 0, load_s = 0, build_s = 0;
  uint64_t build_gets = 0;
  double total() const { return generate_s + load_s + build_s; }
};

Result<Workload> Generate(const DatasetSpec& spec, uint64_t seed) {
  switch (spec.dataset) {
    case Dataset::kTpch: return zidian::MakeTpch(spec.scale, seed);
    case Dataset::kMot: return zidian::MakeMot(spec.scale, seed);
    case Dataset::kAirca: return zidian::MakeAirca(spec.scale, seed);
  }
  return Status::InvalidArgument("unknown dataset");
}

// Generation (with T2B), LoadTaav and BuildBaav: what a user waits for
// before the first query. With a tracer, every storage node is wrapped in
// a TimingBackend and each step is a span.
std::unique_ptr<Instance> SetUp(const DatasetSpec& spec, uint64_t seed,
                                ClusterOptions options, Tracer* tracer,
                                SetupTimes* times, RunResult* out) {
  auto inst = std::make_unique<Instance>();
  if (tracer != nullptr) {
    inst->meter = std::make_unique<StorageMeter>();
    StorageMeter* meter = inst->meter.get();
    zidian::LsmOptions lsm = options.lsm;
    options.backend_factory = [meter, tracer, lsm] {
      return std::make_unique<TimingBackend>(
          std::make_unique<zidian::LsmStore>(lsm), tracer, meter->AddNode());
    };
  }
  int64_t t0 = NowNs();
  {
    SpanScope span(tracer, "workloads.generate");
    Result<Workload> w = Generate(spec, seed);
    if (!w.ok()) {
      out->Fail("generation failed: " + w.status().ToString());
      return nullptr;
    }
    inst->workload = std::move(w).value();
  }
  int64_t t1 = NowNs();
  inst->cluster = std::make_unique<Cluster>(options);
  inst->zidian = std::make_unique<zidian::Zidian>(
      &inst->workload.catalog, inst->cluster.get(), inst->workload.baav,
      zidian::ZidianOptions{});
  Status s;
  {
    SpanScope span(tracer, "zidian.load_taav");
    s = inst->zidian->LoadTaav(inst->workload.data);
  }
  int64_t t2 = NowNs();
  StorageCounts before = inst->meter ? inst->meter->Totals() : StorageCounts{};
  if (s.ok()) {
    SpanScope span(tracer, "zidian.build_baav");
    s = inst->zidian->BuildBaav(inst->workload.data);
  }
  int64_t t3 = NowNs();
  if (!s.ok()) {
    out->Fail("load failed: " + s.ToString());
    return nullptr;
  }
  if (inst->meter) {
    StorageCounts d = inst->meter->Totals() - before;
    times->build_gets += d.gets + d.multiget_keys;
  }
  for (const auto& [name, rel] : inst->workload.data) {
    inst->relation_bytes += rel.ByteSize();
  }
  times->generate_s += Sec(t1 - t0);
  times->load_s += Sec(t2 - t1);
  times->build_s += Sec(t3 - t2);
  return inst;
}

// The cluster configuration every workload pins, so that no default or
// environment variable decides what is measured.
ClusterOptions BaseCluster() {
  ClusterOptions o;
  o.num_storage_nodes = kStorageNodes;
  o.backend = zidian::BackendKind::kLsm;
  o.lsm = zidian::LsmOptions{.memtable_flush_bytes = 4 << 20,
                             .bloom_bits_per_key = 10,
                             .compaction_trigger_runs = 8};
  o.backend_factory = nullptr;
  o.cache = zidian::BlockCacheOptions{.capacity_bytes = 0, .shards = 8};
  o.network = zidian::NetworkOptions{};
  o.round_trip_latency_us = 0;
  o.recovery = zidian::RecoveryOptions{};
  return o;
}

ExecOptions Exec(int workers, RoutePolicy route, zidian::ParallelMode mode,
                 zidian::FanoutMode fanout, bool bypass_cache) {
  ExecOptions e;
  e.workers = workers;
  e.route_policy = route;
  e.backend_profile = &zidian::SoH();
  e.bypass_cache = bypass_cache;
  e.parallel_mode = mode;
  e.pool = nullptr;
  e.fanout = fanout;
  return e;
}

// Times one Execute as a span named after the route the query took.
Result<zidian::Relation> TimedExecute(PreparedQuery& q, const ExecOptions& opts,
                                      Tracer* tracer, AnswerInfo* info,
                                      double* seconds) {
  SpanScope span(tracer,
                 opts.route_policy == RoutePolicy::kForceBaseline
                     ? "ra.execute"
                     : "kba.execute",
                 /*shared=*/true);
  int64_t t0 = NowNs();
  Result<zidian::Relation> r = q.Execute(opts, info);
  *seconds = Sec(NowNs() - t0);
  if (info->route == AnswerInfo::Route::kTaavFallback) span.set_name("ra.execute");
  return r;
}

// Connection::Prepare as a span, with ParseAndBind as a child span of its
// own (Prepare is exactly ParseAndBind followed by PrepareSpec).
Result<PreparedQuery> TracedPrepare(zidian::Connection& conn,
                                    const std::string& sql, Tracer* tracer) {
  if (tracer == nullptr) return conn.Prepare(sql);
  SpanScope prepare(tracer, "zidian.prepare");
  std::optional<Result<zidian::QuerySpec>> spec;
  {
    SpanScope span(tracer, "sql.parse_bind");
    spec.emplace(zidian::ParseAndBind(sql, conn.zidian().catalog()));
  }
  if (!spec->ok()) return spec->status();
  return conn.PrepareSpec(spec->value());
}

// Spans of the requests that began at or after `first_id` (ids grow
// monotonically, and a request's id is its root span's), minus the
// request-id ranges in `skip`.
std::vector<Span> SpansSince(const std::vector<Span>& all, uint64_t first_id,
                             const std::vector<std::pair<uint64_t, uint64_t>>& skip = {}) {
  std::vector<Span> out;
  for (const Span& s : all) {
    if (s.request < first_id) continue;
    bool skipped = false;
    for (const auto& [lo, hi] : skip) skipped |= s.request >= lo && s.request < hi;
    if (!skipped) out.push_back(s);
  }
  return out;
}

// Self time per layer over `spans`; checks that in every request the
// layers' self times add up to the root span.
std::map<std::string, int64_t> CheckedSelfTimes(const std::vector<Span>& spans,
                                                RunResult* out) {
  int64_t root_ns = 0;
  std::string error;
  auto self = SelfTimeByLayer(spans, &root_ns, &error);
  int64_t sum = 0;
  for (const auto& [layer, ns] : self) sum += ns;
  if (!error.empty()) out->Fail("trace: " + error);
  if (sum != root_ns) {
    out->Fail("trace: layer self times sum to " + std::to_string(sum) +
              " ns, root spans to " + std::to_string(root_ns) + " ns");
  }
  return self;
}

void WriteSpans(const Tracer& tracer, const std::vector<Span>& spans,
                const RunArgs& args, RunResult* out) {
  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  std::string path = args.trace_dir + "/" + args.workload + ".spans.csv";
  if (!tracer.WriteCsv(path, spans)) {
    out->Fail("trace: cannot write " + path);
    return;
  }
  out->notes.push_back("spans: " + std::to_string(spans.size()) + " written to " +
                       path);
}

uint64_t DerivedSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ull + salt;
}

// ------------------------------------------------------------------ olap ---

// TPC-H sf 1, MOT x4 and AIRCA x2: 46 queries in all.
constexpr int kOlapSetups = 9;  // set-ups per untraced run (median)
const std::vector<DatasetSpec> kOlapData = {
    {Dataset::kTpch, 1.0}, {Dataset::kMot, 4.0}, {Dataset::kAirca, 2.0}};

struct OlapQuery {
  Instance* inst = nullptr;
  const zidian::WorkloadQuery* query = nullptr;
  std::optional<PreparedQuery> prepared;
  std::vector<double> auto_s, base_s;  // one sample per pass
  double sim_s = 0;                    // SoH modeled seconds, automatic route
};

struct OlapSetup {
  std::vector<std::unique_ptr<Instance>> instances;
  SetupTimes times;
};

bool SetUpOlap(uint64_t seed, Tracer* tracer, OlapSetup* setup, RunResult* out) {
  setup->instances.clear();
  for (size_t i = 0; i < kOlapData.size(); ++i) {
    auto inst = SetUp(kOlapData[i], DerivedSeed(seed, i), BaseCluster(), tracer,
                      &setup->times, out);
    if (!inst) return false;
    setup->instances.push_back(std::move(inst));
  }
  return true;
}

bool PrepareOlap(OlapSetup& setup, Tracer* tracer, std::vector<OlapQuery>* qs,
                 RunResult* out) {
  qs->clear();
  for (auto& inst : setup.instances) {
    zidian::Connection conn = inst->zidian->Connect();
    for (const auto& q : inst->workload.queries) {
      OlapQuery oq;
      oq.inst = inst.get();
      oq.query = &q;
      auto p = TracedPrepare(conn, q.sql, tracer);
      if (!p.ok()) {
        out->Fail(q.name + ": prepare failed: " + p.status().ToString());
        return false;
      }
      oq.prepared.emplace(std::move(p).value());
      qs->push_back(std::move(oq));
    }
  }
  return true;
}

struct PassTotals {
  double auto_s = 0, base_s = 0;
  QueryMetrics kba, ra;
  int fallbacks = 0;  // automatic-route executions that took the TaaV route
};

// One pass: every query on the automatic route and then, unless
// `auto_only`, on the forced baseline, both with `workers` threads. Checks
// that the two routes agree and, on the first pass, the references.
PassTotals OlapPass(std::vector<OlapQuery>& qs, int workers, bool auto_only,
                    bool first_pass, Tracer* tracer, RunResult* out) {
  PassTotals t;
  for (OlapQuery& q : qs) {
    AnswerInfo ia;
    double sa = 0;
    auto ra = TimedExecute(*q.prepared,
                           Exec(workers, RoutePolicy::kAuto,
                                zidian::ParallelMode::kThreads,
                                zidian::FanoutMode::kSerial, false),
                           tracer, &ia, &sa);
    out->attempted++;
    t.auto_s += sa;
    t.kba += ia.metrics;
    if (ia.route == AnswerInfo::Route::kTaavFallback) t.fallbacks++;
    if (!ra.ok()) {
      out->failed++;
      out->Fail(q.query->name + ": automatic route failed: " + ra.status().ToString());
      continue;
    }
    if (auto_only) continue;
    q.auto_s.push_back(sa);
    if (first_pass) q.sim_s = ia.sim_seconds;
    AnswerInfo ib;
    double sb = 0;
    auto rb = TimedExecute(*q.prepared,
                           Exec(workers, RoutePolicy::kForceBaseline,
                                zidian::ParallelMode::kThreads,
                                zidian::FanoutMode::kSerial, false),
                           tracer, &ib, &sb);
    out->attempted++;
    t.base_s += sb;
    t.ra += ib.metrics;
    if (!rb.ok()) {
      out->failed++;
      out->Fail(q.query->name + ": baseline route failed: " + rb.status().ToString());
      continue;
    }
    q.base_s.push_back(sb);
    std::string why;
    if (!RowsMatch(*ra, *rb, &why)) {
      out->Fail(q.query->name + ": automatic and baseline routes disagree: " + why);
    }
    if (!first_pass) continue;
    for (const ReferenceQuery& ref : SingleTableReferences()) {
      if (ref.name != q.query->name) continue;
      if (ref.sql != q.query->sql) {
        out->Fail(q.query->name + ": the reference was written for other SQL");
      } else if (!RowsMatch(*ra, ref.compute(q.inst->workload.data), &why)) {
        out->Fail(q.query->name + ": answer differs from the reference: " + why);
      }
    }
  }
  return t;
}

void CheckReferencesCovered(const std::vector<OlapQuery>& qs, RunResult* out) {
  for (const ReferenceQuery& ref : SingleTableReferences()) {
    bool found = false;
    for (const OlapQuery& q : qs) found |= q.query->name == ref.name;
    if (!found) out->Fail("no workload query named " + ref.name);
  }
}

double SumStorageBytes(const OlapSetup& setup, size_t* relation_bytes) {
  double stored = 0;
  *relation_bytes = 0;
  for (const auto& inst : setup.instances) {
    stored += static_cast<double>(inst->cluster->TotalBytes());
    *relation_bytes += inst->relation_bytes;
  }
  return stored;
}

RunResult RunOlapMeasured(const RunArgs& args) {
  RunResult out;
  OlapSetup setup;
  if (!SetUpOlap(args.seed, nullptr, &setup, &out)) return out;
  std::vector<double> setup_s = {setup.times.total()};
  // The other set-ups are spread over the run, one after each pass, so
  // their median does not hang on one stretch of the machine's speed.
  auto extra_setup = [&] {
    OlapSetup s;
    if (SetUpOlap(args.seed, nullptr, &s, &out)) setup_s.push_back(s.times.total());
  };
  std::vector<OlapQuery> qs;
  if (!PrepareOlap(setup, nullptr, &qs, &out)) return out;
  CheckReferencesCovered(qs, &out);

  int passes = 0;
  double exec_s = 0;
  int fallbacks = 0;
  std::string pass_walls;
  int64_t measured_ns = 0;
  do {
    int64_t pass_start = NowNs();
    PassTotals t = OlapPass(qs, kOlapWorkers, false, passes == 0, nullptr, &out);
    exec_s += t.auto_s + t.base_s;
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.3f+%.3f", t.auto_s, t.base_s);
    pass_walls += buf;
    fallbacks = t.fallbacks;
    ++passes;
    measured_ns += NowNs() - pass_start;
    if (setup_s.size() < kOlapSetups) extra_setup();
  } while (Sec(measured_ns) < args.seconds && out.correct);
  while (out.correct && setup_s.size() < kOlapSetups) extra_setup();

  std::vector<double> auto_med, base_med;
  double total_s = 0, sim_s = 0;
  int executions = 0;
  for (const OlapQuery& q : qs) {
    if (q.auto_s.empty() || q.base_s.empty()) continue;
    auto_med.push_back(Ms(Median(q.auto_s)));
    base_med.push_back(Ms(Median(q.base_s)));
    total_s += Median(q.auto_s);
    sim_s += q.sim_s;
    executions += static_cast<int>(q.auto_s.size() + q.base_s.size());
  }
  size_t rel_bytes = 0;
  double stored = SumStorageBytes(setup, &rel_bytes);

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("query_total_s", total_s, "s");
  out.Add("query_geomean_ms", GeoMean(auto_med), "ms");
  out.Add("baseline_geomean_ms", GeoMean(base_med), "ms");
  out.Add("sim_total_s", sim_s, "s");
  out.Add("ops_per_s", exec_s > 0 ? double(executions) / exec_s : 0, "1/s");
  out.Add("space_amp", rel_bytes > 0 ? stored / double(rel_bytes) : 0, "B/B");
  out.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  char note[256];
  std::snprintf(note, sizeof(note),
                "olap: %zu queries, %d passes, %d automatic-route TaaV "
                "fallbacks per pass",
                qs.size(), passes, fallbacks);
  out.notes.push_back(note);
  out.notes.push_back("pass seconds (automatic+baseline):" + pass_walls);
  return out;
}

RunResult RunOlapTraced(const RunArgs& args) {
  RunResult out;
  LayerFigures f;
  // Untraced reference: one pass on plain clusters, plus an
  // automatic-route pass at one worker for the thread speed-up.
  double untraced_s = 0;
  {
    OlapSetup setup;
    std::vector<OlapQuery> qs;
    if (!SetUpOlap(args.seed, nullptr, &setup, &out) ||
        !PrepareOlap(setup, nullptr, &qs, &out)) {
      return out;
    }
    PassTotals four = OlapPass(qs, kOlapWorkers, false, true, nullptr, &out);
    PassTotals one = OlapPass(qs, 1, true, false, nullptr, &out);
    untraced_s = four.auto_s + four.base_s;
    f.threads_speedup = four.auto_s > 0 ? one.auto_s / four.auto_s : 0;
  }
  Tracer tracer;
  OlapSetup setup;
  if (!SetUpOlap(args.seed, &tracer, &setup, &out)) return out;
  uint64_t measured_from = tracer.NewId();
  std::vector<OlapQuery> qs;
  if (!PrepareOlap(setup, &tracer, &qs, &out)) return out;
  auto storage_calls = [&] {
    uint64_t calls = 0;
    for (const auto& inst : setup.instances) calls += inst->meter->Totals().calls();
    return calls;
  };
  uint64_t calls_before = storage_calls();
  PassTotals t = OlapPass(qs, kOlapWorkers, false, true, &tracer, &out);
  f.kv_calls = storage_calls() - calls_before;

  std::vector<Span> all = tracer.Collect();
  std::vector<Span> measured = SpansSince(all, measured_from);
  auto self = CheckedSelfTimes(measured, &out);
  f.generate_s = setup.times.generate_s;
  f.load_taav_s = setup.times.load_s;
  f.build_baav_s = setup.times.build_s;
  f.setup_gets = setup.times.build_gets;
  f.prepare_us = Median(SpanDurations(measured, "zidian.prepare")) / 1e3;
  f.parse_bind_us = Median(SpanDurations(measured, "sql.parse_bind")) / 1e3;
  f.prepares_per_op = double(qs.size()) / double(2 * qs.size());
  f.kba = t.kba;
  f.ra = t.ra;
  f.kba_self_s = Sec(self["kba"]);
  f.ra_self_s = Sec(self["ra"]);
  f.kv_self_s = Sec(self["storage"]);
  size_t rel_bytes = 0;
  f.stored_bytes = static_cast<uint64_t>(SumStorageBytes(setup, &rel_bytes));
  double traced_s = t.auto_s + t.base_s;
  f.overhead_pct = untraced_s > 0 ? (traced_s / untraced_s - 1) * 100 : 0;
  f.spans = all.size();
  AddLayerMetrics(f, &out);
  WriteSpans(tracer, all, args, &out);
  return out;
}

// --------------------------------------------------------------- serving ---

struct ServingConfig {
  const char* name;
  double mot_scale;
  size_t cache_bytes;
  zidian::NetworkLinkOptions link;
  zidian::FanoutMode fanout;
  double insert_weight;   // reads weigh 1 each
  double open_rate;       // open-loop arrivals per second
  uint64_t sat_ops;       // per stream and saturation round
  uint64_t open_ops;      // per stream and open-loop round
  int setups;             // per untraced run (median)
};

constexpr int kSessions = 3;
constexpr double kZipfS = 0.9;
constexpr size_t kPowerKeys = 2;  // vehicles per read shape in the power pass
constexpr int kAutoPerRound = 5;  // automatic-route executions per power round
constexpr int64_t kInsertIdBase = 100'000'000;
constexpr int kTracedSaturationRounds = 3;  // each side of the overhead
constexpr int kOpenRounds = 5;  // open-loop rounds of a traced run

// MOT x4 (2,000 vehicles), a BlockCache larger than the whole store, no
// network: every microsecond is CPU on the request path.
const ServingConfig kPointServe = {
    "point-serve", 4.0, 64u << 20, zidian::NetworkLinkOptions{},
    zidian::FanoutMode::kSerial, 0.0, 13000, 4000, 2000, 15};

// MOT x2 behind a 200 us link, a cache of a few percent of the store, one
// insert in about eleven ops: the time goes to waiting.
const ServingConfig kNetRw = {
    "net-rw", 2.0, 80u << 10,
    zidian::NetworkLinkOptions{.rtt_us = 200, .per_key_us = 2,
                               .per_byte_us = 0.001, .service_rate = 0},
    zidian::FanoutMode::kOverlapped, 0.3, 1500, 500, 700, 3};

ClusterOptions ServingCluster(const ServingConfig& cfg) {
  ClusterOptions o = BaseCluster();
  o.cache = zidian::BlockCacheOptions{.capacity_bytes = cfg.cache_bytes, .shards = 8};
  o.network.link = cfg.link;
  return o;
}

ExecOptions ServingExec(const ServingConfig& cfg, RoutePolicy route, bool bypass) {
  return Exec(1, route, zidian::ParallelMode::kSimulated, cfg.fanout, bypass);
}

// An inserted mot_test row, a pure function of its id and vehicle.
Tuple InsertedTest(const zidian::TableSchema& schema, int64_t id, int64_t vehicle) {
  std::map<std::string, Value> v = {
      {"test_id", Value(id)},
      {"vehicle_id", Value(vehicle)},
      {"test_date", Value(int64_t{20000 + id % 300})},
      {"test_result", Value(id % 3 == 0 ? "FAIL" : "PASS")},
      {"test_mileage", Value(int64_t{100000 + id % 50000})},
      {"station_id", Value(int64_t{1 + id % 80})},
      {"test_class", Value(int64_t{4})},
      {"test_type", Value("NORMAL")},
      {"cost", Value(54.85)},
      {"duration_min", Value(int64_t{45})},
      {"inspector_id", Value(int64_t{1 + id % 400})},
      {"retest_flag", Value(int64_t{0})},
      {"advisory_count", Value(int64_t{1})},
      {"fail_count", Value(int64_t{0})},
  };
  Tuple t;
  for (const std::string& a : schema.AttributeNames()) t.push_back(v.at(a));
  return t;
}

// What one completed read returned, recorded by the on_result hook and
// checked after its round.
struct ReadRecord {
  bool done = false;
  uint8_t shape = 0;
  int64_t vehicle = 0;
  uint64_t visible_inserts = 0;  // inserts admitted before the read ran
  std::vector<uint64_t> digest;
};

struct InsertEntry {
  int64_t vehicle;
  Tuple row;
};

// Per-thread state of the traced serving hooks: the read in flight on
// this session thread.
struct PendingRead {
  uint64_t root = 0, kba = 0;
  int64_t start_ns = 0;
  bool miss = false;  // the session's statement cache will prepare it
};
thread_local PendingRead t_pending;

class ServingRun {
 public:
  ServingRun(const ServingConfig& cfg, const RunArgs& args, RunResult* out)
      : cfg_(cfg), args_(args), out_(out) {}

  bool SetUpInstance(Tracer* tracer, SetupTimes* times) {
    tracer_ = tracer;
    inst_ = SetUp({Dataset::kMot, cfg_.mot_scale}, DerivedSeed(args_.seed, 1),
                  ServingCluster(cfg_), tracer, times, out_);
    if (!inst_) return false;
    answers_ = std::make_unique<MotAnswers>(inst_->workload.data);
    schema_ = inst_->workload.catalog.Find("mot_test");
    log_.clear();
    by_vehicle_.clear();
    inserts_done_.store(0);
    round_ = 0;
    return true;
  }

  Instance& instance() { return *inst_; }

  // The power pass: single-stream reads of a fixed set of vehicles, run
  // in rounds spread over the measured time so that a passing slowdown of
  // the machine shifts few samples. The cache is bypassed, so the
  // counters and modeled seconds are a pure function of the data.
  struct PowerQuery {
    ReadShape shape;
    int64_t vehicle;
    std::optional<PreparedQuery> prepared;
    std::vector<double> auto_s, base_s;
  };

  bool PreparePower() {
    power_.clear();
    power_rounds_ = 0;
    zidian::Rng rng(DerivedSeed(args_.seed, 7));
    std::vector<int64_t> keys;
    while (keys.size() < kPowerKeys) {
      int64_t k = 1 + static_cast<int64_t>(rng.Next() % uint64_t(answers_->num_vehicles()));
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
    }
    zidian::Connection conn = inst_->zidian->Connect();
    for (int shape = 0; shape < kReadShapes; ++shape) {
      for (int64_t key : keys) {
        PowerQuery pq{static_cast<ReadShape>(shape), key, std::nullopt, {}, {}};
        auto q = TracedPrepare(conn, ReadSql(pq.shape, key), tracer_);
        if (!q.ok()) {
          out_->Fail("power pass: prepare failed: " + q.status().ToString());
          return false;
        }
        pq.prepared.emplace(std::move(q).value());
        power_.push_back(std::move(pq));
      }
    }
    return true;
  }

  // Every query kAutoPerRound times on the automatic route; on the
  // baseline route every query in the first round, then one per round in
  // turn. The first execution of each is checked and metered.
  void PowerRound() {
    bool first = power_rounds_ == 0;
    for (size_t i = 0; i < power_.size(); ++i) {
      PowerQuery& pq = power_[i];
      for (int r = 0; r < kAutoPerRound; ++r) {
        PowerExecute(pq, RoutePolicy::kAuto, first && r == 0, &pq.auto_s);
      }
      if (first || i == (power_rounds_ - 1) % power_.size()) {
        PowerExecute(pq, RoutePolicy::kForceBaseline, first, &pq.base_s);
      }
    }
    ++power_rounds_;
  }

  struct PowerResult {
    std::vector<double> auto_med_s, base_med_s;
    double sim_s = 0;
    QueryMetrics kba, ra;
  };
  PowerResult power_result() const {
    PowerResult p = power_totals_;
    for (const PowerQuery& pq : power_) {
      p.auto_med_s.push_back(Median(pq.auto_s));
      p.base_med_s.push_back(Median(pq.base_s));
    }
    return p;
  }

  struct RoundResult {
    zidian::serve::ServeResult serve;
    double lag_ms = 0;
    uint64_t reads = 0, prepares = 0;
  };

  // One Server::Run of a fixed feed: saturation when `open_loop` is
  // false, else the fixed open-loop rate. Every read is checked.
  std::optional<RoundResult> Round(bool open_loop) {
    namespace sv = zidian::serve;
    uint64_t per_stream = open_loop ? cfg_.open_ops : cfg_.sat_ops;
    uint64_t round = round_++;
    sv::ServeOptions so;
    so.sessions = kSessions;
    so.queue_depth = static_cast<size_t>(per_stream) * kSessions;  // never full
    so.load.streams = kSessions;
    so.load.ops_per_stream = per_stream;
    so.load.offered_load = open_loop ? cfg_.open_rate : 0;
    so.load.seed = DerivedSeed(args_.seed, 1000 + round);
    so.load.zipf_keys = static_cast<uint64_t>(answers_->num_vehicles());
    so.load.zipf_s = kZipfS;
    so.load.mix = Mix(round);
    so.exec = ServingExec(cfg_, RoutePolicy::kAuto, false);
    records_.assign(static_cast<size_t>(per_stream) * kSessions, ReadRecord{});
    prepares_.store(0);
    reads_.store(0);
    so.on_result = [this, per_stream](const sv::ServeOp& op,
                                      const zidian::Relation& rows,
                                      const AnswerInfo& info) {
      int64_t end = NowNs();
      ReadRecord& r = records_[op.stream * per_stream + op.seq];
      r.shape = static_cast<uint8_t>(op.template_idx);
      r.vehicle = static_cast<int64_t>(op.key);
      r.visible_inserts = inserts_done_.load(std::memory_order_acquire);
      r.digest = RowDigest(rows);
      r.done = true;
      if (tracer_ != nullptr) EndTracedRead(end, info.metrics.wall_seconds);
    };
    std::vector<sv::ServeOp> feed = sv::GenerateFeed(so.load);
    sv::Server server(inst_->zidian.get(), so);
    auto result = server.Run();
    if (!result.ok()) {
      out_->Fail("serve: " + result.status().ToString());
      return std::nullopt;
    }
    RoundResult rr;
    rr.serve = std::move(result).value();
    rr.reads = reads_.load();
    rr.prepares = prepares_.load();
    if (open_loop && !feed.empty()) {
      rr.lag_ms = Ms(rr.serve.wall_seconds - Sec(feed.back().arrival_ns));
    }
    out_->attempted += rr.serve.offered;
    out_->failed += rr.serve.failed + rr.serve.rejected;
    if (rr.serve.failed + rr.serve.rejected > 0 ||
        rr.serve.completed != rr.serve.offered) {
      out_->Fail("serve: " + std::to_string(rr.serve.failed) + " failed, " +
                 std::to_string(rr.serve.rejected) + " rejected of " +
                 std::to_string(rr.serve.offered));
    }
    CheckRound(feed);
    return rr;
  }

  // After the run: both routes return exactly the loaded plus the
  // admitted inserts for every vehicle that received one.
  void FinalWriteCheck() {
    if (log_.empty()) return;
    zidian::Connection conn = inst_->zidian->Connect();
    std::map<int64_t, std::vector<Tuple>> expected_tests;
    for (const auto& [vehicle, idx] : by_vehicle_) {
      std::vector<Tuple>& rows = expected_tests[vehicle];
      rows = answers_->tests(vehicle);
      for (size_t i : idx) rows.push_back(log_[i].row);
      auto q = conn.Prepare(ReadSql(ReadShape::kTests, vehicle));
      std::vector<Tuple> inserted;
      for (size_t i : idx) inserted.push_back(log_[i].row);
      Relation expected = answers_->Expected(ReadShape::kTests, vehicle, inserted);
      auto rows_auto = q.ok() ? q->Execute(ServingExec(cfg_, RoutePolicy::kAuto, false))
                              : Result<zidian::Relation>(q.status());
      std::string why;
      if (!rows_auto.ok() || !RowsMatch(*rows_auto, expected, &why)) {
        out_->Fail("after the run, vehicle " + std::to_string(vehicle) +
                   " on the automatic route: " +
                   (rows_auto.ok() ? why : rows_auto.status().ToString()));
      }
    }
    // The baseline route, over the whole table at once: one TaaV scan
    // instead of one per vehicle.
    auto q = conn.Prepare(
        "SELECT t.vehicle_id, t.test_id, t.test_date, t.test_result, "
        "t.test_mileage FROM mot_test t");
    auto rows = q.ok() ? q->Execute(Exec(kOlapWorkers, RoutePolicy::kForceBaseline,
                                         zidian::ParallelMode::kThreads,
                                         cfg_.fanout, false))
                       : Result<zidian::Relation>(q.status());
    if (!rows.ok()) {
      out_->Fail("after the run, baseline scan: " + rows.status().ToString());
      return;
    }
    std::map<int64_t, Relation> got;
    for (const Tuple& t : rows->rows()) {
      if (expected_tests.count(t[0].AsInt())) got[t[0].AsInt()].Add(t);
    }
    size_t cols[] = {static_cast<size_t>(schema_->ColumnIndex("vehicle_id")),
                     static_cast<size_t>(schema_->ColumnIndex("test_id")),
                     static_cast<size_t>(schema_->ColumnIndex("test_date")),
                     static_cast<size_t>(schema_->ColumnIndex("test_result")),
                     static_cast<size_t>(schema_->ColumnIndex("test_mileage"))};
    for (const auto& [vehicle, tests] : expected_tests) {
      Relation want;
      for (const Tuple& t : tests) {
        want.Add({t[cols[0]], t[cols[1]], t[cols[2]], t[cols[3]], t[cols[4]]});
      }
      std::string why;
      if (!RowsMatch(got[vehicle], want, &why)) {
        out_->Fail("after the run, vehicle " + std::to_string(vehicle) +
                   " on the baseline route: " + why);
      }
    }
  }

  uint64_t inserts() const { return log_.size(); }

 private:
  void PowerExecute(PowerQuery& pq, RoutePolicy route, bool first,
                    std::vector<double>* samples) {
    AnswerInfo info;
    double s = 0;
    auto rows = TimedExecute(*pq.prepared, ServingExec(cfg_, route, true),
                             tracer_, &info, &s);
    out_->attempted++;
    const char* name = route == RoutePolicy::kAuto ? "automatic" : "baseline";
    if (!rows.ok()) {
      out_->failed++;
      out_->Fail(std::string("power pass, ") + name + " route: " +
                 rows.status().ToString());
      return;
    }
    samples->push_back(s);
    if (!first) return;
    if (route == RoutePolicy::kAuto) {
      power_totals_.sim_s += info.sim_seconds;
      power_totals_.kba += info.metrics;
    } else {
      power_totals_.ra += info.metrics;
    }
    std::vector<Tuple> inserted;
    for (const InsertEntry& e : log_) {
      if (e.vehicle == pq.vehicle) inserted.push_back(e.row);
    }
    std::string why;
    if (!RowsMatch(*rows, answers_->Expected(pq.shape, pq.vehicle, inserted), &why)) {
      out_->Fail(std::string("power pass, ") + name + " route, vehicle " +
                 std::to_string(pq.vehicle) + ": " + why);
    }
  }

  std::vector<zidian::serve::ServeTemplate> Mix(uint64_t round) {
    namespace sv = zidian::serve;
    std::vector<sv::ServeTemplate> mix;
    const char* names[] = {"tests", "observations", "test-aggregate"};
    for (int shape = 0; shape < kReadShapes; ++shape) {
      sv::ServeTemplate t;
      t.name = names[shape];
      t.weight = 1;
      t.sql = [this, shape](uint64_t key) {
        std::string sql = ReadSql(static_cast<ReadShape>(shape), static_cast<int64_t>(key));
        if (tracer_ != nullptr) BeginTracedRead(sql);
        return sql;
      };
      mix.push_back(std::move(t));
    }
    if (cfg_.insert_weight > 0) {
      sv::ServeTemplate w;
      w.name = "insert";
      w.weight = cfg_.insert_weight;
      w.write = [this, round](zidian::Zidian& z, const sv::ServeOp& op) {
        // Ids are unique across rounds, streams and positions.
        int64_t id = kInsertIdBase + static_cast<int64_t>(round) * 1'000'000 +
                     static_cast<int64_t>(op.stream) * 100'000 +
                     static_cast<int64_t>(op.seq);
        int64_t vehicle = static_cast<int64_t>(op.key);
        Tuple row = InsertedTest(*schema_, id, vehicle);
        Tracer::SetThreadContext({});
        Status s;
        {
          SpanScope root(tracer_, "serve.write");
          SpanScope insert(tracer_, "baav.insert");
          s = z.Insert("mot_test", row);
        }
        if (s.ok()) {
          // The server holds its write gate exclusively here: no read and
          // no other write runs, so the log needs no lock of its own.
          log_.push_back({vehicle, std::move(row)});
          inserts_done_.store(log_.size(), std::memory_order_release);
        }
        return s;
      };
      mix.push_back(std::move(w));
    }
    return mix;
  }

  // Called on the session thread as the server renders a read's SQL,
  // right before it prepares (on a statement-cache miss) and executes.
  void BeginTracedRead(const std::string& sql) {
    thread_local std::unordered_set<std::string> seen;  // the session's cache
    reads_.fetch_add(1, std::memory_order_relaxed);
    t_pending.miss = seen.insert(sql).second;
    if (t_pending.miss) prepares_.fetch_add(1, std::memory_order_relaxed);
    t_pending.root = tracer_->NewId();
    t_pending.kba = tracer_->NewId();
    t_pending.start_ns = NowNs();
    Tracer::SetThreadContext({t_pending.root, t_pending.kba});
  }

  // The read's root span runs from rendering to completion. The server
  // prepares and executes internally, so the KBA span is placed from the
  // program's own measured execution time (AnswerInfo wall_seconds),
  // ending at completion, and on a statement-cache miss the time from
  // rendering to that span is a zidian.prepare span.
  void EndTracedRead(int64_t end_ns, double execute_s) {
    Span root;
    root.id = t_pending.root;
    root.request = t_pending.root;
    root.name = "serve.read";
    root.start_ns = t_pending.start_ns;
    root.end_ns = end_ns;
    Span kba = root;
    kba.id = t_pending.kba;
    kba.parent = t_pending.root;
    kba.name = "kba.execute";
    kba.start_ns = std::max(root.start_ns,
                            end_ns - static_cast<int64_t>(execute_s * 1e9));
    tracer_->Record(root);
    tracer_->Record(kba);
    if (t_pending.miss) {
      Span prepare = kba;
      prepare.id = tracer_->NewId();
      prepare.name = "zidian.prepare";
      prepare.start_ns = root.start_ns;
      prepare.end_ns = kba.start_ns;
      tracer_->Record(prepare);
    }
    Tracer::SetThreadContext({});
  }

  void CheckRound(const std::vector<zidian::serve::ServeOp>& feed) {
    by_vehicle_.clear();
    for (size_t i = 0; i < log_.size(); ++i) by_vehicle_[log_[i].vehicle].push_back(i);
    uint64_t reads = 0;
    for (const auto& op : feed) {
      if (op.template_idx < static_cast<uint32_t>(kReadShapes)) ++reads;
    }
    uint64_t checked = 0;
    for (const ReadRecord& r : records_) {
      if (!r.done) continue;
      ++checked;
      std::vector<Tuple> inserted;
      auto it = by_vehicle_.find(r.vehicle);
      if (it != by_vehicle_.end()) {
        for (size_t i : it->second) {
          if (i < r.visible_inserts) inserted.push_back(log_[i].row);
        }
      }
      auto key = std::make_tuple(r.shape, r.vehicle, inserted.size());
      auto found = expected_.find(key);
      if (found == expected_.end()) {
        found = expected_
                    .emplace(key, RowDigest(answers_->Expected(
                                      static_cast<ReadShape>(r.shape), r.vehicle,
                                      inserted)))
                    .first;
      }
      if (found->second != r.digest) {
        out_->Fail("serve: read " + std::to_string(r.shape) + " of vehicle " +
                   std::to_string(r.vehicle) + " returned other rows than "
                   "the loaded data plus the inserts admitted before it");
      }
    }
    if (checked != reads) {
      out_->Fail("serve: " + std::to_string(reads - checked) +
                 " reads returned no result");
    }
  }

  const ServingConfig& cfg_;
  const RunArgs& args_;
  RunResult* out_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<Instance> inst_;
  std::unique_ptr<MotAnswers> answers_;
  const zidian::TableSchema* schema_ = nullptr;
  uint64_t round_ = 0;
  std::vector<ReadRecord> records_;
  std::vector<InsertEntry> log_;
  std::atomic<uint64_t> inserts_done_{0};
  std::map<int64_t, std::vector<size_t>> by_vehicle_;
  // Expected digests by (shape, vehicle, inserts visible to the vehicle).
  std::map<std::tuple<uint8_t, int64_t, size_t>, std::vector<uint64_t>> expected_;
  std::atomic<uint64_t> prepares_{0}, reads_{0};
  std::vector<PowerQuery> power_;
  size_t power_rounds_ = 0;
  PowerResult power_totals_;
};

RunResult RunServingMeasured(const ServingConfig& cfg, const RunArgs& args) {
  RunResult out;
  ServingRun run(cfg, args, &out);
  SetupTimes first;
  if (!run.SetUpInstance(nullptr, &first)) return out;
  std::vector<double> setup_s = {first.total()};
  // The other set-ups are spread over the run, one after each cycle of
  // rounds, so their median does not hang on one stretch of the
  // machine's speed.
  auto extra_setup = [&] {
    SetupTimes t;
    if (SetUp({Dataset::kMot, cfg.mot_scale}, DerivedSeed(args.seed, 1),
              ServingCluster(cfg), nullptr, &t, &out)) {
      setup_s.push_back(t.total());
    }
  };
  Instance& inst = run.instance();
  double space_amp = double(inst.cluster->TotalBytes()) / double(inst.relation_bytes);
  if (!run.PreparePower()) return out;
  run.PowerRound();                   // before any write: the metered round
  if (!run.Round(false)) return out;  // warm-up: fills the cache

  // Saturation rounds and power rounds take turns, so a passing slowdown
  // of the machine hits few rounds of each; every figure is a median.
  std::vector<double> throughput;
  int64_t measured_ns = 0;
  do {
    int64_t cycle_start = NowNs();
    auto sat = run.Round(false);
    if (!sat) return out;
    throughput.push_back(sat->serve.Throughput());
    run.PowerRound();
    measured_ns += NowNs() - cycle_start;
    if (static_cast<int>(setup_s.size()) < cfg.setups) extra_setup();
  } while (out.correct && Sec(measured_ns) < args.seconds);
  while (out.correct && static_cast<int>(setup_s.size()) < cfg.setups) extra_setup();
  run.FinalWriteCheck();

  ServingRun::PowerResult power = run.power_result();
  double total_s = 0;
  std::vector<double> auto_ms, base_ms;
  for (double s : power.auto_med_s) {
    total_s += s;
    auto_ms.push_back(Ms(s));
  }
  for (double s : power.base_med_s) base_ms.push_back(Ms(s));
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("query_total_s", total_s, "s");
  out.Add("query_geomean_ms", GeoMean(auto_ms), "ms");
  out.Add("baseline_geomean_ms", GeoMean(base_ms), "ms");
  out.Add("sim_total_s", power.sim_s, "s");
  out.Add("ops_per_s", Median(throughput), "1/s");
  out.Add("space_amp", space_amp, "B/B");
  out.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  char note[320];
  std::snprintf(note, sizeof(note),
                "%s: %zu saturation rounds of %llu ops (ops/s %.0f..%.0f), "
                "each followed by a power round; %llu inserts admitted",
                cfg.name, throughput.size(),
                static_cast<unsigned long long>(cfg.sat_ops * kSessions),
                Quantile(throughput, 0), Quantile(throughput, 1),
                static_cast<unsigned long long>(run.inserts()));
  out.notes.push_back(note);
  return out;
}

RunResult RunServingTraced(const ServingConfig& cfg, const RunArgs& args) {
  RunResult out;
  LayerFigures f;
  double untraced_ops_s = 0;
  {
    ServingRun plain(cfg, args, &out);
    SetupTimes t;
    if (!plain.SetUpInstance(nullptr, &t) || !plain.Round(false)) return out;
    std::vector<double> throughput;
    for (int i = 0; i < kTracedSaturationRounds; ++i) {
      auto sat = plain.Round(false);
      if (!sat) return out;
      throughput.push_back(sat->serve.Throughput());
    }
    untraced_ops_s = Median(throughput);
    // Open-loop latency at the fixed rate, on the untraced cluster: a
    // median over rounds of each round's p50 and tail percentile.
    std::vector<double> p50, tail, lag;
    for (int i = 0; i < kOpenRounds; ++i) {
      auto open = plain.Round(true);
      if (!open) return out;
      const zidian::serve::LatencyRecorder& lat = open->serve.latency;
      p50.push_back(double(lat.Quantile(0.5)) / 1e6);
      tail.push_back(double(lat.Quantile(TailPercentile(lat.count()) / 100)) / 1e6);
      lag.push_back(open->lag_ms);
      f.rejected += open->serve.rejected;
    }
    f.open_p50_ms = Median(p50);
    f.open_p99_ms = Median(tail);
    f.generator_lag_ms = Median(lag);
  }
  Tracer tracer;
  ServingRun run(cfg, args, &out);
  SetupTimes times;
  if (!run.SetUpInstance(&tracer, &times)) return out;
  Instance& inst = run.instance();
  f.stored_bytes = inst.cluster->TotalBytes();
  uint64_t measured_from = tracer.NewId();
  if (!run.PreparePower()) return out;
  run.PowerRound();
  ServingRun::PowerResult power = run.power_result();
  uint64_t warmup_from = tracer.NewId();
  if (!run.Round(false)) return out;
  uint64_t warmup_to = tracer.NewId();
  StorageCounts before = inst.meter->Totals();
  uint64_t inserts_before = run.inserts();
  std::vector<double> throughput;
  QueryMetrics served;
  uint64_t served_ops = 0, reads = 0, prepares = 0;
  for (int i = 0; i <= kTracedSaturationRounds; ++i) {
    bool open_loop = i == kTracedSaturationRounds;
    auto r = run.Round(open_loop);
    if (!r) return out;
    if (!open_loop) throughput.push_back(r->serve.Throughput());
    served += r->serve.metrics;
    served_ops += r->serve.completed;
    reads += r->reads;
    prepares += r->prepares;
    f.rejected += r->serve.rejected;
  }
  StorageCounts during = inst.meter->Totals() - before;
  uint64_t inserts = run.inserts() - inserts_before;
  run.FinalWriteCheck();

  std::vector<Span> all = tracer.Collect();
  std::vector<Span> measured =
      SpansSince(all, measured_from, {{warmup_from, warmup_to}});
  auto self = CheckedSelfTimes(measured, &out);
  f.generate_s = times.generate_s;
  f.load_taav_s = times.load_s;
  f.build_baav_s = times.build_s;
  f.setup_gets = times.build_gets;
  f.prepare_us = Median(SpanDurations(measured, "zidian.prepare")) / 1e3;
  f.parse_bind_us = Median(SpanDurations(measured, "sql.parse_bind")) / 1e3;
  f.prepares_per_op = reads > 0 ? double(prepares) / double(reads) : 0;
  f.kba = power.kba;
  f.ra = power.ra;
  f.kba.wall_seconds = served.wall_seconds;
  f.kba.wall_fetch_seconds = served.wall_fetch_seconds;
  f.kba.wall_compute_seconds = served.wall_compute_seconds;
  f.served = served;
  f.served_ops = served_ops;
  f.kba_self_s = Sec(self["kba"]);
  f.ra_self_s = Sec(self["ra"]);
  f.kv_self_s = Sec(self["storage"]);
  f.serve_self_s = Sec(self["serve"]);
  f.kv_calls = during.calls();
  f.insert_us = Median(SpanDurations(measured, "baav.insert")) / 1e3;
  f.insert_put_bytes = inserts > 0 ? double(during.put_bytes) / double(inserts) : 0;
  double traced_ops_s = Median(throughput);
  f.overhead_pct = traced_ops_s > 0 ? (untraced_ops_s / traced_ops_s - 1) * 100 : 0;
  f.spans = all.size();
  AddLayerMetrics(f, &out);
  WriteSpans(tracer, all, args, &out);
  return out;
}

}  // namespace

RunResult RunOlap(const RunArgs& args) {
  return args.trace ? RunOlapTraced(args) : RunOlapMeasured(args);
}

RunResult RunServing(const RunArgs& args, bool net_rw) {
  const ServingConfig& cfg = net_rw ? kNetRw : kPointServe;
  return args.trace ? RunServingTraced(cfg, args) : RunServingMeasured(cfg, args);
}

}  // namespace perfbench
