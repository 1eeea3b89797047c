// Tests of the benchmark's own arithmetic and answer checks: the
// geometric mean, the tail-percentile rule, span self time, and that each
// answer check rejects a deliberately altered row.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "checks.h"
#include "stats.h"
#include "timing_backend.h"
#include "trace.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace perfbench {
namespace {

TEST(Stats, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({1, 4}), 2);
  EXPECT_NEAR(GeoMean({2, 8, 4}), 4, 1e-12);
  EXPECT_NEAR(GeoMean({0.001, 1000}), 1, 1e-12);
  EXPECT_EQ(GeoMean({}), 0);
  EXPECT_EQ(GeoMean({3, 0}), 0);  // a zero latency is not a measurement
  EXPECT_EQ(GeoMean({3, -1}), 0);
}

TEST(Stats, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5}), 5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 0.25), 2);
  EXPECT_DOUBLE_EQ(Quantile({10, 20}, 0.9), 19);
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 0), 1);
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 1), 3);
  EXPECT_EQ(Quantile({}, 0.5), 0);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 50);
  EXPECT_EQ(TailPercentile(39), 50);    // under 40: the median alone
  EXPECT_EQ(TailPercentile(40), 75);    // 10 beyond p75
  EXPECT_EQ(TailPercentile(99), 75);    // 9.9 beyond p90: not enough
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(199), 90);
  EXPECT_EQ(TailPercentile(200), 95);
  EXPECT_EQ(TailPercentile(999), 95);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(1000000), 99);
}

Span S(uint64_t id, uint64_t parent, uint64_t request, const char* name,
       int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Trace, SelfTimeSubtractsChildren) {
  std::vector<Span> spans = {S(1, 0, 1, "kba.execute", 0, 100),
                             S(2, 1, 1, "storage.get", 10, 30),
                             S(3, 1, 1, "storage.next", 50, 60)};
  int64_t root = 0;
  std::string error;
  auto self = SelfTimeByLayer(spans, &root, &error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(root, 100);
  EXPECT_EQ(self["kba"], 70);
  EXPECT_EQ(self["storage"], 30);
}

TEST(Trace, OverlappingChildrenCountOnce) {
  // Two worker threads in storage at once: the overlap is storage time
  // once, so the layers still add up to the request.
  std::vector<Span> spans = {S(1, 0, 1, "kba.execute", 0, 100),
                             S(2, 1, 1, "storage.get", 10, 40),
                             S(3, 1, 1, "storage.get", 20, 50)};
  int64_t root = 0;
  auto self = SelfTimeByLayer(spans, &root);
  EXPECT_EQ(self["storage"], 40);
  EXPECT_EQ(self["kba"], 60);
  EXPECT_EQ(self["kba"] + self["storage"], root);
}

TEST(Trace, InnermostSpanOwnsTheTimeAndChildrenAreClipped) {
  std::vector<Span> spans = {
      S(1, 0, 1, "serve.read", 0, 100),
      S(2, 1, 1, "kba.execute", 20, 100),
      S(3, 1, 1, "zidian.prepare", 0, 20),
      S(4, 2, 1, "storage.get", 30, 40),
      S(5, 2, 1, "storage.get", 90, 130),  // runs past the request: clipped
      // A second request, summed into the same layers.
      S(6, 0, 6, "ra.execute", 200, 260),
      S(7, 6, 6, "storage.next", 210, 215),
  };
  int64_t root = 0;
  std::string error;
  auto self = SelfTimeByLayer(spans, &root, &error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(self["serve"], 0);
  EXPECT_EQ(self["zidian"], 20);
  EXPECT_EQ(self["kba"], 60);
  EXPECT_EQ(self["storage"], 25);
  EXPECT_EQ(self["ra"], 55);
  int64_t sum = 0;
  for (const auto& [layer, ns] : self) sum += ns;
  EXPECT_EQ(sum, root);
  EXPECT_EQ(root, 160);
}

TEST(Trace, RequestWithoutRootIsReported) {
  std::vector<Span> spans = {S(2, 1, 1, "storage.get", 10, 30)};
  std::string error;
  SelfTimeByLayer(spans, nullptr, &error);
  EXPECT_NE(error.find("0 root spans"), std::string::npos);
}

TEST(Trace, ScopesNestAndShareTheRequest) {
  Tracer tracer;
  {
    SpanScope outer(&tracer, "zidian.prepare");
    SpanScope inner(&tracer, "sql.parse_bind");
  }
  { SpanScope other(&tracer, "kba.execute"); }
  std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].request, spans[1].request);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_NE(spans[2].request, spans[0].request);
  EXPECT_EQ(Tracer::ThreadContext().request, 0u);
  EXPECT_EQ(SpanDurations(spans, "kba.execute").size(), 1u);
}

TEST(Trace, WorkerThreadsJoinTheSharedRequest) {
  // A kThreads execution's pool threads have no context of their own:
  // their storage calls belong to the request published as shared.
  Tracer tracer;
  std::atomic<int64_t> busy{0};
  uint64_t request = 0;
  {
    SpanScope execute(&tracer, "kba.execute", /*shared=*/true);
    request = Tracer::ThreadContext().request;
    std::vector<std::thread> workers;
    for (int i = 0; i < 4; ++i) {
      workers.emplace_back([&] {
        int64_t t = NowNs();
        RecordStorageCall(&tracer, "storage.get", t, t + 10, &busy);
      });
    }
    for (auto& w : workers) w.join();
  }
  std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 5u);
  for (const Span& s : spans) EXPECT_EQ(s.request, request);
  EXPECT_EQ(busy.load(), 40);
  EXPECT_EQ(tracer.Current().request, 0u);  // the shared context is cleared
}

Relation Rows(std::vector<Tuple> rows) {
  Relation r;
  for (auto& t : rows) r.Add(std::move(t));
  return r;
}

TEST(Checks, RowsMatchIgnoresOrderAndFloatingNoise) {
  Relation a = Rows({{Value("A"), Value(int64_t{3})}, {Value("B"), Value(0.1 + 0.2)}});
  Relation b = Rows({{Value("B"), Value(0.3)}, {Value("A"), Value(3.0)}});
  std::string why;
  EXPECT_TRUE(RowsMatch(a, b, &why)) << why;
}

TEST(Checks, RowsMatchRejectsAnAlteredRow) {
  Relation a = Rows({{Value("A"), Value(int64_t{3})}, {Value("B"), Value(1.5)}});
  Relation value = Rows({{Value("A"), Value(int64_t{4})}, {Value("B"), Value(1.5)}});
  Relation number = Rows({{Value("A"), Value(int64_t{3})}, {Value("B"), Value(1.5001)}});
  Relation missing = Rows({{Value("A"), Value(int64_t{3})}});
  std::string why;
  EXPECT_FALSE(RowsMatch(a, value, &why));
  EXPECT_NE(why.find("differs"), std::string::npos);
  EXPECT_FALSE(RowsMatch(a, number));
  EXPECT_FALSE(RowsMatch(a, missing, &why));
  EXPECT_NE(why.find("row counts"), std::string::npos);
}

// A small instance of a workload, answered by the program itself.
struct Small {
  zidian::Workload w;
  std::unique_ptr<zidian::Cluster> cluster;
  std::unique_ptr<zidian::Zidian> zidian;

  explicit Small(zidian::Result<zidian::Workload> r) : w(std::move(r).value()) {
    cluster = std::make_unique<zidian::Cluster>(
        zidian::ClusterOptions{.num_storage_nodes = 4});
    zidian = std::make_unique<zidian::Zidian>(&w.catalog, cluster.get(), w.baav);
    EXPECT_TRUE(zidian->LoadTaav(w.data).ok());
    EXPECT_TRUE(zidian->BuildBaav(w.data).ok());
  }
  Relation Answer(const std::string& sql) {
    auto r = zidian->Connect().Execute(sql);
    EXPECT_TRUE(r.ok()) << sql;
    return r.ok() ? *r : Relation();
  }
};

TEST(Checks, ReferencesAgreeWithTheProgramAndRejectAlteredRows) {
  Small tpch(zidian::MakeTpch(0.2, 5));
  Small mot(zidian::MakeMot(0.2, 6));
  for (const ReferenceQuery& ref : SingleTableReferences()) {
    Small& inst = ref.name.rfind("mot-", 0) == 0 ? mot : tpch;
    const zidian::WorkloadQuery* q = nullptr;
    for (const auto& wq : inst.w.queries) {
      if (wq.name == ref.name) q = &wq;
    }
    ASSERT_NE(q, nullptr) << ref.name;
    EXPECT_EQ(q->sql, ref.sql) << ref.name;
    Relation expected = ref.compute(inst.w.data);
    ASSERT_FALSE(expected.empty()) << ref.name;
    std::string why;
    EXPECT_TRUE(RowsMatch(inst.Answer(q->sql), expected, &why)) << ref.name << ": " << why;
    Relation altered = expected;
    Tuple& last = altered.rows().back();
    last.back() = Value(last.back().Numeric() + 1);
    EXPECT_FALSE(RowsMatch(inst.Answer(q->sql), altered)) << ref.name;
  }
}

TEST(Checks, ServingReadsMatchTheProgramAndAlteredRowsDiffer) {
  Small mot(zidian::MakeMot(0.2, 7));
  MotAnswers answers(mot.w.data);
  for (int shape = 0; shape < kReadShapes; ++shape) {
    for (int64_t v : {int64_t{1}, int64_t{13}, answers.num_vehicles()}) {
      ReadShape rs = static_cast<ReadShape>(shape);
      Relation expected = answers.Expected(rs, v);
      Relation got = mot.Answer(ReadSql(rs, v));
      EXPECT_EQ(RowDigest(got), RowDigest(expected)) << shape << " " << v;
      Relation altered = expected;
      altered.rows()[0][1] = Value("altered");
      EXPECT_NE(RowDigest(got), RowDigest(altered)) << shape << " " << v;
    }
  }
}

TEST(Checks, InsertedRowsJoinTheExpectedAnswer) {
  Small mot(zidian::MakeMot(0.2, 8));
  MotAnswers answers(mot.w.data);
  const int64_t vehicle = 5;
  Tuple inserted = answers.tests(vehicle).front();
  inserted[0] = Value(int64_t{999999});  // test_id
  inserted[4] = Value(int64_t{123456});  // test_mileage
  ASSERT_TRUE(mot.zidian->Insert("mot_test", inserted).ok());
  for (int shape : {0, 2}) {
    ReadShape rs = static_cast<ReadShape>(shape);
    Relation got = mot.Answer(ReadSql(rs, vehicle));
    EXPECT_EQ(RowDigest(got), RowDigest(answers.Expected(rs, vehicle, {inserted})));
    EXPECT_NE(RowDigest(got), RowDigest(answers.Expected(rs, vehicle)));
  }
}

}  // namespace
}  // namespace perfbench
