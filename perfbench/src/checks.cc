#include "checks.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace perfbench {

namespace {

bool ValuesMatch(const Value& a, const Value& b) {
  if (a.IsNumeric() && b.IsNumeric()) {
    double x = a.Numeric(), y = b.Numeric();
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a == b;
}

// ---------------------------------------------------- reference aggregates

enum class Agg { kCount, kSum, kAvg, kMax };

struct AggSpec {
  Agg fn;
  std::function<double(const Tuple&)> expr;  // unused by kCount
  int column = -1;                            // kMax reads a column as is
};

// A plain GROUP BY loop: rows passing `filter`, grouped on `group_cols`,
// one output row per group (group values, then the aggregates in order),
// groups in key order.
Relation GroupAggregate(const Relation& rel,
                        const std::function<bool(const Tuple&)>& filter,
                        const std::vector<std::string>& group_cols,
                        const std::vector<AggSpec>& aggs) {
  struct State {
    int64_t count = 0;
    std::vector<double> sums;
    std::vector<Value> maxes;
  };
  std::vector<int> group_idx;
  for (const auto& c : group_cols) group_idx.push_back(rel.ColumnIndex(c));
  std::map<Tuple, State> groups;
  for (const Tuple& row : rel.rows()) {
    if (!filter(row)) continue;
    Tuple key;
    for (int i : group_idx) key.push_back(row[static_cast<size_t>(i)]);
    State& st = groups[key];
    if (st.sums.empty()) {
      st.sums.assign(aggs.size(), 0);
      st.maxes.resize(aggs.size());  // default Values are null
    }
    ++st.count;
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn == Agg::kSum || aggs[a].fn == Agg::kAvg) {
        st.sums[a] += aggs[a].expr(row);
      } else if (aggs[a].fn == Agg::kMax) {
        const Value& v = row[static_cast<size_t>(aggs[a].column)];
        if (st.maxes[a].is_null() || st.maxes[a] < v) st.maxes[a] = v;
      }
    }
  }
  Relation out;
  for (const auto& [key, st] : groups) {
    Tuple t = key;
    for (size_t a = 0; a < aggs.size(); ++a) {
      switch (aggs[a].fn) {
        case Agg::kCount: t.push_back(Value(st.count)); break;
        case Agg::kSum: t.push_back(Value(st.sums[a])); break;
        case Agg::kAvg:
          t.push_back(Value(st.sums[a] / static_cast<double>(st.count)));
          break;
        case Agg::kMax: t.push_back(st.maxes[a]); break;
      }
    }
    out.Add(std::move(t));
  }
  return out;
}

// Column accessor bound to one relation.
struct Col {
  int i;
  Col(const Relation& r, const char* name) : i(r.ColumnIndex(name)) {
    if (i < 0) throw std::runtime_error(std::string("no column ") + name);
  }
  const Value& operator()(const Tuple& t) const { return t[static_cast<size_t>(i)]; }
  double num(const Tuple& t) const { return (*this)(t).Numeric(); }
};

AggSpec Count() { return {Agg::kCount, nullptr}; }
AggSpec Sum(std::function<double(const Tuple&)> e) { return {Agg::kSum, std::move(e)}; }
AggSpec Avg(std::function<double(const Tuple&)> e) { return {Agg::kAvg, std::move(e)}; }

Relation TpchQ1(const std::map<std::string, Relation>& db) {
  const Relation& l = db.at("lineitem");
  Col ship(l, "shipdate"), qty(l, "quantity"), price(l, "extendedprice"),
      disc(l, "discount");
  return GroupAggregate(
      l, [&](const Tuple& t) { return ship(t).AsInt() <= 10471; },
      {"returnflag", "linestatus"},
      {Sum([&](const Tuple& t) { return qty.num(t); }),
       Sum([&](const Tuple& t) { return price.num(t); }),
       Avg([&](const Tuple& t) { return disc.num(t); }), Count()});
}

Relation TpchQ4(const std::map<std::string, Relation>& db) {
  const Relation& o = db.at("orders");
  Col date(o, "orderdate");
  return GroupAggregate(
      o,
      [&](const Tuple& t) {
        int64_t d = date(t).AsInt();
        return d >= 9131 && d < 9223;
      },
      {"orderpriority"}, {Count()});
}

Relation TpchQ6(const std::map<std::string, Relation>& db) {
  const Relation& l = db.at("lineitem");
  Col ship(l, "shipdate"), qty(l, "quantity"), price(l, "extendedprice"),
      disc(l, "discount");
  return GroupAggregate(
      l,
      [&](const Tuple& t) {
        int64_t d = ship(t).AsInt();
        double dc = disc.num(t);
        return d >= 8766 && d < 9131 && dc >= 0.05 && dc <= 0.07 &&
               qty.num(t) < 24;
      },
      {}, {Sum([&](const Tuple& t) { return price.num(t) * disc.num(t); })});
}

Relation TpchQ15(const std::map<std::string, Relation>& db) {
  const Relation& l = db.at("lineitem");
  Col ship(l, "shipdate"), price(l, "extendedprice");
  return GroupAggregate(
      l,
      [&](const Tuple& t) {
        int64_t d = ship(t).AsInt();
        return d >= 9496 && d < 9587;
      },
      {"suppkey"}, {Sum([&](const Tuple& t) { return price.num(t); })});
}

Relation TpchQ22(const std::map<std::string, Relation>& db) {
  const Relation& c = db.at("customer");
  Col bal(c, "acctbal");
  return GroupAggregate(
      c, [&](const Tuple& t) { return bal.num(t) > 7000; }, {"nationkey"},
      {Count(), Sum([&](const Tuple& t) { return bal.num(t); })});
}

Relation MotQ7(const std::map<std::string, Relation>& db) {
  return GroupAggregate(
      db.at("vehicle"), [](const Tuple&) { return true; }, {"make"}, {Count()});
}

Relation MotQ9(const std::map<std::string, Relation>& db) {
  const Relation& t = db.at("mot_test");
  Col date(t, "test_date");
  return GroupAggregate(
      t,
      [&](const Tuple& r) {
        int64_t d = date(r).AsInt();
        return d >= 14000 && d < 14400;
      },
      {"test_result"}, {Count()});
}

Relation MotQ10(const std::map<std::string, Relation>& db) {
  const Relation& o = db.at("observation");
  Col speed(o, "speed_mph");
  return GroupAggregate(
      o, [&](const Tuple& r) { return speed(r).AsInt() > 60; }, {"region"},
      {Avg([&](const Tuple& r) { return speed.num(r); })});
}

Relation MotQ12(const std::map<std::string, Relation>& db) {
  const Relation& t = db.at("mot_test");
  Col dur(t, "duration_min");
  Relation all = GroupAggregate(
      t, [](const Tuple&) { return true; }, {"station_id"},
      {Count(), Avg([&](const Tuple& r) { return dur.num(r); })});
  // ORDER BY station_id LIMIT 10: groups come out in key order.
  if (all.rows().size() > 10) all.rows().resize(10);
  return all;
}

}  // namespace

bool RowsMatch(Relation a, Relation b, std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (a.size() != b.size()) {
    return fail("row counts differ: " + std::to_string(a.size()) + " vs " +
                std::to_string(b.size()));
  }
  a.SortRows();
  b.SortRows();
  for (size_t i = 0; i < a.size(); ++i) {
    const Tuple& x = a.rows()[i];
    const Tuple& y = b.rows()[i];
    bool same = x.size() == y.size();
    for (size_t c = 0; same && c < x.size(); ++c) same = ValuesMatch(x[c], y[c]);
    if (!same) {
      return fail("row " + std::to_string(i) + " differs: " +
                  zidian::TupleToString(x) + " vs " + zidian::TupleToString(y));
    }
  }
  return true;
}

const std::vector<ReferenceQuery>& SingleTableReferences() {
  static const std::vector<ReferenceQuery> refs = {
      {"q1",
       "SELECT l.returnflag, l.linestatus, SUM(l.quantity), "
       "SUM(l.extendedprice), AVG(l.discount), COUNT(*) "
       "FROM lineitem l WHERE l.shipdate <= 10471 "
       "GROUP BY l.returnflag, l.linestatus",
       TpchQ1},
      {"q4",
       "SELECT o.orderpriority, COUNT(*) FROM orders o "
       "WHERE o.orderdate >= 9131 AND o.orderdate < 9223 "
       "GROUP BY o.orderpriority",
       TpchQ4},
      {"q6",
       "SELECT SUM(l.extendedprice * l.discount) FROM lineitem l "
       "WHERE l.shipdate >= 8766 AND l.shipdate < 9131 "
       "AND l.discount >= 0.05 AND l.discount <= 0.07 AND l.quantity < 24",
       TpchQ6},
      {"q15",
       "SELECT l.suppkey, SUM(l.extendedprice) FROM lineitem l "
       "WHERE l.shipdate >= 9496 AND l.shipdate < 9587 GROUP BY l.suppkey",
       TpchQ15},
      {"q22",
       "SELECT c.nationkey, COUNT(*), SUM(c.acctbal) FROM customer c "
       "WHERE c.acctbal > 7000 GROUP BY c.nationkey",
       TpchQ22},
      {"mot-q7", "SELECT v.make, COUNT(*) FROM vehicle v GROUP BY v.make",
       MotQ7},
      {"mot-q9",
       "SELECT t.test_result, COUNT(*) FROM mot_test t "
       "WHERE t.test_date >= 14000 AND t.test_date < 14400 "
       "GROUP BY t.test_result",
       MotQ9},
      {"mot-q10",
       "SELECT o.region, AVG(o.speed_mph) FROM observation o "
       "WHERE o.speed_mph > 60 GROUP BY o.region",
       MotQ10},
      {"mot-q12",
       "SELECT t.station_id, COUNT(*), AVG(t.duration_min) FROM mot_test t "
       "GROUP BY t.station_id ORDER BY t.station_id LIMIT 10",
       MotQ12},
  };
  return refs;
}

std::string ReadSql(ReadShape shape, int64_t vehicle) {
  std::string v = std::to_string(vehicle);
  switch (shape) {
    case ReadShape::kTests:
      return "SELECT v.make, v.model, t.test_date, t.test_result, "
             "t.test_mileage FROM vehicle v, mot_test t "
             "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = " + v;
    case ReadShape::kObservations:
      return "SELECT v.make, o.obs_date, o.speed_mph, o.road_id "
             "FROM vehicle v, observation o "
             "WHERE v.vehicle_id = o.vehicle_id AND v.vehicle_id = " + v;
    case ReadShape::kTestAggregate:
      return "SELECT t.test_result, COUNT(*), MAX(t.test_mileage) "
             "FROM vehicle v, mot_test t WHERE v.vehicle_id = t.vehicle_id "
             "AND v.vehicle_id = " + v + " GROUP BY t.test_result";
  }
  return "";
}

MotAnswers::MotAnswers(const std::map<std::string, Relation>& db) {
  const Relation& v = db.at("vehicle");
  const Relation& t = db.at("mot_test");
  const Relation& o = db.at("observation");
  Col vid(v, "vehicle_id"), tvid(t, "vehicle_id"), ovid(o, "vehicle_id");
  int64_t n = 0;
  for (const Tuple& r : v.rows()) n = std::max(n, vid(r).AsInt());
  vehicles_.resize(static_cast<size_t>(n));
  tests_.resize(static_cast<size_t>(n));
  obs_.resize(static_cast<size_t>(n));
  for (const Tuple& r : v.rows()) vehicles_[static_cast<size_t>(vid(r).AsInt() - 1)] = r;
  for (const Tuple& r : t.rows()) tests_[static_cast<size_t>(tvid(r).AsInt() - 1)].push_back(r);
  for (const Tuple& r : o.rows()) obs_[static_cast<size_t>(ovid(r).AsInt() - 1)].push_back(r);
  auto idx = [](const Relation& r, const char* name) {
    return static_cast<size_t>(Col(r, name).i);
  };
  cols_ = {idx(v, "make"),        idx(v, "model"),      idx(t, "test_date"),
           idx(t, "test_result"), idx(t, "test_mileage"), idx(o, "obs_date"),
           idx(o, "speed_mph"),   idx(o, "road_id")};
}

const std::vector<Tuple>& MotAnswers::tests(int64_t vehicle) const {
  return tests_.at(static_cast<size_t>(vehicle - 1));
}

Relation MotAnswers::Expected(ReadShape shape, int64_t vehicle,
                              const std::vector<Tuple>& inserted) const {
  const Tuple& v = vehicles_.at(static_cast<size_t>(vehicle - 1));
  std::vector<Tuple> tests = tests_.at(static_cast<size_t>(vehicle - 1));
  tests.insert(tests.end(), inserted.begin(), inserted.end());
  const Cols& c = cols_;
  Relation out;
  switch (shape) {
    case ReadShape::kTests:
      for (const Tuple& t : tests) {
        out.Add({v[c.make], v[c.model], t[c.test_date], t[c.test_result],
                 t[c.test_mileage]});
      }
      break;
    case ReadShape::kObservations:
      for (const Tuple& o : obs_.at(static_cast<size_t>(vehicle - 1))) {
        out.Add({v[c.make], o[c.obs_date], o[c.speed_mph], o[c.road_id]});
      }
      break;
    case ReadShape::kTestAggregate: {
      std::map<std::string, std::pair<int64_t, Value>> groups;
      for (const Tuple& t : tests) {
        auto& [count, max] = groups[t[c.test_result].AsString()];
        ++count;
        if (max.is_null() || max < t[c.test_mileage]) max = t[c.test_mileage];
      }
      for (const auto& [result, agg] : groups) {
        out.Add({Value(result), Value(agg.first), agg.second});
      }
      break;
    }
  }
  return out;
}

std::vector<uint64_t> RowDigest(const Relation& rows) {
  std::vector<uint64_t> d;
  d.reserve(rows.size());
  for (const Tuple& t : rows.rows()) d.push_back(zidian::HashTuple(t));
  std::sort(d.begin(), d.end());
  return d;
}

}  // namespace perfbench
