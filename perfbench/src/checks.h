// Answer checks made apart from the program: row-set comparison between
// the two routes, single-table aggregates recomputed by plain loops over
// the generated relations, and the expected answer of every serving read
// computed from the generated MOT rows.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relational/relation.h"

namespace perfbench {

using zidian::Relation;
using zidian::Tuple;
using zidian::Value;

/// Whether two results hold the same rows, in any order. Numbers compare
/// by value (an integer 3 equals a double 3.0) with a relative tolerance
/// of 1e-9, since the two routes may add floating values in a different
/// order. `why` (optional) receives the first difference.
bool RowsMatch(Relation a, Relation b, std::string* why = nullptr);

/// A query whose answer the benchmark recomputes itself.
struct ReferenceQuery {
  std::string name;  ///< the workload query's name ("q1", "mot-q7", ...)
  std::string sql;   ///< the SQL the reference implements
  Relation (*compute)(const std::map<std::string, Relation>& db);
};

/// TPC-H q1, q4, q6, q15, q22 and MOT q7, q9, q10, q12.
const std::vector<ReferenceQuery>& SingleTableReferences();

/// The serving reads: per-vehicle queries shaped like mot-q1 (tests
/// join), mot-q2 (observations join) and mot-q3 (per-vehicle aggregate).
enum class ReadShape { kTests = 0, kObservations = 1, kTestAggregate = 2 };
constexpr int kReadShapes = 3;

/// The SQL of one read for one vehicle.
std::string ReadSql(ReadShape shape, int64_t vehicle);

/// The generated MOT rows indexed by vehicle, and the answer every read
/// must give.
class MotAnswers {
 public:
  explicit MotAnswers(const std::map<std::string, Relation>& db);

  int64_t num_vehicles() const { return static_cast<int64_t>(vehicles_.size()); }
  /// The loaded mot_test rows of `vehicle`.
  const std::vector<Tuple>& tests(int64_t vehicle) const;

  /// The answer of `shape` for `vehicle`, with `inserted` mot_test rows
  /// added to the loaded ones.
  Relation Expected(ReadShape shape, int64_t vehicle,
                    const std::vector<Tuple>& inserted = {}) const;

 private:
  std::vector<Tuple> vehicles_;             // index vehicle_id - 1
  std::vector<std::vector<Tuple>> tests_;   // per vehicle
  std::vector<std::vector<Tuple>> obs_;     // per vehicle
  struct Cols {
    size_t make, model, test_date, test_result, test_mileage, obs_date,
        speed_mph, road_id;
  } cols_;
};

/// An order-independent digest of a result: the sorted per-row hashes
/// (zidian::HashTuple, which hashes numbers by value). Two results with
/// equal digests hold the same rows.
std::vector<uint64_t> RowDigest(const Relation& rows);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
