// The three benchmark workloads (olap, point-serve, net-rw), each driven
// through the program's public API: Zidian, Connection/PreparedQuery and
// serve::Server.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< measured time of an untraced run
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   ///< human-readable context lines
  std::vector<std::string> errors;  ///< failed answer checks

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

RunResult RunOlap(const RunArgs& args);
/// point-serve (net_rw = false) and net-rw (net_rw = true).
RunResult RunServing(const RunArgs& args, bool net_rw);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
