// perfbench_zidian: runs one benchmark workload and prints, as its last
// line, one JSON object with the keys correct, attempted, failed and
// metrics. Lines before it start with '#' and give context.
//
//   perfbench_zidian --workload olap|point-serve|net-rw --seed N
//                    --seconds S --trace 0|1 [--trace-dir DIR]
//
// Exit status: 0 when every answer check passed, 1 when one failed, 2 on
// a usage error or a refused configuration.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_zidian: %s\nusage: perfbench_zidian --workload "
               "olap|point-serve|net-rw --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.trace_dir = ".bench_build/trace";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  // A cluster built with capacity_bytes = 0 picks its BlockCache size up
  // from this variable, which would silently turn olap into a cached
  // workload and change every serving configuration.
  if (std::getenv("ZIDIAN_BLOCK_CACHE_BYTES") != nullptr) {
    return Usage("refusing to run with ZIDIAN_BLOCK_CACHE_BYTES set");
  }

  perfbench::RunResult result;
  if (args.workload == "olap") {
    result = perfbench::RunOlap(args);
  } else if (args.workload == "point-serve") {
    result = perfbench::RunServing(args, false);
  } else if (args.workload == "net-rw") {
    result = perfbench::RunServing(args, true);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  std::printf("# build: compiler %s, build type %s, nproc %u\n", __VERSION__,
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  std::printf("# run: workload %s, seed %llu, seconds %g, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const std::string& n : result.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& e : result.errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("# %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
