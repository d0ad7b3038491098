// perfbench_main: runs one benchmark workload and prints its result.
//
//   perfbench_main --workload <table1-cold|serve|cem-smt> [--seed N]
//                  [--seconds S] [--trace 0|1] [--root DIR] [--work-dir DIR]
//
// The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The line before it is the run's conditions block, and the
// full document (conditions, sample counts, notes) is written to
// <work-dir>/results/<workload>-seed<N>-trace<T>.json. Exit status: 0 when
// every output check passed, 1 when a check failed (the result line says
// correct=false), 2 on a usage or runtime error (no result line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::json_num;
using perfbench::json_str;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_main: %s\nusage: perfbench_main --workload "
               "<table1-cold|serve|cem-smt> [--seed N] [--seconds S] "
               "[--trace 0|1] [--root DIR] [--work-dir DIR]\n",
               why.c_str());
  return 2;
}

std::string conditions_json(const perfbench::Conditions& c) {
  std::ostringstream os;
  os << "{\"nproc\": " << c.nproc
     << ", \"fmnet_threads\": " << json_str(c.fmnet_threads)
     << ", \"isa\": " << json_str(c.isa)
     << ", \"build_type\": " << json_str(c.build_type)
     << ", \"compiler\": " << json_str(c.compiler)
     << ", \"fmnet_fast\": " << (c.fmnet_fast ? "true" : "false")
     << ", \"scenario_hash\": " << json_str(c.scenario_hash)
     << ", \"seed\": " << c.seed << "}";
  return os.str();
}

std::string metrics_json(const std::vector<perfbench::Metric>& metrics,
                         bool with_samples) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    os << (i ? ", " : "") << json_str(m.name)
       << ": {\"value\": " << json_num(m.value)
       << ", \"unit\": " << json_str(m.unit);
    if (with_samples) os << ", \"samples\": " << m.samples;
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(flag + " requires a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--root") {
        o.root = value;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::WorkloadResult r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_main: %s\n", e.what());
    return 2;
  }
  for (const auto& f : r.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = r.check_failures.empty();
  const auto& metrics = o.trace ? r.per_layer : r.end_to_end;
  const perfbench::Conditions cond =
      perfbench::current_conditions(r.scenario_hash, o.seed);

  std::ostringstream doc;
  doc << "{\"workload\": " << json_str(o.workload)
      << ", \"seed\": " << o.seed << ", \"seconds\": " << json_num(o.seconds)
      << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"conditions\": " << conditions_json(cond)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": " << metrics_json(metrics, true) << ", \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : r.notes) {
    doc << (first ? "" : ", ") << json_str(k) << ": " << json_str(v);
    first = false;
  }
  doc << "}, \"check_failures\": [";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    doc << (i ? ", " : "") << json_str(r.check_failures[i]);
  }
  doc << "]}\n";
  try {
    const std::filesystem::path dir =
        std::filesystem::path(o.work_dir) / "results";
    std::filesystem::create_directories(dir);
    const auto path = dir / (o.workload + "-seed" + std::to_string(o.seed) +
                             "-trace" + (o.trace ? "1" : "0") + ".json");
    std::ofstream(path) << doc.str();
    std::fprintf(stderr, "perfbench_main: wrote %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_main: %s\n", e.what());
    return 2;
  }

  std::cout << "conditions: " << conditions_json(cond) << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metrics_json(metrics, false) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
