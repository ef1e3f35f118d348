// perfbench binary: runs one workload, checks its outputs and prints the
// result line. Usage (normally through perfbench/run.py, which builds it):
//
//   perfbench --workload batch_large|serve_mix|serve_edit
//                    --seed N --seconds S --trace 0|1
//                    --serve-bin PATH [--trace-out PATH]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--serve-bin") {
      opt.serve_bin = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::cerr << "perfbench: unknown option " << key << '\n';
      return 2;
    }
  }
  perfbench::Report report;
  try {
    if (opt.trace) {
      perfbench::run_traced(opt, report);
    } else if (opt.workload == "batch_large") {
      perfbench::run_batch_large(opt, report);
    } else if (opt.workload == "serve_mix") {
      perfbench::run_serve_mix(opt, report);
    } else if (opt.workload == "serve_edit") {
      perfbench::run_serve_edit(opt, report);
    } else {
      std::cerr << "perfbench: unknown workload '" << opt.workload
                << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  // A printed result line carries the verdict ("correct"); the exit code
  // only reports whether the run produced one.
  report.print();
  return 0;
}
