// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload search|ingest|offline --seed N --seconds S
//             --trace 0|1 --server PATH --work-dir DIR [--smoke]
//
// Prints a human-readable report, a `header {...}` line describing the run,
// and as its last line one JSON object with the run's metrics. Exits 0 only
// when every output check passed. run.py builds this program and is the
// command to use; see README.md.

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using namespace perfbench;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--server") o.server_bin = value();
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--smoke") o.smoke = true;
    else throw std::runtime_error("unknown argument " + a);
  }
  if (o.workload.empty() || o.work_dir.empty()) {
    throw std::runtime_error("--workload and --work-dir are required");
  }
  if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = ParseArgs(argc, argv);
    Report report;
    report.Header("workload", opts.workload);
    report.Header("seed", std::to_string(opts.seed));
    report.Header("trace", opts.trace ? "1" : "0");
    report.Header("seconds", std::to_string(opts.seconds));
    report.Header("smoke", opts.smoke ? "1" : "0");
    report.Header("nproc", std::to_string(opts.nproc));
    report.Header("cpu_model", CpuModel());
    report.Header("int8_kernel", neutraj::retrieval::QuantizedKernelName());
    report.Header("compiler", __VERSION__);
    report.Header("placement",
                  "load generator and server share the same " +
                      std::to_string(opts.nproc) + " cores");

    const CpuTimes start = ReadCpuTimes();
    if (opts.workload == "search") {
      RunSearch(opts, &report);
    } else if (opts.workload == "ingest") {
      RunIngest(opts, &report);
    } else if (opts.workload == "offline") {
      report.Header("server_flags", "none (in-process)");
      RunOffline(opts, &report);
    } else {
      throw std::runtime_error("unknown workload " + opts.workload);
    }
    std::printf("cpu steal during the run: %.1f%% of machine time\n",
                100.0 * StealShare(start, ReadCpuTimes()));
    report.PrintHeader();
    std::printf("%s\n", report.FinalLine().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
