// Shared pieces of the repository benchmark: run options, the result
// report, sample statistics, the server child process and the load
// generator's schedule.
//
// The benchmark measures the program from outside. Serving workloads run
// the real neutraj_server binary as a child process and talk to it over
// loopback with the library's Client; the offline workload calls the
// library's public functions in-process. Nothing here adds tracing inside
// src/: per-layer numbers come from timing calls into public functions and
// from the server's own Stats and TraceDump endpoints.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "neutraj.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured time of the run.
  bool trace = false;     ///< Traced run: per-layer metrics instead of end-to-end.
  bool smoke = false;     ///< Small inputs, for the self-tests only.
  std::string server_bin;
  std::string work_dir;   ///< Scratch directory owned by this run.
  size_t nproc = 1;       ///< Cores of the machine; threads and connections cap.
};

/// Collects metrics, checks and operation counts of one run and renders the
/// final JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a named output check. A failed check makes the run incorrect
  /// and counts as one failed operation.
  void Check(bool ok, const std::string& what);
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// One header field, printed with every result (see PrintHeader).
  void Header(const std::string& key, const std::string& value);

  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

  void PrintHeader() const;
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string FinalLine() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> header_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int checks_failed_ = 0;
};

// -- Sample statistics --------------------------------------------------------

/// Linear-interpolated percentile, p in [0, 1]; 0 for no samples.
double Percentile(std::vector<double> v, double p);
inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }
double Mean(const std::vector<double>& v);

// -- Interference -------------------------------------------------------------

/// Machine-wide CPU time so far, in clock ticks, from /proc/stat.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;  ///< Time the hypervisor ran another guest instead.
};
CpuTimes ReadCpuTimes();

/// Share of the machine's time between two readings that was stolen.
double StealShare(const CpuTimes& from, const CpuTimes& to);

/// Indices of the `k` measurements taken under the least CPU steal, plus
/// any that tie with the k-th (short measurements often all read 0), in
/// the order they were taken. On a shared virtual machine another tenant's
/// load slows every core for seconds to minutes at a time; choosing
/// measurements by the steal the kernel recorded during each, not by their
/// values, keeps those spells out of the figure without favouring fast
/// results.
std::vector<size_t> Quietest(const std::vector<double>& steal, size_t k);

/// Median of the values at Quietest(steal, k).
double QuietMedian(const std::vector<double>& values, const std::vector<double>& steal,
                   size_t k);

// -- Inputs -------------------------------------------------------------------

/// Porto-like corpus of `n` trajectories drawn from `seed`.
neutraj::TrajectoryDataset MakePorto(size_t n, uint64_t seed);

/// A randomly initialised d=32 NeuTraj model over `region`, saved to `path`
/// and loaded back, so the benchmark embeds with exactly the bytes the
/// server loads.
neutraj::NeuTrajModel MakeModel(const neutraj::BoundingBox& region,
                                uint64_t seed, const std::string& path);

/// The first `n` points of `t` (all of it when shorter).
neutraj::Trajectory Head(const neutraj::Trajectory& t, size_t n);

/// Cuts each trajectory to a length drawn uniformly from [lo, hi] (never
/// longer than it already is).
void TruncateEach(std::vector<neutraj::Trajectory>* trajs, size_t lo,
                  size_t hi, uint64_t seed);

// -- The server child process -------------------------------------------------

/// neutraj_server running as a child process. Destruction kills and reaps
/// a server that was not stopped.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `bin` with `args` plus a port file in `dir`, and blocks until
  /// the first OK Health reply. Returns launch-to-healthy seconds.
  double Start(const std::string& bin, const std::vector<std::string>& args,
               const std::string& dir);

  /// SIGTERM (graceful drain) and wait; returns the exit status (0 = clean).
  int Stop();

  uint16_t port() const { return port_; }
  const neutraj::serve::HealthResponse& health() const { return health_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  neutraj::serve::HealthResponse health_;
  std::string log_path_;
};

/// A connected client with bounded connect and I/O waits, so a stuck server
/// fails the run instead of hanging it.
neutraj::serve::Client Connect(uint16_t port);

/// Flattened server registry as a map.
std::map<std::string, double> StatsMap(neutraj::serve::Client* client);

/// A histogram's (count, sum) between two registry snapshots; `name` is the
/// registry name without the /count or /mean_us suffix.
struct Window {
  double count = 0.0;
  double sum = 0.0;
  double mean() const { return count > 0.0 ? sum / count : 0.0; }
};
Window HistWindow(const std::map<std::string, double>& before,
                  const std::map<std::string, double>& after,
                  const std::string& name);
/// The server's request-trace breakdown between two registry snapshots:
/// every traced request's total and each stage's spans.
struct Reconciliation {
  double requests = 0.0;                 ///< Traced requests in the window.
  double total_us = 0.0;                 ///< Mean reqtrace total per request.
  std::map<std::string, Window> stages;  ///< Spans per stage name.
  /// Mean time per request inside no stage: total - sum of stage time.
  double other_us() const;
  /// Mean span length of `stage`; 0 when the window has none.
  double stage_us(const std::string& stage) const;
};
Reconciliation Reconcile(const std::map<std::string, double>& before,
                         const std::map<std::string, double>& after);

/// Prints each stage's time per request, `other`, `unexplained` (client
/// mean - reqtrace total) and the client mean they add up to.
void PrintReconciliation(const Reconciliation& r, double client_mean_us);

/// A counter's increase between two snapshots.
double CounterDelta(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after,
                    const std::string& name);

// -- Load phases --------------------------------------------------------------

/// One timed request of a load phase.
struct Sample {
  size_t index = 0;         ///< Request number within the phase.
  double latency_us = 0.0;  ///< From the scheduled send time to the reply.
  double late_us = 0.0;     ///< Actual send time minus scheduled send time.
  double service_us = 0.0;  ///< From the actual send to the reply.
  double done_s = 0.0;      ///< Reply time, seconds since the phase began.
  bool ok = false;
};

/// The samples of one load phase and its wall time.
struct PhaseResult {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;
};

/// Sends one request on `client`; returns false or throws on failure.
/// Runs on the sending thread and times nothing itself.
using RequestFn = std::function<bool(size_t thread, size_t index,
                                     neutraj::serve::Client* client)>;

/// Open loop: request i is due at i / `rate` seconds into the phase, for
/// `seconds`, spread over `threads` threads that each own a connection
/// (thread j sends requests j, j + threads, ...). A thread whose previous
/// request is still running sends late; latency counts from the scheduled
/// time, so a stall is charged to every request it delays.
PhaseResult RunOpenLoop(uint16_t port, double rate, double seconds, size_t threads,
                        const RequestFn& per_request);

/// Runs `per_request` back to back on `threads` threads, each with its own
/// connection, until `seconds` have passed: every caller waits for its
/// reply before sending again. Latencies are send-to-reply; `index` counts
/// per thread.
PhaseResult RunClosedLoop(uint16_t port, double seconds, size_t threads,
                          const RequestFn& per_request);

/// A phase's successful samples, field by field, and its operation counts.
struct Phase {
  std::vector<double> latency, late, service;
  uint64_t attempted = 0, failed = 0;
};
Phase Collect(const std::vector<Sample>& samples);

// -- Workloads ----------------------------------------------------------------

void RunSearch(const Options& opts, Report* report);
void RunIngest(const Options& opts, Report* report);
void RunOffline(const Options& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
