#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.h"

extern char** environ;

namespace perfbench {

using namespace neutraj;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

// -- Report -------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("check %-6s %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) {
    ++checks_failed_;
    Ops(1, 1);
  }
}

void Report::Header(const std::string& key, const std::string& value) {
  header_.emplace_back(key, value);
}

void Report::PrintHeader() const {
  std::string line = "header {";
  for (size_t i = 0; i < header_.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(header_[i].first) + ": " + JsonString(header_[i].second);
  }
  std::printf("%s}\n", line.c_str());
}

std::string Report::FinalLine() const {
  std::string line = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics_[i].name) + ": {\"value\": " +
            JsonNumber(metrics_[i].value) +
            ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  return line + "}}";
}

// -- Statistics ---------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

// -- Interference -------------------------------------------------------------

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  CpuTimes t;
  for (double x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

std::vector<size_t> Quietest(const std::vector<double>& steal, size_t k) {
  if (k == 0 || steal.empty()) return {};
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double limit = sorted[std::min(k, sorted.size()) - 1];
  std::vector<size_t> out;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= limit) out.push_back(i);
  }
  return out;
}

double QuietMedian(const std::vector<double>& values, const std::vector<double>& steal,
                   size_t k) {
  std::vector<double> quiet;
  for (size_t i : Quietest(steal, k)) quiet.push_back(values[i]);
  return Median(quiet);
}

// -- Inputs -------------------------------------------------------------------

TrajectoryDataset MakePorto(size_t n, uint64_t seed) {
  GeneratorConfig cfg = PortoLikeConfig(1.0);
  cfg.num_trajectories = n;
  cfg.seed = seed;
  cfg.road.seed = seed ^ 0x5bd1e995ull;
  return GeneratePortoLike(cfg);
}

NeuTrajModel MakeModel(const BoundingBox& region, uint64_t seed,
                       const std::string& path) {
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  NeuTrajModel model(cfg, Grid(region.Inflated(50.0), 100.0));
  Rng rng(seed);
  model.InitializeWeights(&rng);
  model.Save(path);
  return NeuTrajModel::Load(path);
}

Trajectory Head(const Trajectory& t, size_t n) {
  if (t.size() <= n) return t;
  return Trajectory(std::vector<Point>(t.begin(), t.begin() + static_cast<long>(n)));
}

void TruncateEach(std::vector<Trajectory>* trajs, size_t lo, size_t hi,
                  uint64_t seed) {
  Rng rng(seed);
  for (Trajectory& t : *trajs) {
    t = Head(t, static_cast<size_t>(
                    rng.UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi))));
  }
}

// -- Server process -----------------------------------------------------------

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

double ServerProcess::Start(const std::string& bin,
                            const std::vector<std::string>& args,
                            const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string port_file = dir + "/port";
  fs::remove(port_file);
  log_path_ = dir + "/server.log";

  std::vector<std::string> argv_s = {bin};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--port-file");
  argv_s.push_back(port_file);
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path_.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawn_file_actions_addclose(&actions, STDIN_FILENO);

  const Clock::time_point t0 = Clock::now();
  const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot launch " + bin);
  }

  while (true) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited during start-up; see " +
                               log_path_);
    }
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      port_ = static_cast<uint16_t>(port);
      break;
    }
    if (SecondsSince(t0) > 120.0) {
      throw std::runtime_error("server did not start within 120 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  serve::Client client = Connect(port_);
  health_ = client.Health();
  const double setup = SecondsSince(t0);
  if (!health_.ok || health_.status != "serving") {
    throw std::runtime_error("server unhealthy after start: " + health_.status);
  }
  return setup;
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

serve::Client Connect(uint16_t port) {
  serve::Client client;
  client.set_connect_timeout_ms(10000);
  client.set_io_timeout_ms(60000);
  client.Connect("127.0.0.1", port);
  return client;
}

std::map<std::string, double> StatsMap(serve::Client* client) {
  const serve::StatsSnapshot snap = client->Stats();
  return {snap.metrics.begin(), snap.metrics.end()};
}

namespace {
double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}
}  // namespace

Window HistWindow(const std::map<std::string, double>& before,
                  const std::map<std::string, double>& after,
                  const std::string& name) {
  const double c0 = Get(before, name + "/count");
  const double c1 = Get(after, name + "/count");
  Window w;
  w.count = c1 - c0;
  w.sum = c1 * Get(after, name + "/mean_us") - c0 * Get(before, name + "/mean_us");
  return w;
}

double Reconciliation::other_us() const {
  double staged = 0.0;
  for (const auto& [name, w] : stages) staged += w.sum;
  return total_us - staged / std::max(requests, 1.0);
}

double Reconciliation::stage_us(const std::string& stage) const {
  auto it = stages.find(stage);
  return it == stages.end() ? 0.0 : it->second.mean();
}

Reconciliation Reconcile(const std::map<std::string, double>& before,
                         const std::map<std::string, double>& after) {
  const std::string prefix = "reqtrace/stage/";
  const std::string suffix = "_us/count";
  Reconciliation r;
  const Window total = HistWindow(before, after, "reqtrace/total_us");
  r.requests = total.count;
  r.total_us = total.mean();
  for (const auto& [key, value] : after) {
    if (key.size() > prefix.size() + suffix.size() && key.rfind(prefix, 0) == 0 &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      const std::string stage =
          key.substr(prefix.size(), key.size() - prefix.size() - suffix.size());
      r.stages[stage] = HistWindow(before, after, prefix + stage + "_us");
    }
  }
  return r;
}

void PrintReconciliation(const Reconciliation& r, double client_mean_us) {
  std::printf("reconciliation over %.0f traced requests (us per request):\n", r.requests);
  for (const auto& [stage, w] : r.stages) {
    std::printf("  %-12s %10.1f   (%.0f spans of %.1f)\n", stage.c_str(),
                w.sum / std::max(r.requests, 1.0), w.count, w.mean());
  }
  std::printf("  %-12s %10.1f   (reqtrace total - stages)\n", "other", r.other_us());
  std::printf("  %-12s %10.1f   (client-observed - reqtrace total)\n", "unexplained",
              client_mean_us - r.total_us);
  std::printf("  %-12s %10.1f   = stages + other + unexplained\n", "client mean",
              client_mean_us);
}

double CounterDelta(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after,
                    const std::string& name) {
  return Get(after, name) - Get(before, name);
}

// -- Load phases --------------------------------------------------------------

PhaseResult RunOpenLoop(uint16_t port, double rate, double seconds, size_t threads,
                        const RequestFn& per_request) {
  std::vector<std::vector<Sample>> per_thread(threads);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const size_t total = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<std::thread> workers;
  for (size_t j = 0; j < threads; ++j) {
    workers.emplace_back([&, j] {
      serve::Client client;
      try {
        client = Connect(port);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "connect failed: %s\n", e.what());
      }
      for (size_t i = j; i < total; i += threads) {
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        bool ok = false;
        try {
          if (!client.connected()) client = Connect(port);
          ok = per_request(j, i, &client);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
        }
        const Clock::time_point done = Clock::now();
        Sample s;
        s.index = i;
        s.latency_us = std::chrono::duration<double, std::micro>(done - due).count();
        s.late_us = std::chrono::duration<double, std::micro>(sent - due).count();
        s.service_us = std::chrono::duration<double, std::micro>(done - sent).count();
        s.ok = ok;
        s.done_s = std::chrono::duration<double>(done - t0).count();
        per_thread[j].push_back(s);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  PhaseResult r;
  r.elapsed_s = SecondsSince(t0);
  for (auto& v : per_thread) r.samples.insert(r.samples.end(), v.begin(), v.end());
  return r;
}

PhaseResult RunClosedLoop(uint16_t port, double seconds, size_t threads,
                          const RequestFn& per_request) {
  std::vector<std::vector<Sample>> per_thread(threads);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (size_t j = 0; j < threads; ++j) {
    workers.emplace_back([&, j] {
      serve::Client client;
      for (size_t i = 0; Clock::now() < end; ++i) {
        const Clock::time_point sent = Clock::now();
        bool ok = false;
        try {
          if (!client.connected()) client = Connect(port);
          ok = per_request(j, i, &client);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
        }
        Sample s;
        s.index = i;
        s.service_us =
            std::chrono::duration<double, std::micro>(Clock::now() - sent).count();
        s.latency_us = s.service_us;
        s.ok = ok;
        s.done_s = SecondsSince(t0);
        per_thread[j].push_back(s);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  PhaseResult r;
  r.elapsed_s = SecondsSince(t0);
  for (auto& v : per_thread) r.samples.insert(r.samples.end(), v.begin(), v.end());
  return r;
}

Phase Collect(const std::vector<Sample>& samples) {
  Phase p;
  for (const Sample& s : samples) {
    ++p.attempted;
    if (!s.ok) {
      ++p.failed;
      continue;
    }
    p.latency.push_back(s.latency_us);
    p.late.push_back(s.late_us);
    p.service.push_back(s.service_us);
  }
  return p;
}

}  // namespace perfbench
