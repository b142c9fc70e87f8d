// Shared types of the simulator benchmark (see README.md).
//
// A run executes one workload once at paper scale, then repeats a shorter
// version of it until its time budget is spent. Each repetition boots fresh
// testbeds, brackets "booted -> finished and verified" with a Span (host
// wall + process CPU time, and the SIGPROF sampler on traced repetitions),
// and returns its simulated results: the per-layer counters, a digest of
// every simulated statistic, and the operation / failure counts of its
// output checks.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace simbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Host-CPU sampler: SIGPROF program-counter samples of the whole process,
/// attributed after the run to the src/ module owning the innermost symbol.
/// At most one instance may exist at a time (the signal handler writes to
/// process-wide storage).
class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void resume();  // arms the process CPU-time interval timer
  void pause();
  std::uint64_t samples() const;
  /// `<module>.self_share` in percent for every module, summing to 100.
  std::vector<Metric> self_shares() const;
};

/// Inputs of one repetition. Everything a workload generates derives from
/// `seed`; `scale` is the repetition's size relative to paper scale, and
/// `paper_scale` the size of the run's paper-scale repetition (below 1 only
/// in the self-check).
struct RunOptions {
  std::uint64_t seed = 1;
  double scale = 1.0;
  double paper_scale = 1.0;
  bool traced = false;      // sampler on, plus simulated stage tracing
  bool corrupt_kv = false;  // self-check: poison one expected kv_real value
  Profiler* profiler = nullptr;

  bool paper() const { return scale >= paper_scale; }
  std::uint64_t scaled(std::uint64_t n) const { return at(n, scale); }
  std::uint64_t paper_scaled(std::uint64_t n) const { return at(n, paper_scale); }

 private:
  static std::uint64_t at(std::uint64_t n, double s) {
    const auto v = static_cast<std::uint64_t>(static_cast<double>(n) * s);
    return v < 1 ? 1 : v;
  }
};

/// Host wall and process CPU time over the measured span.
class Span {
 public:
  explicit Span(Profiler* profiler) : profiler_(profiler) {}
  void start();
  void stop();
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }

 private:
  Profiler* profiler_;
  std::chrono::steady_clock::time_point t0_;
  double cpu0_ = 0;
  double wall_s_ = 0;
  double cpu_s_ = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0);

/// FNV-1a over 64-bit words: the simulated-output digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct RepResult {
  /// Host times of the measured span. A workload that times several spans
  /// per repetition reports its fastest one.
  double wall_s = 0;
  double cpu_s = 0;
  /// Simulated events and seconds of the span `wall_s` measures.
  double span_events = 0;
  double span_sim_s = 0;
  /// Largest |simulated - paper| / paper, percent.
  double paper_dev_pct = 0;
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t digest = 0;
  std::vector<Metric> counters;  // deterministic per-layer counters
  std::vector<Metric> traced;    // traced repetitions only
};

struct Workload {
  const char* name;
  RepResult (*run)(const RunOptions&);
  /// Size of the timed repetitions relative to the paper-scale one.
  double timing_scale;
  /// Host seconds to construct and boot the workload's testbed(s), averaged
  /// over back-to-back boots that take `budget_s` in all.
  double (*setup_s)(double budget_s);
};

const std::vector<Workload>& workloads();

}  // namespace simbench
