// Shared pieces of the partib end-to-end benchmark binary: the command
// line, the metric report (human table + one JSON line), the in-memory
// span tracer and a few timing helpers.  Everything here lives outside the
// library: the benchmark times calls into partib's public API from the
// caller's side.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test geometry: every workload shrunk to a few small partitions.
  bool tiny = false;
  /// Self-test: flip one received byte after this timed round (-1 = off)
  /// so the correctness check is seen to fire.
  long corrupt_round = -1;
  /// Chrome trace-event JSON written at exit of a traced run ("" = none).
  std::string trace_out;
};

// -- clocks -------------------------------------------------------------------
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// splitmix64: the benchmark's only source of seed-derived inputs.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Pins the calling thread to each CPU the process may use in turn, so a
/// run samples every CPU of a shared host instead of whichever one the
/// scheduler happened to place it on.  Restores the original mask on
/// destruction.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin to the (k mod n)-th of the n allowed CPUs.
  void pin(std::size_t k);

 private:
  std::vector<int> cpus_;
};

// -- report -------------------------------------------------------------------
/// Every metric a workload measured, by its catalog name (main.cpp holds
/// the catalog: name, unit, end-to-end or per-layer).  An untraced run's
/// JSON line carries every end-to-end metric, a traced run's every
/// per-layer metric; a metric a workload does not exercise reads 0 (only
/// runner.trial_share.* on the shm workloads).  The human table above the
/// JSON line shows everything that was set.
class Report {
 public:
  /// Record a metric; aborts on a name outside the catalog.
  void set(const std::string& name, double value);
  /// Free-form context line for the human table ("# ..." on stdout).
  void note(const std::string& line);

  /// One correctness violation (bad bytes, a non-ok Status, failed ops,
  /// a DES replay that differs).
  void violation(const std::string& what);

  std::uint64_t attempted = 0;

  /// Print the table and the final JSON line; returns the exit code
  /// (0 only when attempted >= 1 and nothing failed).
  int emit(bool trace) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> notes_;
  std::uint64_t failed_ = 0;
};

// -- tracing ------------------------------------------------------------------
/// In-memory span recorder: one span per call the benchmark makes into a
/// partib layer (name, start, end, parent), kept in a preallocated buffer
/// and written once, at exit, as Chrome trace-event JSON (opens in
/// Perfetto or chrome://tracing).  Spans past the capacity are counted,
/// not stored, so a long run keeps a bounded footprint.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t capacity = 50'000);

  bool enabled() const { return enabled_; }
  /// Allocate a span id (for parents that close after their children).
  std::uint32_t next_id() { return ++last_id_; }
  /// Record a finished span; returns its id.
  std::uint32_t span(const char* name, std::int64_t begin_ns,
                     std::int64_t end_ns, std::uint32_t parent = 0,
                     std::uint32_t id = 0);

  std::size_t dropped() const { return dropped_; }
  /// Write Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
    std::uint32_t id;
    std::uint32_t parent;
  };
  bool enabled_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint32_t last_id_ = 0;
  std::size_t dropped_ = 0;
  std::int64_t epoch_;
};

// -- workloads ----------------------------------------------------------------
/// shm_latency / shm_msgrate / shm_bulk.  Returns false for other names.
bool run_shm_workload(const Args& args, Tracer& tracer, Report& report);
/// des_sweep3d.
void run_des_workload(const Args& args, Tracer& tracer, Report& report);

}  // namespace perfbench
