// partib_perfbench: the end-to-end benchmark binary.
//
//   partib_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--tiny] [--corrupt-round K] [--trace-out FILE]
//
// Workloads: shm_latency, shm_msgrate, shm_bulk (real-time shared-memory
// backend) and des_sweep3d (the DES figure path).  The last line of stdout
// is one JSON object {correct, attempted, failed, metrics}; the lines above
// it are a human-readable table ("# name value unit").  Exit code 0 only
// when every round or trial verified.  perfbench/run.py builds and runs
// this binary; perfbench/README.md documents workloads and metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::pin(std::size_t k) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[k % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// The metric catalog; BENCHMARK.json lists the same names in the same
// order (perfbench/selftest.py checks the two agree).
constexpr MetricDef kCatalog[] = {
    // end to end (untraced runs)
    {"round_p50_us", "us", true},
    {"goodput_gbps", "GB/s", true},
    {"setup_s", "s", true},
    // per layer (traced runs)
    {"part.start_ns", "ns", false},
    {"part.pready_ns", "ns", false},
    {"part.test_ns", "ns", false},
    {"backend.drain_ns", "ns", false},
    {"backend.drain_cpu_ns", "ns", false},
    {"backend.idle_frac", "fraction", false},
    {"sim.events_per_round", "count", false},
    {"verbs.wrs_per_round", "count", false},
    {"transport.rdma_ops_per_round", "count", false},
    {"transport.control_msgs_per_round", "count", false},
    {"transport.payload_bytes_per_round", "B", false},
    {"round.unattributed_ns", "ns", false},
    {"round_p90_us", "us", false},
    {"round_p99_us", "us", false},
    {"trace.round_p50_us", "us", false},
    {"trace.overhead_frac", "fraction", false},
    {"floor.memcpy_ns", "ns", false},
    {"floor.ring_ns", "ns", false},
    {"floor_ratio", "ratio", false},
    {"ref.des_virtual_round_ns", "virtual_ns", false},
    {"virtual_comm_us", "virtual_us", false},
    {"agg.transport_partitions", "count", false},
    {"agg.qps", "count", false},
    {"setup.backend_ns", "ns", false},
    {"setup.world_ns", "ns", false},
    {"setup.buffers_ns", "ns", false},
    {"setup.init_ns", "ns", false},
    {"setup.handshake_ns", "ns", false},
    {"mem.peak_rss_mib", "MiB", false},
    {"runner.trial_share.4KiB.persistent", "fraction", false},
    {"runner.trial_share.4KiB.timer", "fraction", false},
    {"runner.trial_share.64KiB.persistent", "fraction", false},
    {"runner.trial_share.64KiB.timer", "fraction", false},
    {"runner.trial_share.1MiB.persistent", "fraction", false},
    {"runner.trial_share.1MiB.timer", "fraction", false},
    {"driver.cpu_frac", "fraction", false},
};

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& m : kCatalog) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (find_metric(name) == nullptr) {
    std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n",
                 name.c_str());
    std::abort();
  }
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::violation(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: correctness violation: %s\n",
               what.c_str());
}

int Report::emit(bool trace) const {
  auto value_of = [this](const char* name) -> const double* {
    for (const auto& [n, v] : values_) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  const double failed_frac =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed_) /
                           static_cast<double>(attempted);
  std::printf("# %-36s %s fraction\n", "failed_frac",
              number(failed_frac).c_str());
  for (const MetricDef& m : kCatalog) {
    if (const double* v = value_of(m.name)) {
      std::printf("# %-36s %s %s\n", m.name, number(*v).c_str(), m.unit);
    }
  }
  const bool correct = failed_ == 0 && attempted >= 1;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : kCatalog) {
    if (m.end_to_end == trace) continue;
    const double* v = value_of(m.name);
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + m.name + "\": {\"value\": " +
            number(v != nullptr ? *v : 0.0) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity), epoch_(wall_ns()) {
  if (enabled_) spans_.reserve(capacity_);
}

std::uint32_t Tracer::span(const char* name, std::int64_t begin_ns,
                           std::int64_t end_ns, std::uint32_t parent,
                           std::uint32_t id) {
  if (id == 0) id = next_id();
  if (spans_.size() < capacity_) {
    spans_.push_back({name, begin_ns, end_ns, id, parent});
  } else {
    ++dropped_;
  }
  return id;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << number(static_cast<double>(s.begin - epoch_) / 1000.0)
        << ", \"dur\": "
        << number(static_cast<double>(s.end - s.begin) / 1000.0)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n], \"otherData\": {\"dropped_spans\": " << dropped_ << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "partib_perfbench: %s\n"
               "usage: partib_perfbench --workload "
               "shm_latency|shm_msgrate|shm_bulk|des_sweep3d --seed N "
               "--seconds S --trace 0|1 [--tiny] [--corrupt-round K] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--corrupt-round") {
      a.corrupt_round = std::strtol(v, &end, 10);
      if (*end != '\0' || a.corrupt_round < 0) {
        usage("--corrupt-round takes a round index");
      }
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  if (args.workload == "des_sweep3d") {
    perfbench::run_des_workload(args, tracer, report);
  } else if (!perfbench::run_shm_workload(args, tracer, report)) {
    usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace && !args.trace_out.empty()) {
    if (tracer.write_chrome(args.trace_out)) {
      report.note("trace: " + std::to_string(tracer.dropped()) +
                  " spans past the buffer dropped; timeline in " +
                  args.trace_out);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  return report.emit(args.trace);
}
