// des_sweep3d: the paper's Sweep3D pattern (Fig 14) on the DES backend,
// through the public figure-trial path bench::run_sweep_grid, one trial at
// a time, inline on this thread (jobs = 1) and with no result cache.
//
// The grid is {4 KiB, 64 KiB, 1 MiB} x {persistent baseline, timer-PLogGP
// with delta = 35 us} at 8 x 8 ranks x 16 partitions.  A run repeats whole
// passes over the grid until --seconds have elapsed, so every run measures
// the same mix of cells.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agg/strategies.hpp"
#include "backend/backend.hpp"
#include "bench/sweep.hpp"
#include "bench/trial.hpp"
#include "common/units.hpp"
#include "model/loggp.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "perfbench.hpp"
#include "rounds.hpp"

namespace perfbench {
namespace {

using namespace partib;

struct Cell {
  std::size_t bytes;
  const char* size_name;
  bool timer;
  const char* design() const { return timer ? "timer" : "persistent"; }
};

constexpr Cell kGrid[] = {
    {4 * KiB, "4KiB", false},  {4 * KiB, "4KiB", true},
    {64 * KiB, "64KiB", false}, {64 * KiB, "64KiB", true},
    {1 * MiB, "1MiB", false},  {1 * MiB, "1MiB", true},
};

bench::SweepConfig make_config(const Cell& cell, const Args& args) {
  bench::SweepConfig cfg;
  cfg.px = args.tiny ? 2 : 8;
  cfg.py = cfg.px;
  cfg.threads = args.tiny ? 4 : 16;
  cfg.message_bytes = cell.bytes;
  part::Options o;
  if (cell.timer) {
    o.aggregator = std::make_shared<agg::TimerPLogGPAggregator>(
        model::LogGPParams::niagara_mpi_measured(), usec(35));
  } else {
    o.aggregator = std::make_shared<agg::PersistentBaseline>();
  }
  cfg.options = o;
  cfg.compute = msec(1);
  cfg.noise = 0.01;
  cfg.warmup = args.tiny ? 1 : 2;
  cfg.iterations = args.tiny ? 2 : 58;
  // Non-zero, so the runner uses it instead of deriving one.
  cfg.seed = mix64(args.seed) | 1u;
  return cfg;
}

/// Channels per iteration in a px x py sweep: every east and south edge.
std::size_t channel_count(const bench::SweepConfig& cfg) {
  return static_cast<std::size_t>((cfg.px - 1) * cfg.py +
                                  cfg.px * (cfg.py - 1));
}

/// The Sweep3D geometry through the public API: DES backend, the px*py-rank
/// world, one shared buffer (payload copies are off, as in
/// bench::run_sweep) and every east/south psend/precv channel.  Members
/// are declared in construction order, so destruction runs backwards.
struct SweepWorld {
  std::unique_ptr<backend::Backend> be;
  std::unique_ptr<mpi::World> world;
  std::unique_ptr<PageBuffer> buffer;
  std::vector<std::unique_ptr<part::PsendRequest>> sends;
  std::vector<std::unique_ptr<part::PrecvRequest>> recvs;
  Endpoints ep;
};

/// The set-up a Sweep3D trial pays before its first iteration, marking
/// each phase.  Returns nullptr after a violation.
std::unique_ptr<SweepWorld> open_sweep(const bench::SweepConfig& cfg,
                                       SetupMarks* marks, Report& report) {
  auto sw = std::make_unique<SweepWorld>();
  marks->mark();
  backend::Config bc;
  bc.copy_data = false;
  sw->be = backend::make_backend("des", bc);
  marks->mark();
  if (sw->be == nullptr) {
    report.violation("backend des missing");
    return nullptr;
  }
  mpi::WorldOptions wo = cfg.world;
  wo.ranks = cfg.px * cfg.py;
  wo.copy_data = false;
  sw->world = std::make_unique<mpi::World>(*sw->be, wo);
  marks->mark();
  sw->buffer = std::make_unique<PageBuffer>(cfg.message_bytes);
  marks->mark();
  bool inits_ok = true;
  for (int y = 0; y < cfg.py; ++y) {
    for (int x = 0; x < cfg.px; ++x) {
      const int id = y * cfg.px + x;
      mpi::Rank& rank = sw->world->rank(id);
      auto add_send = [&](int dst, int tag) {
        auto& s = sw->sends.emplace_back();
        inits_ok &= ok(part::psend_init(rank, sw->buffer->span(), cfg.threads,
                                        dst, tag, 0, cfg.options, &s));
      };
      auto add_recv = [&](int src, int tag) {
        auto& r = sw->recvs.emplace_back();
        inits_ok &= ok(part::precv_init(rank, sw->buffer->span(), cfg.threads,
                                        src, tag, 0, cfg.options, &r));
      };
      if (x + 1 < cfg.px) add_send(id + 1, 0);
      if (y + 1 < cfg.py) add_send(id + cfg.px, 1);
      if (x > 0) add_recv(id - 1, 0);
      if (y > 0) add_recv(id - cfg.px, 1);
    }
  }
  marks->mark();
  sw->be->run_until_idle();
  marks->mark();
  for (const auto& s : sw->sends) {
    inits_ok &= s != nullptr && s->handshake_done();
    if (s != nullptr) sw->ep.sends.push_back(s.get());
  }
  for (const auto& r : sw->recvs) {
    if (r != nullptr) sw->ep.recvs.push_back(r.get());
  }
  sw->ep.partitions = cfg.threads;
  if (!inits_ok) {
    report.violation("sweep geometry set-up failed");
    return nullptr;
  }
  return sw;
}

bool same_result(const bench::SweepResult& a, const bench::SweepResult& b) {
  return a.total_time == b.total_time &&
         a.compute_on_path == b.compute_on_path && a.comm_time == b.comm_time;
}

}  // namespace

void run_des_workload(const Args& args, Tracer& tr, Report& report) {
  constexpr std::size_t kCells = std::size(kGrid);
  std::vector<bench::SweepConfig> configs;
  for (const Cell& c : kGrid) configs.push_back(make_config(c, args));

  // Set-up of the 64 KiB timer cell's geometry, repeated (SetupLedger)
  // at the start and after every pass.  The first world carries the
  // geometry rounds and lives to the end of the run; the later ones are
  // torn down at once.
  const bench::SweepConfig& geo_cfg = configs[3];
  SetupLedger setups(args.tiny);
  std::unique_ptr<SweepWorld> sw;
  auto top_up_setups = [&]() -> bool {
    while (setups.owes(wall_ns())) {
      SetupMarks marks;
      std::unique_ptr<SweepWorld> fresh = open_sweep(geo_cfg, &marks, report);
      if (fresh == nullptr) return false;
      setups.add(marks, tr);
      if (sw == nullptr) sw = std::move(fresh);
    }
    return true;
  };
  if (!top_up_setups()) return;

  // Geometry rounds: every channel of that world started, every partition
  // Pready'd, the engine run to quiescence -- the same round code as the
  // shm workloads.  They give the per-layer split of simulating one
  // communication round (bench::run_sweep keeps its engine private), its
  // virtual duration, and the floors for its payload.
  constexpr int kGeometryRounds = 10;
  const Counters before = read_counters(*sw->be, sw->ep);
  std::vector<double> geo_wall, geo_virtual;
  RoundLedger ledger;
  const int geometry_rounds = (args.trace ? 2 : 1) * kGeometryRounds;
  for (int r = 0; r < geometry_rounds; ++r) {
    const bool traced = r >= kGeometryRounds;
    Phases ph;
    const std::uint32_t id = traced ? tr.next_id() : 0;
    const Time v0 = sw->be->now();
    const std::int64_t t0 = wall_ns();
    const bool done =
        drive_round(*sw->be, sw->ep, traced ? &ph : nullptr, tr, id);
    const std::int64_t t1 = wall_ns();
    if (!done) {
      report.violation("sweep geometry round did not complete");
      return;
    }
    if (traced) {
      tr.span("round", t0, t1, 0, id);
      ledger.add(t1 - t0, ph);
    } else {
      geo_wall.push_back(static_cast<double>(t1 - t0));
      geo_virtual.push_back(static_cast<double>(sw->be->now() - v0));
    }
  }
  const double wrs =
      report_counters(report, before, read_counters(*sw->be, sw->ep),
                      static_cast<double>(geometry_rounds));
  ledger.report(report);
  if (ledger.rounds() > 0) {
    report.set("trace.round_p50_us", ledger.round_p50() / 1e3);
    report.set("trace.overhead_frac",
               ledger.round_p50() / median(geo_wall) - 1.0);
  }
  report.set("ref.des_virtual_round_ns", median(geo_virtual));
  {
    const std::size_t payload =
        channel_count(geo_cfg) * geo_cfg.message_bytes;
    PageBuffer src(payload);
    PageBuffer dst(payload);
    report_floors(report, dst.data(), src.data(), payload, wrs,
                  median(geo_wall));
  }

  runner::RunOptions run_opts;
  run_opts.jobs = 1;         // inline on this thread
  run_opts.cache = nullptr;  // every trial simulated

  // Whole passes over the grid until the time is up.  Two independent
  // figures come out of them.  A "round" is one simulated Sweep3D
  // iteration: each cell's per-iteration wall time is the median across
  // passes, and round_p50_us is the geometric mean over the cells, so a
  // cell that gets k times faster moves it by k^(1/6) whatever its share
  // of the wall.  Goodput is simulated payload bytes over the pass's
  // summed wall time, the median across passes; the slow persistent cells
  // dominate it.  A traced run adds one span per trial and per pass.
  std::vector<bench::SweepResult> first(kCells);
  std::vector<std::vector<double>> cell_ms(kCells);
  std::vector<std::vector<double>> cell_iter_ns(kCells);  // wall / iteration
  std::vector<double> goodput, rate;  // one entry per pass
  double wall_sum = 0, cpu_sum = 0;
  const auto seconds_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t deadline = wall_ns() + seconds_ns;
  int passes = 0;
  // Trial c of pass p runs pinned to allowed CPU (p + c) mod n, so every
  // cell visits each CPU of a shared host in turn.
  CpuRotation rotation;
  for (; passes == 0 || wall_ns() < deadline; ++passes) {
    const std::uint32_t pass_id = tr.enabled() ? tr.next_id() : 0;
    const std::int64_t pass_t0 = wall_ns();
    double pass_wall = 0, pass_iters = 0, pass_bytes = 0;
    for (std::size_t c = 0; c < kCells; ++c) {
      const bench::SweepConfig& cfg = configs[c];
      rotation.pin(static_cast<std::size_t>(passes) + c);
      runner::RunStats stats;
      const std::int64_t cpu0 = thread_cpu_ns();
      const std::int64_t t0 = wall_ns();
      const std::vector<bench::SweepResult> res =
          bench::run_sweep_grid({cfg}, run_opts, &stats);
      const std::int64_t t1 = wall_ns();
      cpu_sum += static_cast<double>(thread_cpu_ns() - cpu0);
      if (tr.enabled()) tr.span("runner.run_sweep_grid", t0, t1, pass_id);
      ++report.attempted;
      const double wall = static_cast<double>(t1 - t0);
      const auto iters = static_cast<double>(cfg.iterations + cfg.warmup);
      wall_sum += wall;
      cell_ms[c].push_back(wall / 1e6);
      pass_wall += wall;
      pass_iters += iters;
      pass_bytes += iters * static_cast<double>(channel_count(cfg) *
                                                cfg.message_bytes);
      cell_iter_ns[c].push_back(wall / iters);
      const std::string what = std::string("sweep ") + kGrid[c].size_name +
                               " " + kGrid[c].design();
      if (res.size() != 1 || stats.executed != 1 || res[0].comm_time <= 0) {
        report.violation(what + ": trial did not run or comm time <= 0");
        continue;
      }
      if (passes == 0) {
        first[c] = res[0];
      } else if (!same_result(first[c], res[0])) {
        report.violation(what + ": replay gave different virtual results");
      }
    }
    if (tr.enabled()) tr.span("runner.pass", pass_t0, wall_ns(), 0, pass_id);
    if (!top_up_setups()) return;
    goodput.push_back(pass_bytes / pass_wall);  // B/ns == GB/s
    rate.push_back(pass_iters / (pass_wall / 1e9));
  }
  if (passes == 1) {
    // Too short for a second pass: replay one cell so determinism is
    // still checked.
    runner::RunStats stats;
    const auto again = bench::run_sweep_grid({configs[0]}, run_opts, &stats);
    if (again.size() != 1 || stats.executed != 1 ||
        !same_result(first[0], again[0])) {
      report.violation("sweep replay gave different virtual results");
    }
  }

  setups.report(report);

  // Geometric mean over the cells of one quantile of the cell's
  // per-iteration wall time.
  auto cells_geomean_us = [&cell_iter_ns](double q) {
    double log_sum = 0;
    for (const std::vector<double>& ns : cell_iter_ns) {
      log_sum += std::log(quantile(ns, q));
    }
    return std::exp(log_sum / static_cast<double>(cell_iter_ns.size())) / 1e3;
  };
  report.set("round_p50_us", cells_geomean_us(0.5));
  report.set("round_p90_us", cells_geomean_us(0.9));
  report.set("round_p99_us", cells_geomean_us(0.99));
  report.set("goodput_gbps", median(goodput));
  // Table only: every pass simulates the same iterations and bytes, so in
  // the JSON line this would be goodput_gbps times a constant.
  char rate_line[96];
  std::snprintf(rate_line, sizeof(rate_line), "%-36s %.6g 1/s",
                "sim_iters_per_s", median(rate));
  report.note(rate_line);
  report.set("driver.cpu_frac", cpu_sum / wall_sum);

  double virtual_us = 0, tps = 0, qps = 0, grid_ms = 0;
  for (const std::vector<double>& ms : cell_ms) grid_ms += median(ms);
  for (std::size_t c = 0; c < kCells; ++c) {
    const bench::SweepConfig& cfg = configs[c];
    const double comm_us = static_cast<double>(first[c].comm_time) /
                           static_cast<double>(cfg.iterations) / 1e3;
    const agg::Plan plan =
        cfg.options.aggregator->plan(cfg.threads, cfg.message_bytes);
    virtual_us += comm_us;
    tps += static_cast<double>(plan.transport_partitions);
    qps += static_cast<double>(plan.qp_count);
    const double ms = median(cell_ms[c]);
    report.set(std::string("runner.trial_share.") + kGrid[c].size_name + "." +
                   kGrid[c].design(),
               ms / grid_ms);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "sweep %-5s %-10s: %.1f us virtual comm per iteration, "
                  "%.1f ms wall per trial, plan %zu TP x %d QP",
                  kGrid[c].size_name, kGrid[c].design(), comm_us, ms,
                  plan.transport_partitions, plan.qp_count);
    report.note(line);
  }
  report.set("virtual_comm_us", virtual_us / kCells);
  report.set("agg.transport_partitions", tps / kCells);
  report.set("agg.qps", qps / kCells);
  report.set("mem.peak_rss_mib", peak_rss_mib());
  report.note("des_sweep3d: " + std::to_string(passes) + " passes over " +
              std::to_string(kCells) + " cells");
}

}  // namespace perfbench
