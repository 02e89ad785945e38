// The three shared-memory workloads: one two-rank Psend/Precv channel on
// the real-time shm backend, driven closed-loop by this thread (the next
// round starts only after the previous one completed and verified).
//
//   shm_latency  32 x 256 B,   PLogGP plan (1 transport partition)
//   shm_msgrate 128 x 1 KiB,   static plan: 128 transport partitions / 4 QPs
//   shm_bulk     32 x 128 KiB, PLogGP plan (4 WRs of 1 MiB)
//
// A round is timed from the first start() until every test() is true; the
// payload fill and the byte-for-byte verification sit outside it.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agg/strategies.hpp"
#include "backend/backend.hpp"
#include "common/units.hpp"
#include "model/loggp.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "perfbench.hpp"
#include "rounds.hpp"

namespace perfbench {
namespace {

using namespace partib;

struct Geometry {
  std::size_t partitions;
  std::size_t partition_bytes;
  /// One transport partition per user partition over 4 QPs (msgrate);
  /// otherwise the PLogGP planner chooses.
  bool static_plan;
  std::size_t bytes() const { return partitions * partition_bytes; }
};

std::optional<Geometry> geometry(const std::string& workload, bool tiny) {
  if (workload == "shm_latency") {
    return tiny ? Geometry{4, 64, false} : Geometry{32, 256, false};
  }
  if (workload == "shm_msgrate") {
    return tiny ? Geometry{8, 64, true} : Geometry{128, 1 * KiB, true};
  }
  if (workload == "shm_bulk") {
    return tiny ? Geometry{4, 4 * KiB, false}
                : Geometry{32, 128 * KiB, false};
  }
  return std::nullopt;
}

part::Options options_for(const Geometry& g) {
  part::Options o;
  if (g.static_plan) {
    o.aggregator = std::make_shared<agg::StaticAggregator>(g.partitions, 4);
  } else {
    o.aggregator = std::make_shared<agg::PLogGPAggregator>(
        model::LogGPParams::niagara_mpi_measured());
  }
  return o;
}

/// One send/receive pair and everything it runs on.  Members are declared
/// in construction order, so destruction releases the requests before the
/// buffers they registered and the world before its backend.
struct Channel {
  std::unique_ptr<backend::Backend> be;
  std::unique_ptr<mpi::World> world;
  std::unique_ptr<PageBuffer> sbuf;
  std::unique_ptr<PageBuffer> rbuf;
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  Endpoints ep;
};

/// Build a channel on `backend_name`, marking each set-up phase.  Returns
/// nullptr (after reporting a violation) when any step fails.
std::unique_ptr<Channel> open_channel(const char* backend_name,
                                      const Geometry& g, SetupMarks* marks,
                                      Report& report) {
  auto ch = std::make_unique<Channel>();
  marks->mark();
  ch->be = backend::make_backend(backend_name);
  marks->mark();
  if (ch->be == nullptr) {
    report.violation(std::string("backend ") + backend_name + " missing");
    return nullptr;
  }
  ch->world = std::make_unique<mpi::World>(*ch->be, mpi::WorldOptions{});
  marks->mark();
  ch->sbuf = std::make_unique<PageBuffer>(g.bytes());
  ch->rbuf = std::make_unique<PageBuffer>(g.bytes());
  marks->mark();
  const part::Options opts = options_for(g);
  const Status s_init = part::psend_init(ch->world->rank(0), ch->sbuf->span(),
                                         g.partitions, /*dst=*/1, /*tag=*/0,
                                         /*comm=*/0, opts, &ch->send);
  const Status r_init = part::precv_init(ch->world->rank(1), ch->rbuf->span(),
                                         g.partitions, /*src=*/0, /*tag=*/0,
                                         /*comm=*/0, opts, &ch->recv);
  marks->mark();
  if (!ok(s_init) || !ok(r_init)) {
    report.violation(std::string("psend_init/precv_init: ") +
                     to_string(s_init) + "/" + to_string(r_init));
    return nullptr;
  }
  ch->be->run_until_idle();
  marks->mark();
  if (!ch->send->handshake_done()) {
    report.violation("channel handshake did not complete");
    return nullptr;
  }
  ch->ep = {{ch->send.get()}, {ch->recv.get()}, g.partitions};
  return ch;
}

/// Per 0.5 s block of timed rounds: the round percentiles, and goodput as
/// the block's payload bytes over its summed round time.  The percentiles
/// are reported as the median across blocks, so a burst of interference
/// from outside the process moves only the blocks it overlaps.  Goodput is
/// a mean within its block, so every stall a round takes counts in it,
/// while round_p50_us ignores them.  It is reported as the upper quartile
/// across blocks: on shm_latency the share of rounds that take a second
/// idle-backoff sleep follows the host's load, and the upper quartile
/// repeated from run to run several times more closely than the median
/// (perfbench/README.md, "Steadiness").
class BlockStats {
 public:
  void add(const std::vector<double>& round_ns, std::size_t bytes) {
    if (round_ns.empty()) return;
    p50_.push_back(quantile(round_ns, 0.5));
    p90_.push_back(quantile(round_ns, 0.9));
    double sum_ns = 0;
    for (const double ns : round_ns) sum_ns += ns;
    goodput_.push_back(static_cast<double>(bytes) *
                       static_cast<double>(round_ns.size()) / sum_ns);  // B/ns
  }

  void report(Report& report) const {
    report.set("round_p50_us", median(p50_) / 1e3);
    report.set("round_p90_us", median(p90_) / 1e3);
    report.set("goodput_gbps", quantile(goodput_, 0.75));
  }

 private:
  std::vector<double> p50_, p90_, goodput_;
};

/// Seed-derived payload, computed rather than stored so the pattern adds
/// nothing to the working set: word i of round r is
/// (seed word ^ i * K), inverted on odd rounds.  Consecutive rounds differ
/// in every byte, so a byte not delivered in the current round never
/// verifies.
class Payload {
 public:
  explicit Payload(std::uint64_t seed) : seed_word_(mix64(seed)) {}

  void fill(std::byte* dst, std::size_t bytes, std::uint64_t round) const {
    const std::uint64_t flip = flip_for(round);
    for (std::size_t i = 0; i < bytes / 8; ++i) {
      const std::uint64_t w = word(i) ^ flip;
      std::memcpy(dst + 8 * i, &w, 8);
    }
  }

  bool matches(const std::byte* src, std::size_t bytes,
               std::uint64_t round) const {
    const std::uint64_t flip = flip_for(round);
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < bytes / 8; ++i) {
      std::uint64_t w;
      std::memcpy(&w, src + 8 * i, 8);
      diff |= w ^ word(i) ^ flip;
    }
    return diff == 0;
  }

 private:
  static std::uint64_t flip_for(std::uint64_t round) {
    return (round & 1) != 0 ? ~std::uint64_t{0} : 0;
  }
  std::uint64_t word(std::size_t i) const {
    return seed_word_ ^ (static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull);
  }

  std::uint64_t seed_word_;
};

}  // namespace

bool run_shm_workload(const Args& args, Tracer& tr, Report& report) {
  const std::optional<Geometry> geo = geometry(args.workload, args.tiny);
  if (!geo) return false;
  const Geometry g = *geo;
  const std::size_t bytes = g.bytes();
  const Payload payload(args.seed);

  // Set-up, repeated (SetupLedger): every repetition builds a fresh
  // backend, world, buffers and channel.  The first carries the rounds;
  // the later ones are torn down at once.
  SetupLedger setups(args.tiny);
  std::unique_ptr<Channel> ch;
  auto top_up_setups = [&]() -> bool {
    while (setups.owes(wall_ns())) {
      SetupMarks marks;
      std::unique_ptr<Channel> fresh = open_channel("shm", g, &marks, report);
      if (fresh == nullptr) return false;
      setups.add(marks, tr);
      if (ch == nullptr) ch = std::move(fresh);
    }
    return true;
  };
  if (!top_up_setups()) return true;
  report.set("agg.transport_partitions",
             static_cast<double>(ch->send->transport_partitions()));
  report.set("agg.qps", static_cast<double>(ch->send->qp_count()));

  // One closed-loop round: fill, timed round, verify.  Returns the round's
  // wall ns, or -1 after recording a violation.
  std::uint64_t played = 0;
  double traced_cpu = 0, traced_wall = 0;  // driver thread, traced rounds
  auto play = [&](Channel& c, Phases* ph, long timed_index) -> std::int64_t {
    const std::uint64_t round = played++;
    payload.fill(c.sbuf->data(), bytes, round);
    const std::uint32_t id = ph != nullptr ? tr.next_id() : 0;
    const std::int64_t cpu0 = ph != nullptr ? thread_cpu_ns() : 0;
    const std::int64_t t0 = wall_ns();
    const bool done = drive_round(*c.be, c.ep, ph, tr, id);
    const std::int64_t t1 = wall_ns();
    if (ph != nullptr) {
      traced_cpu += static_cast<double>(thread_cpu_ns() - cpu0);
      traced_wall += static_cast<double>(t1 - t0);
      tr.span("round", t0, t1, 0, id);
    }
    if (timed_index >= 0 && timed_index == args.corrupt_round) {
      c.rbuf->data()[bytes / 2] ^= std::byte{1};
    }
    if (!done) {
      report.violation("round " + std::to_string(played) +
                       " did not complete with an ok Status");
      return -1;
    }
    if (!payload.matches(c.rbuf->data(), bytes, round)) {
      report.violation("round " + std::to_string(played) +
                       ": received bytes differ from the payload");
      return -1;
    }
    return t1 - t0;
  };

  // Each block runs pinned to the next CPU the process may use (a traced
  // run moves on after each untraced + traced pair), so every run samples
  // all of a shared host's CPUs.  Warm-up runs on the first.
  CpuRotation rotation;
  std::size_t block_index = 0;
  rotation.pin(0);

  const auto seconds_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t warm_until =
      wall_ns() + std::min<std::int64_t>(seconds_ns / 10, 1'000'000'000);
  for (int r = 0; r < 5 || wall_ns() < warm_until; ++r) {
    if (play(*ch, nullptr, -1) < 0) return true;
  }

  // Timed rounds, in blocks of kBlockNs, with the set-ups the run owes
  // between blocks.  A traced run alternates untraced and traced blocks,
  // so both sides of trace.overhead_frac come from the same run.
  constexpr std::int64_t kBlockNs = 500'000'000;
  const Counters before = read_counters(*ch->be, ch->ep);
  BlockStats blocks;
  RoundLedger ledger;
  std::vector<double> block, plain;
  bool traced_block = false;
  auto close_block = [&] {
    if (!traced_block) blocks.add(block, bytes);
    block.clear();
  };
  std::int64_t now = wall_ns();
  const std::int64_t deadline = now + seconds_ns;
  std::int64_t block_end = now + kBlockNs;
  for (long timed = 0; now < deadline; ++timed, now = wall_ns()) {
    if (now >= block_end) {
      close_block();
      ++block_index;
      rotation.pin(args.trace ? block_index / 2 : block_index);
      if (!top_up_setups()) return true;
      traced_block = args.trace && !traced_block;
      block_end = wall_ns() + kBlockNs;
    }
    Phases ph;
    const std::int64_t ns = play(*ch, traced_block ? &ph : nullptr, timed);
    ++report.attempted;
    if (ns < 0) break;
    block.push_back(static_cast<double>(ns));
    if (traced_block) {
      ledger.add(ns, ph);
    } else {
      plain.push_back(static_cast<double>(ns));
    }
  }
  close_block();
  setups.report(report);
  const double wrs = report_counters(report, before,
                                     read_counters(*ch->be, ch->ep),
                                     static_cast<double>(report.attempted));

  blocks.report(report);
  ledger.report(report);
  const double p50_ns = quantile(plain, 0.5);
  report.set("round_p99_us", quantile(plain, 0.99) / 1e3);
  if (ledger.rounds() > 0) {
    report.set("trace.round_p50_us", ledger.round_p50() / 1e3);
    report.set("trace.overhead_frac", ledger.round_p50() / p50_ns - 1.0);
    report.set("driver.cpu_frac", traced_cpu / traced_wall);
  }
  report_floors(report, ch->rbuf->data(), ch->sbuf->data(), bytes, wrs,
                p50_ns);
  report.set("mem.peak_rss_mib", peak_rss_mib());
  ch.reset();

  // Model-gap reference: the same geometry and the same round code on the
  // DES backend, where the round's duration is virtual time.
  SetupMarks ignored;
  std::unique_ptr<Channel> des = open_channel("des", g, &ignored, report);
  if (des == nullptr) return true;
  std::vector<double> virtual_ns;
  for (int r = 0; r < 6; ++r) {
    const Time v0 = des->be->now();
    if (play(*des, nullptr, -1) < 0) return true;
    if (r > 0) virtual_ns.push_back(static_cast<double>(des->be->now() - v0));
  }
  const double ref_ns = median(virtual_ns);
  report.set("ref.des_virtual_round_ns", ref_ns);
  report.set("virtual_comm_us", ref_ns / 1e3);

  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu x %zu B, %llu timed rounds; wall p50 %.0f ns vs DES "
                "model %.0f ns virtual (gap %.2fx)",
                args.workload.c_str(), g.partitions, g.partition_bytes,
                static_cast<unsigned long long>(report.attempted), p50_ns,
                ref_ns, p50_ns / ref_ns);
  report.note(line);
  return true;
}

}  // namespace perfbench
