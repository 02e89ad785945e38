#include "rounds.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "backend/shm/spsc_ring.hpp"
#include "common/units.hpp"

namespace perfbench {

using namespace partib;

PageBuffer::PageBuffer(std::size_t bytes) : size_(bytes) {
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    std::perror("perfbench: mmap");
    std::abort();
  }
  data_ = static_cast<std::byte*>(p);
  std::memset(data_, 0, size_);  // first touch
}

PageBuffer::~PageBuffer() { munmap(data_, size_); }

void SetupLedger::add(const SetupMarks& marks, Tracer& tr) {
  static constexpr const char* kNames[] = {"setup.backend", "setup.world",
                                           "setup.buffers", "setup.init",
                                           "setup.handshake"};
  // Only the first few set-ups get spans, so the thousands that follow do
  // not fill the tracer before the rounds.
  const bool traced = tr.enabled() && total_.size() < kTracedSetups;
  const std::uint32_t id = traced ? tr.next_id() : 0;
  for (std::size_t i = 0; i < phase_.size(); ++i) {
    phase_[i].push_back(static_cast<double>(marks.t[i + 1] - marks.t[i]));
    if (traced) tr.span(kNames[i], marks.t[i], marks.t[i + 1], id);
  }
  if (total_.empty()) first_ns_ = marks.t[0];
  total_.push_back(static_cast<double>(marks.t[5] - marks.t[0]));
  spent_ns_ += total_.back();
  if (traced) tr.span("setup", marks.t[0], marks.t[5], 0, id);
}

bool SetupLedger::owes(std::int64_t now_ns) const {
  if (total_.size() < (tiny_ ? 2u : 5u)) return true;
  return !tiny_ &&
         spent_ns_ < kShare * static_cast<double>(now_ns - first_ns_);
}

void SetupLedger::report(Report& report) const {
  report.set("setup_s", median(total_) / 1e9);
  report.set("setup.backend_ns", median(phase_[0]));
  report.set("setup.world_ns", median(phase_[1]));
  report.set("setup.buffers_ns", median(phase_[2]));
  report.set("setup.init_ns", median(phase_[3]));
  report.set("setup.handshake_ns", median(phase_[4]));
}

bool drive_round(backend::Backend& be, const Endpoints& ep, Phases* ph,
                 Tracer& tr, std::uint32_t round_id) {
  // Untraced rounds take the bare calls; traced rounds wrap each call in
  // two clock reads and a span.
  auto call = [&](const char* name, std::int64_t Phases::*sum, auto&& fn) {
    if (ph == nullptr) return fn();
    const std::int64_t a = wall_ns();
    const auto result = fn();
    const std::int64_t b = wall_ns();
    tr.span(name, a, b, round_id);
    ph->*sum += b - a;
    return result;
  };
  for (part::PrecvRequest* r : ep.recvs) {
    if (!ok(call("part.start", &Phases::start, [r] { return r->start(); }))) {
      return false;
    }
  }
  for (part::PsendRequest* s : ep.sends) {
    if (!ok(call("part.start", &Phases::start, [s] { return s->start(); }))) {
      return false;
    }
  }
  for (part::PsendRequest* s : ep.sends) {
    for (std::size_t i = 0; i < ep.partitions; ++i) {
      if (!ok(call("part.pready", &Phases::pready,
                   [s, i] { return s->pready(i); }))) {
        return false;
      }
    }
  }
  if (ph == nullptr) {
    be.run_until_idle();
  } else {
    // CPU clock read inside the wall interval, so busy <= wall.
    const std::int64_t a = wall_ns();
    const std::int64_t cpu0 = thread_cpu_ns();
    ph->events += be.run_until_idle();
    const std::int64_t cpu1 = thread_cpu_ns();
    const std::int64_t b = wall_ns();
    tr.span("backend.run_until_idle", a, b, round_id);
    ph->drain += b - a;
    ph->drain_cpu += cpu1 - cpu0;
  }
  // run_until_idle() returns at quiescence, so everything normally tests
  // complete at once; keep pumping (bounded) if it does not.
  auto all_done = [&ep] {
    for (part::PsendRequest* s : ep.sends) {
      if (!s->test()) return false;
    }
    for (part::PrecvRequest* r : ep.recvs) {
      if (!r->test()) return false;
    }
    return true;
  };
  const bool done = call("part.test", &Phases::test, [&] {
    if (all_done()) return true;
    const std::int64_t deadline = wall_ns() + 2'000'000'000;
    while (wall_ns() < deadline) {
      be.progress();
      if (all_done()) return true;
    }
    return false;
  });
  if (!done) return false;
  for (part::PsendRequest* s : ep.sends) {
    if (!ok(s->status())) return false;
  }
  for (part::PrecvRequest* r : ep.recvs) {
    if (!ok(r->status())) return false;
  }
  return true;
}

void RoundLedger::add(std::int64_t round_ns, const Phases& ph) {
  round_.push_back(static_cast<double>(round_ns));
  start_.push_back(static_cast<double>(ph.start));
  pready_.push_back(static_cast<double>(ph.pready));
  test_.push_back(static_cast<double>(ph.test));
  drain_.push_back(static_cast<double>(ph.drain));
  unattributed_.push_back(static_cast<double>(
      round_ns - ph.start - ph.pready - ph.drain - ph.test));
  drain_sum_ += static_cast<double>(ph.drain);
  drain_cpu_sum_ += static_cast<double>(ph.drain_cpu);
  events_ += static_cast<double>(ph.events);
}

void RoundLedger::report(Report& report) const {
  if (round_.empty()) return;
  const auto n = static_cast<double>(round_.size());
  report.set("part.start_ns", median(start_));
  report.set("part.pready_ns", median(pready_));
  report.set("part.test_ns", median(test_));
  report.set("backend.drain_ns", median(drain_));
  report.set("backend.drain_cpu_ns", drain_cpu_sum_ / n);
  report.set("backend.idle_frac", 1.0 - drain_cpu_sum_ / drain_sum_);
  report.set("sim.events_per_round", events_ / n);
  report.set("round.unattributed_ns", median(unattributed_));
}

Counters read_counters(backend::Backend& be, const Endpoints& ep) {
  Counters c;
  for (const part::PsendRequest* s : ep.sends) c.wrs += s->wrs_posted_total();
  c.stats = be.transport().stats();
  return c;
}

double report_counters(Report& report, const Counters& before,
                       const Counters& after, double rounds) {
  auto per_round = [rounds](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / rounds;
  };
  const double wrs = per_round(before.wrs, after.wrs);
  report.set("verbs.wrs_per_round", wrs);
  report.set("transport.rdma_ops_per_round",
             per_round(before.stats.rdma_ops, after.stats.rdma_ops));
  report.set("transport.control_msgs_per_round",
             per_round(before.stats.control_msgs, after.stats.control_msgs));
  report.set("transport.payload_bytes_per_round",
             per_round(before.stats.payload_bytes, after.stats.payload_bytes));
  if (after.stats.failed_ops != before.stats.failed_ops) {
    report.violation(
        std::to_string(after.stats.failed_ops - before.stats.failed_ops) +
        " transport ops failed");
  }
  return wrs;
}

void report_floors(Report& report, std::byte* dst, const std::byte* src,
                   std::size_t bytes, double wrs, double round_ns) {
  // Enough copies per sample that the clock reads do not dominate.
  const std::size_t copies = std::max<std::size_t>(1, (1 * MiB) / bytes);
  std::vector<double> memcpy_ns;
  for (int rep = 0; rep < 31; ++rep) {
    const std::int64_t t0 = wall_ns();
    for (std::size_t k = 0; k < copies; ++k) {
      std::memcpy(dst, src, bytes);
      asm volatile("" ::: "memory");
    }
    memcpy_ns.push_back(static_cast<double>(wall_ns() - t0) /
                        static_cast<double>(copies));
  }

  const auto ops = static_cast<std::size_t>(wrs + 0.5);
  backend::SpscRing<const void*> ring(1024);
  constexpr int kRounds = 1000;
  const void* sink = nullptr;
  std::vector<double> ring_ns;
  for (int rep = 0; rep < 31; ++rep) {
    const std::int64_t t0 = wall_ns();
    for (int k = 0; k < kRounds; ++k) {
      for (std::size_t w = 0; w < ops; ++w) {
        ring.try_push(&ring);
        ring.try_pop(&sink);
      }
      asm volatile("" : : "r"(sink) : "memory");
    }
    ring_ns.push_back(static_cast<double>(wall_ns() - t0) / kRounds);
  }

  const double m = median(memcpy_ns);
  const double r = median(ring_ns);
  report.set("floor.memcpy_ns", m);
  report.set("floor.ring_ns", r);
  report.set("floor_ratio", round_ns / (m + r));
}

}  // namespace perfbench
