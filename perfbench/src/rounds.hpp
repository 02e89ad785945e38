// The round machinery every workload shares: page-backed buffers, timed
// set-up phases, one Psend/Precv round driven through the public API
// (optionally traced call by call), the per-layer ledger of traced rounds,
// counter deltas and the same-run floors.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "backend/backend.hpp"
#include "fabric/rdma_op.hpp"
#include "part/partitioned.hpp"
#include "perfbench.hpp"

namespace perfbench {

/// Anonymous mapping released on destruction, so every set-up pays its own
/// page faults instead of inheriting pages the allocator kept from the
/// previous one.
class PageBuffer {
 public:
  explicit PageBuffer(std::size_t bytes);
  ~PageBuffer();
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  std::span<std::byte> span() { return {data_, size_}; }
  std::byte* data() { return data_; }

 private:
  std::size_t size_;
  std::byte* data_ = nullptr;
};

/// Timestamps a set-up takes as it passes each phase: the start, then the
/// end of backend, world, buffers, init (psend_init/precv_init, plan
/// selection included) and handshake.
struct SetupMarks {
  std::array<std::int64_t, 6> t{};
  std::size_t n = 0;
  void mark() { t[n++] = wall_ns(); }
};

/// Repeated set-ups of one workload: setup_s is the median total, each
/// setup.*_ns the median of its phase.  The set-ups are spread over the
/// whole run, not done in one burst at its start: the host's speed drifts
/// over seconds, and a burst samples one moment of it.  A workload sets up
/// while owes() is true, at its start and again between blocks of
/// measurement.
class SetupLedger {
 public:
  explicit SetupLedger(bool tiny) : tiny_(tiny) {}

  /// Records the set-up (and, for the first few, their spans).
  void add(const SetupMarks& marks, Tracer& tr);
  /// True while the run owes a set-up: fewer than the minimum so far (5,
  /// or 2 at the self-test geometry), or, outside the self-test, less than
  /// kShare of the wall time since the first set-up began spent setting up.
  bool owes(std::int64_t now_ns) const;
  void report(Report& report) const;

 private:
  static constexpr std::size_t kTracedSetups = 5;
  static constexpr double kShare = 0.05;
  bool tiny_;
  std::int64_t first_ns_ = 0;
  double spent_ns_ = 0;
  std::array<std::vector<double>, 5> phase_;
  std::vector<double> total_;
};

/// The requests one round drives; every send has `partitions` partitions.
struct Endpoints {
  std::vector<partib::part::PsendRequest*> sends;
  std::vector<partib::part::PrecvRequest*> recvs;
  std::size_t partitions = 0;
};

/// Per-call wall time inside one traced round, summed over the calls of a
/// kind.
struct Phases {
  std::int64_t start = 0;      ///< every send/recv start()
  std::int64_t pready = 0;     ///< every pready(i)
  std::int64_t drain = 0;      ///< be.run_until_idle()
  std::int64_t drain_cpu = 0;  ///< thread CPU inside run_until_idle()
  std::int64_t test = 0;       ///< the test() calls until all are true
  std::size_t events = 0;      ///< run_until_idle()'s dispatched events
};

/// One round, driven as an application would: start every receive and
/// send, Pready every partition of every send back to back, pump the
/// backend to quiescence, then test everything.  With `ph` set, every call
/// is timed and recorded as a span under `round_id`.  False when a call
/// returned a non-ok Status or the round did not complete.
bool drive_round(partib::backend::Backend& be, const Endpoints& ep,
                 Phases* ph, Tracer& tr, std::uint32_t round_id);

/// Phases of traced rounds -> part.*, backend.*, sim.events_per_round and
/// round.unattributed_ns (round wall minus the calls it made).
class RoundLedger {
 public:
  void add(std::int64_t round_ns, const Phases& ph);
  std::size_t rounds() const { return round_.size(); }
  double round_p50() const { return median(round_); }
  void report(Report& report) const;

 private:
  std::vector<double> round_, start_, pready_, test_, drain_, unattributed_;
  double drain_sum_ = 0, drain_cpu_sum_ = 0, events_ = 0;
};

/// WRs posted by the sends and the transport's counters, read at
/// quiescence on either side of a set of rounds.
struct Counters {
  std::uint64_t wrs = 0;
  partib::fabric::FabricStats stats;
};
Counters read_counters(partib::backend::Backend& be, const Endpoints& ep);
/// Per-round deltas -> verbs.wrs_per_round and transport.*_per_round; a
/// failed transport op is a violation.  Returns WRs per round.
double report_counters(Report& report, const Counters& before,
                       const Counters& after, double rounds);

/// Same-run floors for a round that moves `bytes` in `wrs` WRs: one memcpy
/// of the payload from `src` to `dst`, and one SpscRing push + pop per WR
/// (the ring the shm transport moves op records through).  Sets
/// floor.memcpy_ns, floor.ring_ns and floor_ratio = round_ns / (sum).
void report_floors(Report& report, std::byte* dst, const std::byte* src,
                   std::size_t bytes, double wrs, double round_ns);

}  // namespace perfbench
