// Measurement building blocks of the benchmark: order statistics, rusage
// deltas, engine construction, the correctness gate, the round-robin lanes,
// and the single-layer kernel timings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machine/proc_machine.h"
#include "machine/sim_machine.h"
#include "net/wire.h"
#include "timing_engine.h"
#include "workload.h"

namespace navbench {

// --- statistics --------------------------------------------------------------

/// The q-quantile (0 <= q <= 1), interpolated linearly between the two
/// nearest order statistics.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The highest percentile that still has at least ten samples beyond it:
/// the 11th-largest value.  Needs at least 11 samples.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * (n - 10) / n
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

// --- operating system ------------------------------------------------------

/// CPU time and context switches from getrusage.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double vol_ctxsw = 0.0;
  double invol_ctxsw = 0.0;

  double cpu_s() const { return user_s + sys_s; }
  Usage scaled(double k) const {
    return Usage{user_s * k, sys_s * k, vol_ctxsw * k, invol_ctxsw * k};
  }
};
Usage usage_self();
/// Children that have been waited for (the proc backend's workers, once
/// their ProcMachine is destroyed).
Usage usage_children();
Usage operator-(const Usage& a, const Usage& b);
Usage operator+(const Usage& a, const Usage& b);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

// --- engines ---------------------------------------------------------------

/// navcpp_worker next to the running executable.  Throws ConfigError when
/// it is missing: ProcMachine would otherwise fall back to fork-only
/// workers without notice, which is a different set-up.
std::string worker_binary();

std::unique_ptr<navcpp::machine::SimMachine> make_sim(int pes);
std::unique_ptr<navcpp::machine::ProcMachine> make_proc(int pes);

/// One solve on a reused SimMachine.  SimMachine::run never rewinds the PE
/// clocks, so the machine is reset() first; otherwise finish_time() would
/// accumulate across solves.
double solve_sim(const Problem& problem, navcpp::machine::SimMachine& sim,
                 std::vector<double>* out);

// --- correctness gate ------------------------------------------------------

/// Checks every solve against the sequential reference (the catalog's
/// tolerances) and, for the parallel engines, for bit identity with the
/// sim result.  The first sim solve becomes that bit reference; later sim
/// solves must match it too.
class Verifier {
 public:
  explicit Verifier(const Problem& problem) : problem_(problem) {}

  /// `engine` is "seq", "setup", "sim", "threaded" or "proc"; "seq" and
  /// "setup" (a fresh sequential reference) run no engine and are checked
  /// against the reference only.
  void check(const std::string& engine, const std::vector<double>& got);
  /// Record a failure found outside a result comparison.
  void fail(const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  const Problem& problem_;
  std::vector<double> sim_result_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

// --- rounds ----------------------------------------------------------------

/// One contestant of a run: the sequential baseline or one engine, solving
/// the problem one verified solve at a time (a closed loop, one caller).
struct Lane {
  std::string engine;  ///< verifier label (see Verifier::check)
  /// One solve into `*out`; returns the solve's wall seconds.
  std::function<double(std::vector<double>* out)> solve;
  /// Optional bookkeeping after each verified solve; `timed` is false for
  /// the warm-up solve.
  std::function<void(bool timed)> after;

  std::vector<double> wall_s;  ///< timed solves
  std::size_t solves = 0;      ///< timed + warm-up
  /// getrusage(RUSAGE_SELF) deltas summed over all of the lane's solves.
  /// The threaded backend joins its worker threads at the end of run(),
  /// so their CPU is in here; proc workers are children, counted only
  /// once their ProcMachine is destroyed (see usage_children()).
  Usage self;

  Usage per_solve() const {
    return self.scaled(1.0 / static_cast<double>(solves));
  }
};

/// Run the lanes in turns, one solve each per round, so that a slow spell
/// of the host hits every lane alike.  One warm-up round comes first; then
/// rounds continue until `seconds` have passed and at least `min_rounds`
/// were timed.
void run_rounds(std::vector<Lane>& lanes, Verifier& verifier, double seconds,
                int min_rounds);

/// A sim lane on a reused machine.  Every solve's virtual time must equal
/// the first one's (a drift is a verification failure); the first is kept
/// in `*virtual_s`.
Lane sim_lane(const Problem& problem, navcpp::machine::SimMachine& sim,
              Verifier& verifier, double* virtual_s);

/// Worker-side wire counters of one proc solve, summed over the PEs, with
/// the number of transmit() calls (hops) the parent made.
struct WireTotals {
  navcpp::net::WireWorkerStats stats;
  std::uint64_t hops = 0;
};
WireTotals wire_totals(const navcpp::machine::ProcMachine& proc);

// --- single-layer kernels --------------------------------------------------

/// Median seconds of one gemm_acc call on `order`-square blocks, over a
/// fixed number of calls.
double gemm_call_s(int order);

/// Median seconds of `sweeps` jacobi_sweep calls on a rows x cols grid.
double stencil_s(int rows, int cols, int sweeps);

/// Median seconds to encode, send, receive and decode one kHop frame with
/// a `payload_bytes` payload over a Unix socketpair (FrameConn both ends).
double codec_s(std::size_t payload_bytes);

}  // namespace navbench
