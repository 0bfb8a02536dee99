// navbench: end-to-end and per-layer benchmark of the NavCpp engines.
//
//   navbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (mm-coarse, mm-burst, jacobi-chain) as a closed loop --
// one caller, one solve at a time, each solve verified before the next --
// on the sequential baseline and on the sim, threaded and proc engines,
// which take turns one solve each.  --trace 0 prints the end-to-end
// metrics of an untraced run; --trace 1 prints the per-layer metrics of a
// traced run.  The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
// solve verified, 1 when one did not (the JSON is still printed), 2 on a
// usage or set-up error (no JSON).  See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "linalg/gemm.h"
#include "machine/threaded_machine.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/json.h"
#include "support/stopwatch.h"
#include "workload.h"

#ifndef NAVBENCH_BUILD_TYPE
#define NAVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NAVBENCH_COMPILER
#define NAVBENCH_COMPILER "unknown"
#endif

namespace {

using navbench::Lane;
using navbench::Problem;
using navbench::TimingEngine;
using navbench::Usage;
using navbench::Verifier;
using navbench::median;
namespace machine = navcpp::machine;

/// Every lane gets at least this many timed solves, so each has a tail
/// with ten samples beyond it.
constexpr int kMinRounds = 20;

/// The end-to-end timings report this quantile of a run's samples.  On a
/// shared host the single-threaded solves slow down by up to 1.7x in spells
/// of a few hundred ms, so a run's solve times are a fast and a slow mode
/// whose mix changes from run to run, and the median jumps with the mix.
/// The 10th percentile stays in the fast mode.
constexpr double kTimingQuantile = 0.10;

double timing(const std::vector<double>& samples) {
  return navbench::quantile(samples, kTimingQuantile);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string opt = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (opt == "--workload") {
      args->workload = val;
    } else if (opt == "--seed") {
      args->seed = std::strtoull(val, &end, 10);
      have_seed = *val != '\0' && *end == '\0';
    } else if (opt == "--seconds") {
      args->seconds = std::strtod(val, &end);
      if (*end != '\0') args->seconds = 0.0;
    } else if (opt == "--trace") {
      args->trace = std::strcmp(val, "0") == 0   ? 0
                    : std::strcmp(val, "1") == 0 ? 1
                                                 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         args->seconds > 0.0 && args->trace >= 0;
}

/// The metrics of one run, in print order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    NAVCPP_CHECK(std::isfinite(value), "metric " + name + " is not finite");
    metrics_.push_back(Metric{name, value, unit, note});
  }

  /// One "name value unit (note)" line per metric, then the JSON line.
  void print(const Verifier& verifier) const {
    std::string json = "{\"correct\": ";
    json += verifier.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(verifier.attempted());
    json += ", \"failed\": " + std::to_string(verifier.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%-36s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", m.value);  // every digit
      if (i > 0) json += ", ";
      json += '"';
      json += navcpp::support::json_escape(m.name);
      json += "\": {\"value\": ";
      json += value;
      json += ", \"unit\": \"";
      json += navcpp::support::json_escape(m.unit);
      json += "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
};

std::string solves_note(std::size_t n) {
  return "(median of " + std::to_string(n) + " solves)";
}

std::string timing_note(std::size_t n, const char* what) {
  return "(p" + std::to_string(static_cast<int>(kTimingQuantile * 100)) +
         " of " + std::to_string(n) + " " + what + ")";
}

/// Everything a run needs before it measures: the seeded inputs with their
/// sequential reference, and one engine of each kind (proc workers spawned
/// and handshaken).
struct Fixture {
  std::unique_ptr<Problem> problem;
  std::unique_ptr<machine::SimMachine> sim;
  std::unique_ptr<machine::ThreadedMachine> threaded;
  std::unique_ptr<machine::ProcMachine> proc;
};

Fixture set_up(const navbench::WorkloadSpec& spec, std::uint64_t seed) {
  Fixture fx;
  fx.problem = std::make_unique<Problem>(spec, seed);
  fx.sim = navbench::make_sim(spec.pes);
  fx.threaded = std::make_unique<machine::ThreadedMachine>(spec.pes);
  fx.proc = navbench::make_proc(spec.pes);
  return fx;
}

/// Times a fresh set_up() once per round, so that the set-up samples are
/// spread over the run like the solves.  The fresh reference goes through
/// the correctness gate.  The fixture is torn down before the lane returns,
/// which reaps its proc workers; their CPU is added to `*children`, so that
/// it can be kept out of proc.cpu_s.
Lane setup_lane(const navbench::WorkloadSpec& spec, std::uint64_t seed,
                Usage* children) {
  Lane lane;
  lane.engine = "setup";
  lane.solve = [&spec, seed, children](std::vector<double>* out) {
    const Usage children0 = navbench::usage_children();
    double wall = 0.0;
    {
      const navcpp::support::Stopwatch clock;
      const Fixture fx = set_up(spec, seed);
      wall = clock.seconds();
      *out = fx.problem->reference();
    }
    *children = *children + (navbench::usage_children() - children0);
    return wall;
  };
  return lane;
}

Lane seq_lane(const Problem& problem) {
  Lane lane;
  lane.engine = "seq";
  lane.solve = [&problem](std::vector<double>* out) {
    return problem.solve_sequential(out);
  };
  return lane;
}

Lane engine_lane(const std::string& engine, const Problem& problem,
                 machine::Engine& target) {
  Lane lane;
  lane.engine = engine;
  lane.solve = [&problem, &target](std::vector<double>* out) {
    return problem.solve(target, out);
  };
  return lane;
}

/// Destroy the proc engine -- which reaps its workers -- and return the CPU
/// they used since `children0`.
Usage reap_workers(Fixture& fx, const Usage& children0) {
  fx.proc.reset();
  return navbench::usage_children() - children0;
}

/// The wall-time tail does not repeat within a tenth between runs on a
/// shared host, so it is a per-layer metric, taken from an untraced lane
/// of the traced run.
void add_wall_tail(Report& report, const std::string& backend,
                   const Lane& lane) {
  const navbench::Tail t = navbench::tail(lane.wall_s);
  char note[64];
  std::snprintf(note, sizeof(note), "(p%.1f of %zu untraced solves)",
                t.percentile, t.samples);
  report.add(backend + ".wall_s.tail", t.value, "s", note);
}

void run_untraced(Fixture& fx, std::uint64_t seed, Verifier& verifier,
                  double seconds, Report& report) {
  const Problem& problem = *fx.problem;
  double virtual_s = 0.0;
  Usage setup_children;
  std::vector<Lane> lanes;
  lanes.push_back(setup_lane(problem.spec(), seed, &setup_children));
  lanes.push_back(seq_lane(problem));
  lanes.push_back(navbench::sim_lane(problem, *fx.sim, verifier, &virtual_s));
  lanes.push_back(engine_lane("threaded", problem, *fx.threaded));
  lanes.push_back(engine_lane("proc", problem, *fx.proc));
  const Usage children0 = navbench::usage_children();
  navbench::run_rounds(lanes, verifier, seconds, kMinRounds);
  const Usage workers = reap_workers(fx, children0) - setup_children;
  const Lane& setup = lanes[0];
  report.add("setup_s", timing(setup.wall_s), "s",
             timing_note(setup.wall_s.size(), "set-ups"));
  for (std::size_t i = 1; i < lanes.size(); ++i) {
    const Lane& lane = lanes[i];
    report.add(lane.engine + ".wall_s", timing(lane.wall_s), "s",
               timing_note(lane.wall_s.size(), "solves"));
  }
  const Lane& threaded = lanes[3];
  const Lane& proc = lanes[4];
  report.add("threaded.cpu_s", threaded.per_solve().cpu_s(), "s",
             "(user+sys per solve)");
  report.add("proc.cpu_s",
             proc.per_solve().cpu_s() +
                 workers.cpu_s() / static_cast<double>(proc.solves),
             "s", "(user+sys per solve, workers included)");
  report.add("peak_rss_mb", navbench::peak_rss_mb(), "MB", "(maxrss)");
}

/// Machine-layer metrics of one backend from its traced lane.  On proc the
/// parent runs every closure, so the critical executor is the parent and
/// its idle time is wall minus all action time; on threaded it is the
/// busiest PE.
void add_machine_layer(Report& report, const std::string& b,
                       const Lane& traced,
                       const std::vector<TimingEngine::Sample>& samples,
                       bool parent_runs_all) {
  std::vector<double> actions, action_s, wait_s, post_wait, hop_latency,
      transmit_call;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const TimingEngine::Sample& s = samples[i];
    actions.push_back(static_cast<double>(s.actions));
    action_s.push_back(s.action_s);
    wait_s.push_back(traced.wall_s[i] -
                     (parent_runs_all ? s.action_s : s.max_pe_action_s));
    post_wait.insert(post_wait.end(), s.post_wait_s.begin(),
                     s.post_wait_s.end());
    hop_latency.insert(hop_latency.end(), s.hop_latency_s.begin(),
                       s.hop_latency_s.end());
    transmit_call.insert(transmit_call.end(), s.transmit_call_s.begin(),
                         s.transmit_call_s.end());
  }
  const std::string per = solves_note(samples.size());
  report.add(b + ".actions", median(actions), "count", per);
  report.add(b + ".action_s", median(action_s), "s", per);
  report.add(b + ".wait_s", median(wait_s), "s", per);
  auto add_latency = [&](const std::string& name, std::vector<double> v,
                         bool with_tail) {
    char note[64];
    std::snprintf(note, sizeof(note), "(%zu samples)", v.size());
    report.add(b + "." + name + ".p50", median(v) * 1e6, "us", note);
    if (with_tail) {
      const navbench::Tail t = navbench::tail(std::move(v));
      std::snprintf(note, sizeof(note), "(p%.3f)", t.percentile);
      report.add(b + "." + name + ".tail", t.value * 1e6, "us", note);
    }
  };
  add_latency("post_wait_us", std::move(post_wait), true);
  add_latency("hop_latency_us", std::move(hop_latency), true);
  add_latency("transmit_call_us", std::move(transmit_call), false);
}

/// OS-layer metrics: `per_solve` is the getrusage usage of one solve.
void add_os_layer(Report& report, const std::string& b, const Usage& per_solve,
                  double hops_per_solve) {
  report.add(b + ".os.user_s", per_solve.user_s, "s", "(per solve)");
  report.add(b + ".os.sys_s", per_solve.sys_s, "s", "(per solve)");
  report.add(b + ".os.vol_ctxsw_per_hop", per_solve.vol_ctxsw / hops_per_solve,
             "count");
  report.add(b + ".os.invol_ctxsw_per_hop",
             per_solve.invol_ctxsw / hops_per_solve, "count");
}

/// proc.wire.* and proc.worker.busy_frac: per-solve ratios of the workers'
/// own counters, medians over the solves.
void add_wire_layer(Report& report,
                    const std::vector<navbench::WireTotals>& wire) {
  std::vector<double> frames, bytes, direct, serialize, verify, busy;
  for (const navbench::WireTotals& w : wire) {
    const auto& s = w.stats;
    NAVCPP_CHECK(w.hops > 0 && s.hops_in > 0 && s.hops_out > 0,
                 "proc solve made no hops");
    // Heartbeat pings follow elapsed time and kPost frames the schedule
    // (proc.actions), so both are left out: what remains is the hop and
    // run-control traffic, fixed by the program.
    frames.push_back(static_cast<double>(s.frames_seen - s.pings_answered -
                                         s.posts_granted) /
                     static_cast<double>(w.hops));
    const auto hops_in = static_cast<double>(s.hops_in);
    bytes.push_back(static_cast<double>(s.hop_bytes_in) / hops_in);
    direct.push_back(static_cast<double>(s.direct_hops_in) / hops_in);
    serialize.push_back(static_cast<double>(s.serialize_ns) * 1e-3 /
                        static_cast<double>(s.hops_out));
    verify.push_back(static_cast<double>(s.verify_ns) * 1e-3 / hops_in);
    busy.push_back(static_cast<double>(s.busy_ns) /
                   static_cast<double>(s.busy_ns + s.idle_ns));
  }
  const std::string per = solves_note(wire.size());
  report.add("proc.wire.frames_per_hop", median(frames), "count", per);
  report.add("proc.wire.bytes_per_hop", median(bytes), "bytes", per);
  report.add("proc.wire.direct_hop_frac", median(direct), "ratio", per);
  report.add("proc.wire.serialize_us_per_hop", median(serialize), "us", per);
  report.add("proc.wire.verify_us_per_hop", median(verify), "us", per);
  report.add("proc.worker.busy_frac", median(busy), "ratio", per);
}

void add_kernel_layer(Report& report, const navbench::WorkloadSpec& spec) {
  // The kernel alone, at the workload's block order.  Jacobi has no block:
  // its GEMM rate is taken at the catalog's default order 64, and its
  // kernel is the stencil sweep.
  const int order = spec.is_mm ? spec.block : 64;
  const double call_s = navbench::gemm_call_s(order);
  report.add("linalg.gemm_gflops",
             navcpp::linalg::gemm_flops(order, order, order) / call_s / 1e9,
             "GFLOP/s", "(block order " + std::to_string(order) + ")");
  if (spec.is_mm) {
    report.add("linalg.kernel_s",
               static_cast<double>(spec.gemm_calls()) * call_s, "s",
               "(" + std::to_string(spec.gemm_calls()) +
                   " gemm_acc calls per solve)");
  } else {
    report.add("linalg.kernel_s",
               navbench::stencil_s(spec.rows, spec.cols, spec.sweeps), "s",
               "(" + std::to_string(spec.sweeps) +
                   " jacobi_sweep calls per solve)");
  }
}

void run_traced(Fixture& fx, Verifier& verifier, double seconds,
                Report& report) {
  const Problem& problem = *fx.problem;
  add_kernel_layer(report, problem.spec());

  // The sim lane reports into a registry (navp.* and sim.actions); the
  // threaded and proc engines each run a plain lane and a lane under the
  // TimingEngine, on the same engine.
  navcpp::obs::Registry registry;
  navcpp::obs::Snapshot before;
  std::vector<navcpp::obs::Snapshot> counts;
  double virtual_s = 0.0;
  Lane sim = navbench::sim_lane(problem, *fx.sim, verifier, &virtual_s);
  sim.solve = [&, inner = std::move(sim.solve)](std::vector<double>* out) {
    const navcpp::obs::MetricsScope scope(&registry);
    before = registry.snapshot();
    return inner(out);
  };
  sim.after = [&, inner = std::move(sim.after)](bool timed) {
    inner(timed);
    if (timed) counts.push_back(registry.snapshot().delta(before));
  };

  TimingEngine threaded_timing(*fx.threaded);
  TimingEngine proc_timing(*fx.proc);
  std::vector<TimingEngine::Sample> threaded_samples, proc_samples;
  std::vector<navbench::WireTotals> wire;
  Lane threaded_plain = engine_lane("threaded", problem, *fx.threaded);
  Lane threaded_traced = engine_lane("threaded", problem, threaded_timing);
  threaded_traced.after = [&](bool timed) {
    TimingEngine::Sample s = threaded_timing.take();
    if (timed) threaded_samples.push_back(std::move(s));
  };
  Lane proc_plain = engine_lane("proc", problem, *fx.proc);
  proc_plain.after = [&](bool timed) {
    if (timed) wire.push_back(navbench::wire_totals(*fx.proc));
  };
  Lane proc_traced = engine_lane("proc", problem, proc_timing);
  proc_traced.after = [&](bool timed) {
    TimingEngine::Sample s = proc_timing.take();
    if (timed) proc_samples.push_back(std::move(s));
  };

  std::vector<Lane> lanes;
  lanes.push_back(std::move(sim));
  lanes.push_back(std::move(threaded_plain));
  lanes.push_back(std::move(threaded_traced));
  lanes.push_back(std::move(proc_plain));
  lanes.push_back(std::move(proc_traced));
  const Usage children0 = navbench::usage_children();
  navbench::run_rounds(lanes, verifier, seconds, kMinRounds);
  const Usage workers = reap_workers(fx, children0);

  // navp + sim: exact counts, on the deterministic sim.
  std::map<std::string, std::vector<double>> count;
  std::vector<double> events_per_s;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (const char* name : {"navp.hops", "navp.hop_bytes",
                             "navp.agents_injected", "navp.signals",
                             "navp.waits"}) {
      count[name].push_back(static_cast<double>(counts[i].counter_or(name)));
    }
    double actions = 0.0;
    for (const auto& [key, value] : counts[i].counters) {
      if (key.rfind("sim.actions", 0) == 0) {
        actions += static_cast<double>(value);
      }
    }
    count["sim.actions"].push_back(actions);
    events_per_s.push_back(actions / lanes[0].wall_s[i]);
  }
  const std::string per = solves_note(counts.size());
  for (const char* name : {"navp.hops", "navp.hop_bytes",
                           "navp.agents_injected", "navp.signals",
                           "navp.waits", "sim.actions"}) {
    report.add(name, median(count[name]), "count", per);
  }
  report.add("sim.events_per_s", median(events_per_s), "1/s", per);
  report.add("sim.virtual_s", virtual_s, "model_s",
             "(modelled 2005-testbed finish time)");
  const double hops = median(count["navp.hops"]);

  // machine + os.  Worker CPU cannot be split between the proc lanes (the
  // decorator runs in the parent only), so each proc solve gets an equal
  // share of it.
  add_wall_tail(report, "threaded", lanes[1]);
  add_wall_tail(report, "proc", lanes[3]);
  add_machine_layer(report, "threaded", lanes[2], threaded_samples, false);
  add_os_layer(report, "threaded", lanes[1].per_solve(), hops);
  add_machine_layer(report, "proc", lanes[4], proc_samples, true);
  const double proc_solves =
      static_cast<double>(lanes[3].solves + lanes[4].solves);
  add_os_layer(report, "proc",
               lanes[3].per_solve() + workers.scaled(1.0 / proc_solves), hops);

  // net: the workers' counters, and the codec alone at the cargo size.
  add_wire_layer(report, wire);
  const std::size_t cargo = problem.spec().cargo_bytes();
  report.add("net.wire.codec_us", navbench::codec_s(cargo) * 1e6, "us",
             "(" + std::to_string(cargo) + " B payload)");

  // obs: what the decorator cost, traced wall / untraced wall - 1.
  report.add("obs.trace_overhead.threaded",
             median(lanes[2].wall_s) / median(lanes[1].wall_s) - 1.0, "ratio");
  report.add("obs.trace_overhead.proc",
             median(lanes[4].wall_s) / median(lanes[3].wall_s) - 1.0, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: navbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  try {
    const navbench::WorkloadSpec& spec = navbench::find_workload(args.workload);
    // Pin the proc set-up: these switches would silently change transport,
    // data plane, tracing or worker binary.
    for (const char* var : {"NAVCPP_PROC_TCP", "NAVCPP_PROC_MESH",
                            "NAVCPP_PROC_TRACE", "NAVCPP_WORKER"}) {
      ::unsetenv(var);
    }
    const std::string worker = navbench::worker_binary();
    std::printf(
        "setup {\"workload\": \"%s\", \"program\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"trace\": %d, \"pes\": %d, \"nproc\": %u, "
        "\"build_type\": \"%s\", \"compiler\": \"%s\", \"spawn_mode\": "
        "\"exec\", \"worker\": \"%s\", \"transport\": \"unix\", "
        "\"data_plane\": \"mesh\", \"loop\": \"closed, 1 caller\"}\n",
        spec.name.c_str(), spec.program.c_str(),
        static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
        spec.pes, std::thread::hardware_concurrency(), NAVBENCH_BUILD_TYPE,
        NAVBENCH_COMPILER, navcpp::support::json_escape(worker).c_str());

    Fixture fx = set_up(spec, args.seed);
    Verifier verifier(*fx.problem);
    Report report;
    if (args.trace == 0) {
      run_untraced(fx, args.seed, verifier, args.seconds, report);
    } else {
      run_traced(fx, verifier, args.seconds, report);
    }
    report.print(verifier);
    if (verifier.failed() > 0) {
      std::fprintf(stderr, "navbench: %llu of %llu solves failed; first: %s\n",
                   static_cast<unsigned long long>(verifier.failed()),
                   static_cast<unsigned long long>(verifier.attempted()),
                   verifier.first_failure().c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "navbench: %s\n", e.what());
    return 2;
  }
}
