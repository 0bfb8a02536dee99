#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "apps/jacobi.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "perfmodel/testbed.h"
#include "support/error.h"
#include "support/stopwatch.h"

namespace navbench {

namespace machine = navcpp::machine;
namespace net = navcpp::net;
namespace obs = navcpp::obs;

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  NAVCPP_CHECK(!v.empty(), "quantile of no samples");
  NAVCPP_CHECK(q >= 0.0 && q <= 1.0, "quantile outside [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail tail(std::vector<double> v) {
  NAVCPP_CHECK(v.size() >= 11, "a tail needs at least 11 samples");
  std::sort(v.begin(), v.end());
  Tail t;
  t.samples = v.size();
  t.value = v[v.size() - 11];
  t.percentile = 100.0 * static_cast<double>(v.size() - 10) /
                 static_cast<double>(v.size());
  return t;
}

// --- operating system ------------------------------------------------------

namespace {

Usage usage_of(int who) {
  rusage ru{};
  NAVCPP_CHECK(::getrusage(who, &ru) == 0, "getrusage failed");
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage u;
  u.user_s = secs(ru.ru_utime);
  u.sys_s = secs(ru.ru_stime);
  u.vol_ctxsw = static_cast<double>(ru.ru_nvcsw);
  u.invol_ctxsw = static_cast<double>(ru.ru_nivcsw);
  return u;
}

}  // namespace

Usage usage_self() { return usage_of(RUSAGE_SELF); }
Usage usage_children() { return usage_of(RUSAGE_CHILDREN); }

Usage operator-(const Usage& a, const Usage& b) {
  return Usage{a.user_s - b.user_s, a.sys_s - b.sys_s,
               a.vol_ctxsw - b.vol_ctxsw, a.invol_ctxsw - b.invol_ctxsw};
}

Usage operator+(const Usage& a, const Usage& b) {
  return Usage{a.user_s + b.user_s, a.sys_s + b.sys_s,
               a.vol_ctxsw + b.vol_ctxsw, a.invol_ctxsw + b.invol_ctxsw};
}

double peak_rss_mb() {
  rusage ru{};
  NAVCPP_CHECK(::getrusage(RUSAGE_SELF, &ru) == 0, "getrusage failed");
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- engines ---------------------------------------------------------------

std::string worker_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  NAVCPP_CHECK(n > 0, "cannot resolve /proc/self/exe");
  std::string path(buf, static_cast<std::size_t>(n));
  path.resize(path.rfind('/') + 1);
  path += "navcpp_worker";
  if (::access(path.c_str(), X_OK) != 0) {
    throw navcpp::support::ConfigError(
        "navcpp_worker not found at " + path +
        "; build it with the benchmark (target navcpp_worker)");
  }
  return path;
}

std::unique_ptr<machine::SimMachine> make_sim(int pes) {
  return std::make_unique<machine::SimMachine>(
      pes, navcpp::perfmodel::Testbed{}.lan);
}

std::unique_ptr<machine::ProcMachine> make_proc(int pes) {
  machine::ProcMachine::Options options;
  options.worker_path = worker_binary();
  return std::make_unique<machine::ProcMachine>(pes, options);
}

double solve_sim(const Problem& problem, machine::SimMachine& sim,
                 std::vector<double>* out) {
  sim.reset();
  return problem.solve(sim, out);
}

// --- correctness gate ------------------------------------------------------

void Verifier::check(const std::string& engine,
                     const std::vector<double>& got) {
  const double err = problem_.error(got);
  if (!(err < problem_.tolerance())) {
    fail(engine + ": max|err| " + std::to_string(err) + " >= tolerance " +
         std::to_string(problem_.tolerance()));
    return;
  }
  if (engine == "sim" && sim_result_.empty()) {
    sim_result_ = got;
  } else if (engine != "seq" && engine != "setup") {
    const bool identical =
        !sim_result_.empty() && got.size() == sim_result_.size() &&
        std::memcmp(got.data(), sim_result_.data(),
                    got.size() * sizeof(double)) == 0;
    if (!identical) {
      fail(engine + ": result is not bit-identical to the sim result");
      return;
    }
  }
  ++attempted_;
}

void Verifier::fail(const std::string& why) {
  ++attempted_;
  ++failed_;
  if (first_failure_.empty()) first_failure_ = why;
}

// --- rounds ----------------------------------------------------------------

void run_rounds(std::vector<Lane>& lanes, Verifier& verifier, double seconds,
                int min_rounds) {
  std::vector<double> got;
  auto solve_once = [&](Lane& lane, bool timed) {
    const Usage before = usage_self();
    const double wall = lane.solve(&got);
    lane.self = lane.self + (usage_self() - before);
    ++lane.solves;
    verifier.check(lane.engine, got);
    if (timed) lane.wall_s.push_back(wall);
    if (lane.after) lane.after(timed);
  };
  for (Lane& lane : lanes) solve_once(lane, false);  // warm-up round
  const navcpp::support::Stopwatch clock;
  for (int round = 0; round < min_rounds || clock.seconds() < seconds;
       ++round) {
    for (Lane& lane : lanes) solve_once(lane, true);
  }
}

Lane sim_lane(const Problem& problem, machine::SimMachine& sim,
              Verifier& verifier, double* virtual_s) {
  Lane lane;
  lane.engine = "sim";
  lane.solve = [&problem, &sim](std::vector<double>* out) {
    return solve_sim(problem, sim, out);
  };
  lane.after = [&sim, &verifier, virtual_s, first = true](bool) mutable {
    if (first) {
      *virtual_s = sim.finish_time();
      first = false;
    } else if (sim.finish_time() != *virtual_s) {
      verifier.fail("sim: virtual time " + std::to_string(sim.finish_time()) +
                    " differs from the first solve's " +
                    std::to_string(*virtual_s));
    }
  };
  return lane;
}

WireTotals wire_totals(const machine::ProcMachine& proc) {
  WireTotals totals;
  totals.hops = proc.transmitted_messages();
  for (int pe = 0; pe < proc.pe_count(); ++pe) {
    const net::WireWorkerStats& s = proc.worker_stats(pe);
    totals.stats.frames_seen += s.frames_seen;
    totals.stats.pings_answered += s.pings_answered;
    totals.stats.posts_granted += s.posts_granted;
    totals.stats.hops_in += s.hops_in;
    totals.stats.hops_out += s.hops_out;
    totals.stats.hop_bytes_in += s.hop_bytes_in;
    totals.stats.direct_hops_in += s.direct_hops_in;
    totals.stats.serialize_ns += s.serialize_ns;
    totals.stats.verify_ns += s.verify_ns;
    totals.stats.busy_ns += s.busy_ns;
    totals.stats.idle_ns += s.idle_ns;
  }
  return totals;
}

// --- single-layer kernels --------------------------------------------------

namespace {

constexpr int kKernelSamples = 31;

/// Median over kKernelSamples of the wall seconds of `batch()`.
template <class Batch>
double median_of_batches(Batch&& batch) {
  std::vector<double> samples;
  samples.reserve(kKernelSamples);
  batch();  // warm-up
  for (int i = 0; i < kKernelSamples; ++i) {
    const navcpp::support::Stopwatch clock;
    batch();
    samples.push_back(clock.seconds());
  }
  return median(std::move(samples));
}

}  // namespace

double gemm_call_s(int order) {
  // About 8 MFLOP per timed batch, so one sample is well above the clock's
  // resolution at every block order; the call count depends only on order.
  const double flops = navcpp::linalg::gemm_flops(order, order, order);
  const int calls = std::max(1, static_cast<int>(8e6 / flops));
  const auto a = navcpp::linalg::Matrix::random(order, order, 11);
  const auto b = navcpp::linalg::Matrix::random(order, order, 12);
  navcpp::linalg::Matrix c(order, order);
  return median_of_batches([&] {
           for (int i = 0; i < calls; ++i) {
             navcpp::linalg::gemm_acc(c.view(), a.view(), b.view());
           }
         }) /
         calls;
}

double stencil_s(int rows, int cols, int sweeps) {
  navcpp::apps::JacobiGrid g =
      navcpp::apps::JacobiGrid::heated_plate(rows, cols);
  navcpp::apps::JacobiGrid next(rows, cols);
  return median_of_batches([&] {
    for (int t = 0; t < sweeps; ++t) {
      navcpp::apps::jacobi_sweep(g, next);
      std::swap(g, next);
    }
  });
}

double codec_s(std::size_t payload_bytes) {
  NAVCPP_CHECK(payload_bytes > 0, "codec_s needs a payload");
  // Frames per timed batch: about 64 KiB of payload, at least one frame.
  const std::size_t frames =
      std::max<std::size_t>(1, (64 * 1024) / payload_bytes);
  int fds[2] = {-1, -1};
  net::wire_socketpair(fds);
  net::FrameConn tx(fds[0]);
  net::FrameConn rx(fds[1]);
  tx.set_nonblocking();
  rx.set_nonblocking();
  net::WireFrame frame;
  frame.type = net::WireType::kHop;
  frame.pe = 1;
  frame.token = 7;
  frame.seq = 1;
  frame.run = 1;
  frame.payload.resize(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    frame.payload[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }
  net::WireFrame got;
  bool ok = true;
  const double batch_s = median_of_batches([&] {
    for (std::size_t i = 0; i < frames && ok; ++i) {
      ok = tx.send_frame(frame);
      while (ok && !rx.next_frame(&got)) {
        if (tx.has_outgoing()) ok = tx.flush();
        ok = ok && rx.read_some();
      }
    }
  });
  tx.close();
  rx.close();
  NAVCPP_CHECK(ok && got.payload == frame.payload,
               "wire codec round trip lost or changed the frame");
  return batch_s / static_cast<double>(frames);
}

}  // namespace navbench
