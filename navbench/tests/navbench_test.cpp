// Tests of the benchmark's own machinery: the TimingEngine decorator, the
// sim reuse rule, and proc CPU attribution.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "machine/threaded_machine.h"
#include "timing_engine.h"
#include "workload.h"

namespace navbench {
namespace {

namespace machine = navcpp::machine;
using navcpp::support::MoveFunction;

/// An inner engine that records which Engine calls reached it and runs
/// posted closures inline.
class RecordingEngine final : public machine::Engine {
 public:
  int pe_count() const override { return 2; }
  void post(int, MoveFunction action) override {
    calls += "post ";
    action();
  }
  void post_after(int, double, MoveFunction action) override {
    calls += "post_after ";
    action();
  }
  void transmit(int, int, std::size_t bytes, MoveFunction action) override {
    calls += "transmit:" + std::to_string(bytes) + " ";
    action();
  }
  void charge(int, double seconds) override {
    calls += "charge:" + std::to_string(static_cast<int>(seconds)) + " ";
  }
  double now(int) const override { return 7.0; }
  double finish_time() const override { return 9.0; }
  void task_started() override { calls += "task_started "; }
  void task_finished() override { calls += "task_finished "; }
  void set_blocked_reporter(std::function<std::string()> r) override {
    calls += "reporter:" + r() + " ";
  }
  void fail(std::exception_ptr) noexcept override { calls += "fail "; }
  void run() override { calls += "run "; }

  std::string calls;
};

TEST(TimingEngine, ForwardsEveryCall) {
  RecordingEngine inner;
  TimingEngine timing(inner);
  int ran = 0;
  timing.post(0, [&] { ++ran; });
  timing.post_after(1, 0.5, [&] { ++ran; });
  timing.transmit(0, 1, 64, [&] { ++ran; });
  timing.charge(1, 3.0);
  timing.task_started();
  timing.task_finished();
  timing.set_blocked_reporter([] { return std::string("who"); });
  timing.fail(nullptr);
  timing.run();
  EXPECT_EQ(inner.calls,
            "post post_after transmit:64 charge:3 task_started "
            "task_finished reporter:who fail run ");
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(timing.pe_count(), 2);
  EXPECT_EQ(timing.now(0), 7.0);
  EXPECT_EQ(timing.finish_time(), 9.0);
  EXPECT_EQ(timing.decorated(), &inner);

  const TimingEngine::Sample s = timing.take();
  EXPECT_EQ(s.actions, 3u);
  EXPECT_EQ(s.post_wait_s.size(), 1u);  // timers are not post waits
  EXPECT_EQ(s.hop_latency_s.size(), 1u);
  EXPECT_EQ(s.transmit_call_s.size(), 1u);
  EXPECT_EQ(timing.take().actions, 0u);  // take() clears
}

/// PE 0 sends `n` numbered messages to PE 1; returns the delivery order.
std::vector<int> channel_order(machine::Engine& engine, int n) {
  std::vector<int> order;
  engine.task_started();
  engine.post(0, [&engine, &order, n] {
    for (int i = 0; i < n; ++i) {
      engine.transmit(0, 1, 512, [&engine, &order, i, n] {
        order.push_back(i);
        if (i + 1 == n) engine.task_finished();
      });
    }
  });
  engine.run();
  return order;
}

std::vector<std::unique_ptr<machine::Engine>> all_engines(int pes) {
  std::vector<std::unique_ptr<machine::Engine>> engines;
  engines.push_back(make_sim(pes));
  engines.push_back(std::make_unique<machine::ThreadedMachine>(pes));
  engines.push_back(make_proc(pes));
  return engines;
}

TEST(TimingEngine, KeepsPerChannelFifoOnEveryEngine) {
  constexpr int kMessages = 200;
  std::vector<int> want(kMessages);
  for (int i = 0; i < kMessages; ++i) want[static_cast<std::size_t>(i)] = i;
  for (auto& inner : all_engines(2)) {
    TimingEngine timing(*inner);
    EXPECT_EQ(channel_order(timing, kMessages), want);
    const TimingEngine::Sample s = timing.take();
    EXPECT_EQ(s.actions, static_cast<std::uint64_t>(kMessages + 1));
    EXPECT_EQ(s.hop_latency_s.size(), static_cast<std::size_t>(kMessages));
    EXPECT_EQ(s.transmit_call_s.size(), static_cast<std::size_t>(kMessages));
  }
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(TimingEngine, WorkloadsStayBitIdenticalUnderTheDecorator) {
  for (const WorkloadSpec& spec : workloads()) {
    SCOPED_TRACE(spec.name);
    const Problem problem(spec, 3);
    Verifier verifier(problem);
    std::vector<double> sim_result;
    for (auto& engine : all_engines(spec.pes)) {
      std::vector<double> plain, traced;
      problem.solve(*engine, &plain);
      if (auto* sim = dynamic_cast<machine::SimMachine*>(engine.get())) {
        sim->reset();
      }
      TimingEngine timing(*engine);
      problem.solve(timing, &traced);
      EXPECT_TRUE(bit_identical(plain, traced));
      EXPECT_GT(timing.take().actions, 0u);
      if (sim_result.empty()) {
        sim_result = plain;
        verifier.check("sim", plain);
      } else {
        verifier.check("threaded", plain);
      }
      verifier.check("threaded", traced);
    }
    EXPECT_EQ(verifier.failed(), 0u) << verifier.first_failure();
    EXPECT_EQ(verifier.attempted(), 6u);
  }
}

TEST(Verifier, RejectsAResultThatIsNotBitIdenticalToSim) {
  const Problem problem(find_workload("jacobi-chain"), 1);
  Verifier verifier(problem);
  std::vector<double> got;
  problem.solve_sequential(&got);
  verifier.check("sim", got);
  got[got.size() / 2] += 1e-14;  // within tolerance, not bit-identical
  verifier.check("proc", got);
  EXPECT_EQ(verifier.attempted(), 2u);
  EXPECT_EQ(verifier.failed(), 1u);
}

TEST(SimReuse, VirtualTimeRepeatsOnConsecutiveSolves) {
  const Problem problem(find_workload("mm-burst"), 5);
  auto sim = make_sim(4);
  std::vector<double> got;
  solve_sim(problem, *sim, &got);
  const double first = sim->finish_time();
  solve_sim(problem, *sim, &got);
  EXPECT_EQ(sim->finish_time(), first);
  // The trap solve_sim avoids: without reset() the clocks keep running.
  problem.solve(*sim, &got);
  EXPECT_GT(sim->finish_time(), first);
}

TEST(ProcCpu, WorkerCpuCountsOnceTheEngineIsDestroyed) {
  const Problem problem(find_workload("mm-burst"), 2);
  Verifier verifier(problem);
  auto sim = make_sim(4);
  auto proc = make_proc(4);
  double virtual_s = 0.0;
  std::vector<Lane> lanes;
  lanes.push_back(sim_lane(problem, *sim, verifier, &virtual_s));
  Lane proc_lane;
  proc_lane.engine = "proc";
  proc_lane.solve = [&](std::vector<double>* out) {
    return problem.solve(*proc, out);
  };
  lanes.push_back(std::move(proc_lane));

  const Usage children0 = usage_children();
  run_rounds(lanes, verifier, 0.0, 3);
  EXPECT_EQ(verifier.failed(), 0u) << verifier.first_failure();
  EXPECT_EQ(lanes[1].solves, 4u);  // warm-up + 3
  EXPECT_EQ(lanes[1].wall_s.size(), 3u);
  // Live workers have not been waited for: none of their CPU shows yet.
  EXPECT_EQ((usage_children() - children0).cpu_s(), 0.0);
  proc.reset();
  // proc.cpu_s = parent + workers, which now exceeds the parent's own.
  const Usage workers = usage_children() - children0;
  EXPECT_GT(workers.cpu_s(), 0.0);
  EXPECT_GT(lanes[1].self.cpu_s() + workers.cpu_s(), lanes[1].self.cpu_s());
}

TEST(Stats, TailKeepsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 40; ++i) v.push_back(i);
  const Tail t = tail(v);
  EXPECT_EQ(t.value, 30.0);
  EXPECT_EQ(t.percentile, 75.0);
  EXPECT_EQ(t.samples, 40u);
  EXPECT_EQ(median(v), 20.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.1), 4.9);
  EXPECT_EQ(quantile(v, 0.0), 1.0);
  EXPECT_EQ(quantile(v, 1.0), 40.0);
}

}  // namespace
}  // namespace navbench
