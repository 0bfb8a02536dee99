// TimingEngine: a benchmark-owned machine::Engine decorator that times the
// engine layer from the outside.
//
// Every Engine call is forwarded unchanged to the wrapped engine.  post(),
// post_after() and transmit() additionally wrap the closure they carry, so
// that, when the inner engine runs it, the decorator learns
//
//   * how long the closure sat between post() and its start (run queue,
//     and on the proc backend the worker grant round trip),
//   * how long a hop took from transmit() to the start of on_delivery,
//   * how long the closure itself ran (time inside actions),
//
// and it times each transmit() call itself.  The wrapped closure is handed
// to the same inner entry point on the same PE / channel, so per-PE
// one-at-a-time execution and per-channel FIFO order are the inner
// engine's, untouched.
//
// Samples land in one record per PE.  A record is written by actions
// running on its PE (and by transmit() calls whose source is that PE), each
// under the record's own mutex, so the threaded backend's concurrent PEs
// never share a lock on the hot path.  take() returns and clears everything
// between solves; it must not race a run().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "machine/engine.h"
#include "support/move_function.h"

namespace navbench {

class TimingEngine final : public navcpp::machine::Engine {
 public:
  /// What the decorator saw during one run (one solve).
  struct Sample {
    std::uint64_t actions = 0;           ///< closures executed
    double action_s = 0.0;               ///< summed time inside closures
    double max_pe_action_s = 0.0;        ///< busiest PE's time inside closures
    std::vector<double> post_wait_s;     ///< post() -> closure start
    std::vector<double> hop_latency_s;   ///< transmit() -> on_delivery start
    std::vector<double> transmit_call_s; ///< time inside transmit()
  };

  explicit TimingEngine(navcpp::machine::Engine& inner) : inner_(inner) {
    for (int pe = 0; pe < inner_.pe_count(); ++pe) {
      records_.push_back(std::make_unique<PeRecord>());
    }
  }
  // Wrapped closures hold `this` until the inner engine runs them.
  TimingEngine(const TimingEngine&) = delete;
  TimingEngine& operator=(const TimingEngine&) = delete;

  int pe_count() const override { return inner_.pe_count(); }

  void post(int pe, navcpp::support::MoveFunction action) override {
    inner_.post(pe, wrap(pe, Clock::now(), Kind::kPost, std::move(action)));
  }

  void post_after(int pe, double delay_seconds,
                  navcpp::support::MoveFunction action) override {
    // A timer waits on purpose; only its closure time is recorded.
    inner_.post_after(pe, delay_seconds,
                      wrap(pe, Clock::now(), Kind::kTimer, std::move(action)));
  }

  void transmit(int src, int dst, std::size_t bytes,
                navcpp::support::MoveFunction on_delivery) override {
    const Clock::time_point start = Clock::now();
    inner_.transmit(src, dst, bytes,
                    wrap(dst, start, Kind::kHop, std::move(on_delivery)));
    const double call_s = seconds(Clock::now() - start);
    PeRecord& rec = record_of(src);
    std::lock_guard<std::mutex> lock(rec.mutex);
    rec.transmit_call_s.push_back(call_s);
  }

  void charge(int pe, double seconds) override { inner_.charge(pe, seconds); }
  double now(int pe) const override { return inner_.now(pe); }
  double finish_time() const override { return inner_.finish_time(); }
  void task_started() override { inner_.task_started(); }
  void task_finished() override { inner_.task_finished(); }
  void set_blocked_reporter(std::function<std::string()> reporter) override {
    inner_.set_blocked_reporter(std::move(reporter));
  }
  void fail(std::exception_ptr error) noexcept override { inner_.fail(error); }
  void run() override { inner_.run(); }
  // navp::Runtime walks decorated() to attach metrics to every layer, so
  // set_metrics is deliberately not forwarded (Engine's contract).
  Engine* decorated() override { return &inner_; }

  /// Return everything recorded since the last take() and start afresh.
  Sample take() {
    Sample out;
    for (auto& rec_ptr : records_) {
      PeRecord& rec = *rec_ptr;
      std::lock_guard<std::mutex> lock(rec.mutex);
      out.actions += rec.actions;
      out.action_s += rec.action_s;
      if (rec.action_s > out.max_pe_action_s) {
        out.max_pe_action_s = rec.action_s;
      }
      move_append(out.post_wait_s, rec.post_wait_s);
      move_append(out.hop_latency_s, rec.hop_latency_s);
      move_append(out.transmit_call_s, rec.transmit_call_s);
      rec.actions = 0;
      rec.action_s = 0.0;
    }
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;
  enum class Kind : std::uint8_t { kPost, kTimer, kHop };

  struct PeRecord {
    std::mutex mutex;
    std::uint64_t actions = 0;
    double action_s = 0.0;
    std::vector<double> post_wait_s;
    std::vector<double> hop_latency_s;
    std::vector<double> transmit_call_s;
  };

  static double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  /// Append `from` to `to` and leave `from` empty.
  static void move_append(std::vector<double>& to, std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
    from.clear();
  }

  PeRecord& record_of(int pe) {
    return *records_.at(static_cast<std::size_t>(pe));
  }

  navcpp::support::MoveFunction wrap(int pe, Clock::time_point issued,
                                     Kind kind,
                                     navcpp::support::MoveFunction action) {
    return [this, pe, issued, kind, action = std::move(action)]() mutable {
      const Clock::time_point start = Clock::now();
      action();
      const double run_s = seconds(Clock::now() - start);
      PeRecord& rec = record_of(pe);
      std::lock_guard<std::mutex> lock(rec.mutex);
      ++rec.actions;
      rec.action_s += run_s;
      if (kind == Kind::kPost) {
        rec.post_wait_s.push_back(seconds(start - issued));
      } else if (kind == Kind::kHop) {
        rec.hop_latency_s.push_back(seconds(start - issued));
      }
    };
  }

  navcpp::machine::Engine& inner_;
  std::vector<std::unique_ptr<PeRecord>> records_;
};

}  // namespace navbench
