#include "workload.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/matrix.h"
#include "mm/sequential_mm.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace navbench {

namespace mm = navcpp::mm;
namespace apps = navcpp::apps;
namespace linalg = navcpp::linalg;

std::size_t WorkloadSpec::cargo_bytes() const {
  return is_mm ? static_cast<std::size_t>(block) *
                     static_cast<std::size_t>(block) * sizeof(double)
               : static_cast<std::size_t>(cols) * sizeof(double);
}

std::uint64_t WorkloadSpec::gemm_calls() const {
  if (!is_mm) return 0;
  const auto nb = static_cast<std::uint64_t>(order / block);
  return nb * nb * nb;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec coarse;
    coarse.name = "mm-coarse";
    coarse.program = "mm/phase2d";
    coarse.variant = mm::Navp2dVariant::kPhaseShifted;
    coarse.order = 512;
    coarse.block = 128;
    v.push_back(coarse);

    WorkloadSpec burst;
    burst.name = "mm-burst";
    burst.program = "mm/pipe2d";
    burst.variant = mm::Navp2dVariant::kPipelined;
    burst.order = 256;
    burst.block = 16;
    v.push_back(burst);

    WorkloadSpec chain;
    chain.name = "jacobi-chain";
    chain.program = "jacobi/dataflow";
    chain.is_mm = false;
    chain.rows = 34;
    chain.cols = 64;
    chain.sweeps = 500;
    v.push_back(chain);
    return v;
  }();
  return all;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw navcpp::support::ConfigError("unknown workload '" + name +
                                     "' (mm-coarse, mm-burst, jacobi-chain)");
}

Problem::Problem(const WorkloadSpec& spec, std::uint64_t seed) : spec_(spec) {
  navcpp::support::SplitMix64 seeds(seed);
  if (spec_.is_mm) {
    const int n = spec_.order;
    a_ = linalg::to_blocks(linalg::Matrix::random(n, n, seeds.next()),
                           spec_.block);
    b_ = linalg::to_blocks(linalg::Matrix::random(n, n, seeds.next()),
                           spec_.block);
  } else {
    // The heated plate with a seeded interior: the seed changes every value
    // the sweeps compute, never the amount of work.
    initial_ = apps::JacobiGrid::heated_plate(spec_.rows, spec_.cols);
    navcpp::support::Rng rng(seeds.next());
    for (int r = 1; r + 1 < spec_.rows; ++r) {
      for (int c = 1; c + 1 < spec_.cols; ++c) {
        initial_.at(r, c) = rng.uniform();
      }
    }
  }
  solve_sequential(&reference_);
}

mm::MmConfig Problem::mm_config() const {
  mm::MmConfig cfg;
  cfg.order = spec_.order;
  cfg.block_order = spec_.block;
  return cfg;
}

apps::JacobiConfig Problem::jacobi_config() const {
  apps::JacobiConfig cfg;
  cfg.rows = spec_.rows;
  cfg.cols = spec_.cols;
  cfg.sweeps = spec_.sweeps;
  return cfg;
}

double Problem::solve(navcpp::machine::Engine& engine,
                      std::vector<double>* out) const {
  if (spec_.is_mm) {
    linalg::BlockGrid<linalg::RealStorage> c(spec_.order, spec_.block);
    const navcpp::support::Stopwatch clock;
    mm::navp_mm_2d(engine, mm_config(), spec_.variant, a_, b_, c);
    const double wall = clock.seconds();
    const linalg::Matrix flat = linalg::from_blocks(c);
    out->assign(flat.flat().begin(), flat.flat().end());
    return wall;
  }
  const navcpp::support::Stopwatch clock;
  apps::JacobiGrid got = apps::jacobi_navp(engine, jacobi_config(),
                                           apps::JacobiVariant::kDataflow,
                                           initial_);
  const double wall = clock.seconds();
  *out = std::move(got.u);
  return wall;
}

double Problem::solve_sequential(std::vector<double>* out) const {
  if (spec_.is_mm) {
    linalg::BlockGrid<linalg::RealStorage> c(spec_.order, spec_.block);
    const navcpp::support::Stopwatch clock;
    mm::sequential_mm(a_, b_, c);
    const double wall = clock.seconds();
    const linalg::Matrix flat = linalg::from_blocks(c);
    out->assign(flat.flat().begin(), flat.flat().end());
    return wall;
  }
  const navcpp::support::Stopwatch clock;
  apps::JacobiGrid got = apps::jacobi_sequential(initial_, spec_.sweeps);
  const double wall = clock.seconds();
  *out = std::move(got.u);
  return wall;
}

double Problem::error(const std::vector<double>& got) const {
  if (got.size() != reference_.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double diff = std::abs(got[i] - reference_[i]);
    // A NaN must fail the check, not compare as "no larger".
    if (std::isnan(diff)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, diff);
  }
  return worst;
}

}  // namespace navbench
