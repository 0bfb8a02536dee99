// The benchmark's workloads: NavP catalog programs at stated sizes, their
// seeded inputs, their sequential reference, and one solve on any engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/jacobi.h"
#include "linalg/block.h"
#include "machine/engine.h"
#include "mm/navp_mm_2d.h"

namespace navbench {

/// One named workload.  MM workloads use `order`/`block`/`variant`; the
/// Jacobi workload uses `rows`/`cols`/`sweeps` (dataflow variant).
struct WorkloadSpec {
  std::string name;
  std::string program;  ///< catalog name, e.g. "mm/phase2d"
  bool is_mm = true;
  navcpp::mm::Navp2dVariant variant = navcpp::mm::Navp2dVariant::kPhaseShifted;
  int order = 0;
  int block = 0;
  int rows = 0;
  int cols = 0;
  int sweeps = 0;
  int pes = 4;

  /// Bytes of cargo one data hop carries: one block, or one grid row.
  std::size_t cargo_bytes() const;
  /// GEMM calls of one solve (nb^3 block products; 0 for Jacobi).
  std::uint64_t gemm_calls() const;
};

/// mm-coarse, mm-burst, jacobi-chain.
const std::vector<WorkloadSpec>& workloads();

/// Throws navcpp::support::ConfigError on an unknown name.
const WorkloadSpec& find_workload(const std::string& name);

/// The inputs one seed generates, the sequential reference result, and the
/// solvers.  Results are flat row-major vectors (C for MM, u for Jacobi).
class Problem {
 public:
  Problem(const WorkloadSpec& spec, std::uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }

  /// Solve on `engine` and return the wall seconds of the solver call
  /// alone; the result goes to `*out` after the clock stops.
  double solve(navcpp::machine::Engine& engine, std::vector<double>* out) const;

  /// The plain single-threaded baseline (sequential_mm / jacobi_sequential),
  /// timed the same way.
  double solve_sequential(std::vector<double>* out) const;

  /// The sequential result the constructor computed.
  const std::vector<double>& reference() const { return reference_; }

  /// Largest |got - reference|; +inf when the sizes differ.
  double error(const std::vector<double>& got) const;

  /// Accepted error: 1e-9 for MM, 1e-12 for Jacobi (as the catalog checks).
  double tolerance() const { return spec_.is_mm ? 1e-9 : 1e-12; }

 private:
  navcpp::mm::MmConfig mm_config() const;
  navcpp::apps::JacobiConfig jacobi_config() const;

  WorkloadSpec spec_;
  navcpp::linalg::BlockGrid<navcpp::linalg::RealStorage> a_;
  navcpp::linalg::BlockGrid<navcpp::linalg::RealStorage> b_;
  navcpp::apps::JacobiGrid initial_;
  std::vector<double> reference_;
};

}  // namespace navbench
