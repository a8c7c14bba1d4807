#pragma once

// The benchmark's inputs: which programs a workload compiles and runs,
// generated from the workload's seed.

#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "scop/scop.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

enum class ProgramKind { Table9, Random, Matmul, Reduction };

struct ProgramInput {
  std::string name;
  ProgramKind kind = ProgramKind::Table9;
  /// `.loop` source text; empty for programs the dialect cannot express
  /// (the matmul chains read whole rows, the reduction grid uses Xor/Min
  /// accumulations), which come from `build` instead.
  std::string source;
  std::function<pipoly::scop::Scop()> build;
  /// Table9 and Random: the suite spec the real-kernel runner needs.
  pipoly::kernels::ProgramSpec spec;
};

/// Which programs a workload uses; a size of 0 leaves that family out.
struct ProgramSet {
  pipoly::pb::Value table9N = 0;   // Table-9 P1-P10
  std::size_t randomPrograms = 0;  // seeded Table-9-shaped programs
  pipoly::pb::Value randomN = 0;
  pipoly::pb::Value matmulN = 0;   // 3-stage nmm and gnmmt chains
  pipoly::pb::Value reductionN = 0; // the four reduction-grid kernels
};

/// `count` random programs shaped like Table 9's: 3 depth-2 nests, each
/// later nest reading one earlier nest through one of Table 9's access
/// patterns, with random per-nest `num` values. Named R1, R2, ...; the
/// same seed always yields the same specs.
std::vector<pipoly::kernels::ProgramSpec> randomTable9Specs(std::uint64_t seed,
                                                            std::size_t count);

/// The program set of a workload, in an order shuffled by `seed`.
std::vector<ProgramInput> makePrograms(const ProgramSet& set,
                                       std::uint64_t seed);

} // namespace perfbench
