#include "programs.hpp"

#include "kernels/matmul.hpp"
#include "support/rng.hpp"

#include <array>
#include <utility>

namespace perfbench {

using namespace pipoly;

std::vector<kernels::ProgramSpec> randomTable9Specs(std::uint64_t seed,
                                                    std::size_t count) {
  // Subscript patterns that occur in Table 9 ({r0i, r0j, r0c, r1i, r1j,
  // r1c}): identity, 2x stride, i+j skew, column stride, skewed stride.
  // They mix the parametric, symbolic and fallback detection routes.
  static constexpr std::array<std::array<int, 6>, 5> kPatterns = {{
      {1, 0, 0, 0, 1, 0},
      {2, 0, 0, 0, 2, 0},
      {1, 1, 0, 0, 1, 0},
      {1, 0, 0, 0, 2, 0},
      {2, 1, 0, 0, 2, 0},
  }};
  static constexpr std::array<int, 3> kNums = {1, 2, 8};
  constexpr std::size_t kNests = 3;

  SplitMix64 rng(seed);
  std::vector<kernels::ProgramSpec> specs;
  for (std::size_t p = 0; p < count; ++p) {
    kernels::ProgramSpec spec;
    spec.name = "R" + std::to_string(p + 1);
    spec.reads.resize(kNests);
    for (std::size_t k = 0; k < kNests; ++k) {
      spec.nums.push_back(kNums[rng.nextBelow(kNums.size())]);
      if (k == 0)
        continue;
      const auto& pat = kPatterns[rng.nextBelow(kPatterns.size())];
      spec.reads[k].push_back({static_cast<std::size_t>(rng.nextBelow(k)),
                               pat[0], pat[1], pat[2], pat[3], pat[4],
                               pat[5]});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<ProgramInput> makePrograms(const ProgramSet& set,
                                       std::uint64_t seed) {
  std::vector<ProgramInput> programs;
  if (set.table9N > 0)
    for (const kernels::ProgramSpec& spec : kernels::table9Programs())
      programs.push_back({spec.name, ProgramKind::Table9,
                          kernels::renderProgramSource(spec, set.table9N), {},
                          spec});
  for (kernels::ProgramSpec& spec :
       randomTable9Specs(seed, set.randomPrograms)) {
    std::string source = kernels::renderProgramSource(spec, set.randomN);
    std::string name = spec.name;
    programs.push_back({std::move(name), ProgramKind::Random,
                        std::move(source), {}, std::move(spec)});
  }
  if (set.matmulN > 0)
    for (kernels::MatmulVariant v :
         {kernels::MatmulVariant::NMM, kernels::MatmulVariant::GNMMT}) {
      const pb::Value n = set.matmulN;
      programs.push_back({kernels::variantName(v) + "3",
                          ProgramKind::Matmul,
                          {},
                          [v, n] { return kernels::matmulChain(v, 3, n); },
                          {}});
    }
  if (set.reductionN > 0)
    for (const kernels::ReductionKernelSpec& red :
         kernels::reductionKernels()) {
      const pb::Value n = set.reductionN;
      auto build = red.build;
      programs.push_back({red.name, ProgramKind::Reduction, {},
                          [build, n] { return build(n); }, {}});
    }

  // Fisher-Yates with its own stream, so the order does not depend on how
  // many numbers the program generator drew.
  SplitMix64 rng(seed ^ 0x5eedf00dcafeULL);
  for (std::size_t i = programs.size(); i > 1; --i)
    std::swap(programs[i - 1], programs[rng.nextBelow(i)]);
  return programs;
}

} // namespace perfbench
