#pragma once

// The seeded random-SCoP generator shared by the differential harnesses
// (parametric detection route, dependence existence test).

#include "scop/builder.hpp"
#include "scop/scop.hpp"
#include "support/rng.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace pipoly::testing {

/// A random program of 2-4 single-writer nests with rectangular domains:
/// identity writes, and cross reads that are mostly separable monotone
/// (coefficients 1-3, offsets that may be negative where the domain's
/// lower bound keeps subscripts legal) with occasional irregular shapes
/// (coupled subscripts, duplicate reads, constant subscripts) thrown in
/// to exercise the per-pair fallback.
inline scop::Scop randomScop(SplitMix64& rng, std::uint64_t tag) {
  const std::size_t nests = 2 + rng.nextBelow(3);
  const std::size_t depth = 1 + rng.nextBelow(2);

  struct ReadSpec {
    std::size_t src;
    enum Kind { Separable, Coupled, Duplicate, ConstantDim } kind;
    std::vector<pb::Value> c, o;
  };
  struct StmtSpec {
    std::vector<pb::Value> lo, hi; // lo <= x < hi
    std::vector<ReadSpec> reads;
  };

  std::vector<StmtSpec> stmts(nests);
  for (std::size_t k = 0; k < nests; ++k) {
    for (std::size_t d = 0; d < depth; ++d) {
      const pb::Value lo = static_cast<pb::Value>(rng.nextBelow(3));
      stmts[k].lo.push_back(lo);
      stmts[k].hi.push_back(lo + 2 + static_cast<pb::Value>(rng.nextBelow(31)));
    }
    for (std::size_t s = 0; s < k; ++s) {
      if (rng.nextBelow(10) >= 7)
        continue;
      ReadSpec r;
      r.src = s;
      const std::uint64_t kind = rng.nextBelow(8);
      if (kind == 0 && depth == 2) {
        r.kind = ReadSpec::Coupled; // A_s[i+j][j]
      } else if (kind == 1) {
        r.kind = ReadSpec::Duplicate;
      } else if (kind == 2) {
        r.kind = ReadSpec::ConstantDim;
      } else {
        r.kind = ReadSpec::Separable;
      }
      for (std::size_t d = 0; d < depth; ++d) {
        pb::Value c = 1 + static_cast<pb::Value>(rng.nextBelow(3));
        if (r.kind == ReadSpec::ConstantDim && d == 0)
          c = 0; // subscript_0 is a constant: non-monotone
        // Keep c*x + o >= 0 over x >= lo so the access stays in bounds.
        const pb::Value minOffset = -c * stmts[k].lo[d];
        const pb::Value o =
            minOffset + static_cast<pb::Value>(rng.nextBelow(
                            static_cast<std::uint64_t>(4 - minOffset + 1)));
        r.c.push_back(c);
        r.o.push_back(o);
      }
      stmts[k].reads.push_back(std::move(r));
    }
  }

  // Array shapes: large enough for the writer and every reader.
  std::vector<std::vector<pb::Value>> shapes(nests);
  for (std::size_t k = 0; k < nests; ++k)
    shapes[k] = stmts[k].hi;
  for (std::size_t k = 0; k < nests; ++k)
    for (const ReadSpec& r : stmts[k].reads)
      for (std::size_t d = 0; d < depth; ++d) {
        pb::Value maxSub;
        if (r.kind == ReadSpec::Coupled)
          maxSub = d == 0 ? (stmts[k].hi[0] - 1) + (stmts[k].hi[1] - 1)
                          : stmts[k].hi[1] - 1;
        else
          maxSub = r.c[d] * (stmts[k].hi[d] - 1) + r.o[d];
        shapes[r.src][d] = std::max(shapes[r.src][d], maxSub + 1);
      }

  scop::ScopBuilder b("rand" + std::to_string(tag));
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < nests; ++k)
    arrays.push_back(b.array("A" + std::to_string(k), shapes[k]));
  for (std::size_t k = 0; k < nests; ++k) {
    auto S = b.statement("S" + std::to_string(k), depth);
    std::vector<pb::AffineExpr> identity;
    for (std::size_t d = 0; d < depth; ++d) {
      S.bound(d, stmts[k].lo[d], stmts[k].hi[d]);
      identity.push_back(S.dim(d));
    }
    S.write(arrays[k], identity);
    for (const ReadSpec& r : stmts[k].reads) {
      std::vector<pb::AffineExpr> subs;
      if (r.kind == ReadSpec::Coupled) {
        subs = {S.dim(0) + S.dim(1), S.dim(1)};
      } else {
        for (std::size_t d = 0; d < depth; ++d)
          subs.push_back(r.c[d] * S.dim(d) + r.o[d]);
      }
      S.read(arrays[r.src], subs);
      if (r.kind == ReadSpec::Duplicate)
        S.read(arrays[r.src], subs);
    }
  }
  return b.build();
}

} // namespace pipoly::testing
