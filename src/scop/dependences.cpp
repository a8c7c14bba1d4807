#include "scop/dependences.hpp"

#include "support/assert.hpp"

#include <algorithm>
#include <cstdint>

namespace pipoly::scop {

namespace {

/// { i -> j : from relates i to element m, to relates j to the same m },
/// i.e. to^-1 ( from ) with `from`'s range and `to`'s range in the same
/// array space.
pb::IntMap joinOnArray(const pb::IntMap& from, const pb::IntMap& to) {
  return to.inverse().compose(from);
}

pb::IntMap keepLexIncreasing(const pb::IntMap& m) {
  std::vector<pb::IntMap::Pair> pairs;
  for (const auto& [i, j] : m.pairs())
    if (i < j)
      pairs.emplace_back(i, j);
  return pb::IntMap(m.domainSpace(), m.rangeSpace(), std::move(pairs));
}

} // namespace

pb::IntMap flowDependences(const Scop& scop, std::size_t srcIdx,
                           std::size_t tgtIdx) {
  const Statement& src = scop.statement(srcIdx);
  const Statement& tgt = scop.statement(tgtIdx);
  pb::IntMap result(src.space(), tgt.space());
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    pb::IntMap wr = scop.writeRelation(srcIdx, arrayId);
    pb::IntMap rd = scop.readRelation(tgtIdx, arrayId);
    if (wr.empty() || rd.empty())
      continue;
    result = result.unite(joinOnArray(wr, rd));
  }
  if (srcIdx == tgtIdx)
    result = keepLexIncreasing(result);
  return result;
}

bool dependsOn(const Scop& scop, std::size_t tgtIdx, std::size_t srcIdx) {
  PIPOLY_CHECK_MSG(srcIdx < tgtIdx,
                   "dependsOn expects source textually before target");
  const Statement& src = scop.statement(srcIdx);
  const Statement& tgt = scop.statement(tgtIdx);
  bool found = false;
  std::vector<std::uint64_t> written; // linearized cells, sorted, unique
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    const Array& arr = scop.array(arrayId);
    std::uint64_t cells = 1;
    bool fits = true;
    for (pb::Value extent : arr.shape)
      fits = fits && !__builtin_mul_overflow(
                         cells,
                         static_cast<std::uint64_t>(std::max<pb::Value>(
                             extent, 0)),
                         &cells);
    PIPOLY_CHECK_MSG(fits, "array " + arr.name + " too large to linearize");
    const auto linear = [&arr](const pb::Value* subs) {
      std::uint64_t cell = 0; // row-major; subs are bounds-checked
      for (std::size_t d = 0; d < arr.rank(); ++d)
        cell = cell * static_cast<std::uint64_t>(arr.shape[d]) +
               static_cast<std::uint64_t>(subs[d]);
      return cell;
    };

    written.clear();
    for (const Access& w : src.writes())
      if (w.arrayId == arrayId)
        scop.forEachAccessCell(srcIdx, w,
                               [&](const pb::Value*, const pb::Value* subs) {
                                 written.push_back(linear(subs));
                               });
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()), written.end());

    // Every read is walked to the end, hit or not: the walk is also the
    // bounds check of each access the explicit relation would have built.
    for (const Access& r : tgt.reads())
      if (r.arrayId == arrayId)
        scop.forEachAccessCell(
            tgtIdx, r, [&](const pb::Value*, const pb::Value* subs) {
              found = found || std::binary_search(written.begin(),
                                                  written.end(), linear(subs));
            });
  }
  return found;
}

pb::IntMap selfDependences(const Scop& scop, std::size_t stmtIdx) {
  const Statement& stmt = scop.statement(stmtIdx);
  pb::IntMap result(stmt.space(), stmt.space());

  for (std::size_t arrayId : scop.arraysWrittenBy(stmtIdx)) {
    pb::IntMap wr = scop.writeRelation(stmtIdx, arrayId);
    // Flow: write at i, read at j.
    pb::IntMap rd = scop.readRelation(stmtIdx, arrayId);
    if (!rd.empty()) {
      result = result.unite(joinOnArray(wr, rd)); // flow (i writes, j reads)
      result = result.unite(joinOnArray(rd, wr)); // anti (i reads, j writes)
    }
    // Output: write at i, write at j.
    result = result.unite(joinOnArray(wr, wr));
  }
  return keepLexIncreasing(result);
}

void validateProgramModel(const Scop& scop) {
  for (std::size_t t = 0; t < scop.numStatements(); ++t) {
    for (std::size_t arrayId : scop.arraysWrittenBy(t)) {
      for (std::size_t s = 0; s < t; ++s) {
        const bool earlierWrites =
            !scop.writeRelation(s, arrayId).empty();
        const bool earlierReads = !scop.readRelation(s, arrayId).empty();
        PIPOLY_CHECK_MSG(
            !earlierWrites && !earlierReads,
            "statement " + scop.statement(t).name() + " writes array " +
                scop.array(arrayId).name + " that earlier statement " +
                scop.statement(s).name() +
                " accesses — outside the paper's program model");
      }
    }
  }
}

std::vector<bool> parallelDims(const Scop& scop, std::size_t stmtIdx) {
  const Statement& stmt = scop.statement(stmtIdx);
  std::vector<bool> parallel(stmt.depth(), true);
  const pb::IntMap deps = selfDependences(scop, stmtIdx);
  for (const auto& [i, j] : deps.pairs()) {
    for (std::size_t d = 0; d < stmt.depth(); ++d) {
      if (i[d] != j[d]) {
        parallel[d] = false; // dependence carried at depth d
        break;
      }
    }
  }
  return parallel;
}

} // namespace pipoly::scop
