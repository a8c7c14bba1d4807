#include "pipeline/pipeline_map.hpp"

#include "support/assert.hpp"

#include <algorithm>

namespace pipoly::pipeline {

pb::IntMap producerRelation(const scop::Scop& scop, std::size_t srcIdx,
                            std::size_t tgtIdx, bool allowNonInjective) {
  const scop::Statement& src = scop.statement(srcIdx);
  const scop::Statement& tgt = scop.statement(tgtIdx);
  pb::IntMap p(tgt.space(), src.space());
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    pb::IntMap wr = scop.writeRelation(srcIdx, arrayId);
    pb::IntMap rd = scop.readRelation(tgtIdx, arrayId);
    if (wr.empty() || rd.empty())
      continue;
    PIPOLY_CHECK_MSG(allowNonInjective || wr.isInjective(),
                     "statement " + src.name() + " overwrites array " +
                         scop.array(arrayId).name +
                         " (the paper assumes injective write relations; "
                         "set allowNonInjectiveWrites to relax)");
    p = p.unite(wr.inverse().compose(rd));
  }
  return p;
}

pb::IntMap lastRequirementMap(const pb::IntMap& producer) {
  // H(j) = lexmax over { P(j') : j' lexle j, j' in Dom(P) }. The pairs of
  // lexmaxPerDomain(P) are sorted by target iteration, so H is a running
  // lexmax over that order.
  pb::IntMap perIteration = producer.lexmaxPerDomain();
  std::vector<pb::IntMap::Pair> pairs;
  pairs.reserve(perIteration.size());
  bool first = true;
  pb::Tuple running;
  for (const auto& [j, i] : perIteration.pairs()) {
    if (first || i > running) {
      running = i;
      first = false;
    }
    pairs.emplace_back(j, running);
  }
  return pb::IntMap(producer.domainSpace(), producer.rangeSpace(),
                    std::move(pairs));
}

pb::IntMap pipelineMap(const scop::Scop& scop, std::size_t srcIdx,
                       std::size_t tgtIdx, bool allowNonInjective) {
  const scop::Statement& src = scop.statement(srcIdx);
  const scop::Statement& tgt = scop.statement(tgtIdx);
  const std::size_t srcA = src.space().arity(), tgtA = tgt.space().arity();
  // lexmax(P)(j) is the max, over the cells j reads, of each cell's last
  // writer: pair every read with the last writer of its cell instead of
  // building P, which a non-injective write makes |writers| times larger.
  pb::RowBuffer candidates;
  bool found = false;
  for (std::size_t arrayId : scop.arraysWrittenBy(srcIdx)) {
    pb::IntMap wr = scop.writeRelation(srcIdx, arrayId);
    pb::IntMap rd = scop.readRelation(tgtIdx, arrayId);
    if (wr.empty() || rd.empty())
      continue;
    PIPOLY_CHECK_MSG(allowNonInjective || wr.isInjective(),
                     "statement " + src.name() + " overwrites array " +
                         scop.array(arrayId).name +
                         " (the paper assumes injective write relations; "
                         "set allowNonInjectiveWrites to relax)");
    const pb::IntMap last = wr.inverse().lexmaxPerDomain(); // cell -> writer
    const std::size_t cellA = rd.rangeSpace().arity();
    const std::size_t lastW = cellA + srcA, rdW = tgtA + cellA;
    const pb::Value* lastRows = last.rowData().data();
    const pb::Value* rdRows = rd.rowData().data();
    for (std::size_t r = 0; r < rd.size(); ++r) {
      const pb::Value* read = rdRows + r * rdW;
      const pb::Value* cell = read + tgtA;
      const std::size_t k = pb::rows::lowerBound(lastRows, last.size(), lastW,
                                                 0, cell, cellA);
      if (k == last.size() ||
          !pb::rows::equal(lastRows + k * lastW, cell, cellA))
        continue; // a cell the source never writes
      found = true;
      pb::rows::append(candidates, read, tgtA);
      pb::rows::append(candidates, lastRows + k * lastW + cellA, srcA);
    }
  }
  if (!found)
    return pb::IntMap(src.space(), tgt.space());
  // Depth-0 statements on both sides: a width-0 buffer cannot carry the
  // single () -> () pair.
  const pb::IntMap perIteration =
      srcA + tgtA == 0
          ? pb::IntMap(tgt.space(), src.space(), {{pb::Tuple(), pb::Tuple()}})
          : pb::IntMap::fromRows(tgt.space(), src.space(),
                                 std::move(candidates))
                .lexmaxPerDomain();
  return lastRequirementMap(perIteration).inverse().lexmaxPerDomain();
}

pb::IntMap pipelineMapNaive(const scop::Scop& scop, std::size_t srcIdx,
                            std::size_t tgtIdx, bool allowNonInjective) {
  pb::IntMap p = producerRelation(scop, srcIdx, tgtIdx, allowNonInjective);
  if (p.empty())
    return pb::IntMap(scop.statement(srcIdx).space(),
                      scop.statement(tgtIdx).space());
  // D' maps each member of Dom(P) to all members lexle it.
  pb::IntMap dPrime = pb::IntMap::lexGeContains(p.domain());
  pb::IntMap h = p.compose(dPrime).lexmaxPerDomain();
  return h.inverse().lexmaxPerDomain();
}

} // namespace pipoly::pipeline
