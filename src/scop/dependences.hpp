#pragma once

// Dependence analysis over the SCoP:
//
//  * cross-statement flow dependences (writer statement -> reader
//    statement): the explicit relation, which the execution validator
//    uses as ground truth, and the existence test dependsOn, which
//    Algorithm 1 consults to decide whether a pipeline map between a
//    pair of statements exists at all and which never builds it;
//
//  * intra-statement carried-dependence analysis (flow, anti and output
//    self-dependences), which the Polly-like baseline uses to decide which
//    loop dimensions are parallelizable.

#include "presburger/map.hpp"
#include "scop/scop.hpp"

#include <vector>

namespace pipoly::scop {

/// Flow dependences from iterations of `srcIdx` to iterations of `tgtIdx`
/// (over all arrays): { i -> j : src writes some element at i that tgt
/// reads at j }. For srcIdx == tgtIdx only pairs with i lex< j are kept.
pb::IntMap flowDependences(const Scop& scop, std::size_t srcIdx,
                           std::size_t tgtIdx);

/// True when some iteration of `tgtIdx` reads a value written by `srcIdx`
/// — the existence test of Algorithm 1, equal to
/// `!flowDependences(scop, srcIdx, tgtIdx).empty()` without building that
/// relation. Per array `srcIdx` writes, the written cells are collected
/// (linearized, sorted, unique) and every cell `tgtIdx` reads, aux
/// rectangle included, is binary-searched in them. Each access the
/// relation would have built is still walked in full and bounds-checked,
/// so an out-of-bounds write or read throws "access out of bounds" as
/// before. Requires srcIdx < tgtIdx (textual order; the self pair is
/// selfDependences' job).
bool dependsOn(const Scop& scop, std::size_t tgtIdx, std::size_t srcIdx);

/// Per-dimension parallelism of one statement's nest: dimension d is
/// parallel iff no self-dependence (flow, anti or output) is carried at
/// depth d — i.e. no dependent iteration pair first differs at dim d.
std::vector<bool> parallelDims(const Scop& scop, std::size_t stmtIdx);

/// All self-dependences (flow + anti + output) of one statement, restricted
/// to lexicographically increasing pairs.
pb::IntMap selfDependences(const Scop& scop, std::size_t stmtIdx);

/// Enforces the paper's program model (§1): consecutive loop nests where
/// an iteration may depend on earlier iterations of its own nest and on
/// nests before it. Concretely: a later statement must not write to any
/// array an earlier statement reads or writes (no cross-nest anti or
/// output dependences). Throws on violation.
void validateProgramModel(const Scop& scop);

} // namespace pipoly::scop
