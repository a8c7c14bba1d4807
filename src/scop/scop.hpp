#pragma once

// The SCoP intermediate representation: the instantiated counterpart of
// Polly's static control part. A Scop is an ordered list of consecutive
// loop nests (one statement per nest, as in the paper's program model,
// §1/§4), each with an iteration domain and affine read/write accesses
// into shared arrays.

#include "presburger/affine.hpp"
#include "presburger/map.hpp"
#include "presburger/polyhedron.hpp"
#include "presburger/set.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pipoly::scop {

/// A shared array with instantiated extents.
struct Array {
  std::string name;
  std::vector<pb::Value> shape;

  std::size_t rank() const { return shape.size(); }
  pb::Space space() const { return pb::Space(name, shape.size()); }
};

/// One affine access of a statement into an array. `subscripts` maps the
/// statement's iteration dimensions — optionally extended by auxiliary
/// dimensions — to array subscripts. Auxiliary dimensions express
/// multi-element accesses such as "row i of A" (subscript (i, k) with k an
/// aux dim ranging over [0, auxExtents[0])), which the matrix-multiplication
/// kernels of the paper's second benchmark set need.
struct Access {
  std::size_t arrayId;
  pb::AffineMap subscripts;
  std::vector<pb::Value> auxExtents;

  std::size_t numAuxDims() const { return auxExtents.size(); }
};

/// The declared combination operator of a reduction statement
/// `A[f(i)] = A[f(i)] ⊕ expr`. The SCoP representation is otherwise
/// semantics-opaque, so the operator is an explicit statement property
/// (Polly reads it off the LLVM-IR instruction chain; the builder DSL
/// declares it). All five operators are exactly associative and
/// commutative over uint64 (Add/Mul wrap mod 2^64), which keeps the
/// integer oracle fingerprints bit-exact under any partial-combine order.
enum class ReductionOp : unsigned char { None, Add, Mul, Xor, Min, Max };

std::string_view reductionOpName(ReductionOp op);

/// ⊕ and its identity element (op(x, identity) == x), so folding an
/// untouched partial slot is a no-op.
std::uint64_t applyReductionOp(ReductionOp op, std::uint64_t a,
                               std::uint64_t b);
std::uint64_t reductionIdentity(ReductionOp op);

/// A statement: the body of one loop nest, executed once per point of its
/// iteration domain.
class Statement {
public:
  Statement(std::string name, std::size_t depth, pb::Polyhedron domainPoly,
            pb::IntTupleSet domain, std::vector<Access> writes,
            std::vector<Access> reads,
            ReductionOp reductionOp = ReductionOp::None)
      : name_(std::move(name)), depth_(depth),
        domainPoly_(std::move(domainPoly)), domain_(std::move(domain)),
        writes_(std::move(writes)), reads_(std::move(reads)),
        reductionOp_(reductionOp) {}

  const std::string& name() const { return name_; }
  std::size_t depth() const { return depth_; }
  const pb::Polyhedron& domainPolyhedron() const { return domainPoly_; }
  const pb::IntTupleSet& domain() const { return domain_; }
  const std::vector<Access>& writes() const { return writes_; }
  const std::vector<Access>& reads() const { return reads_; }
  ReductionOp reductionOp() const { return reductionOp_; }
  pb::Space space() const { return domain_.space(); }

private:
  std::string name_;
  std::size_t depth_;
  pb::Polyhedron domainPoly_;
  pb::IntTupleSet domain_;
  std::vector<Access> writes_;
  std::vector<Access> reads_;
  ReductionOp reductionOp_ = ReductionOp::None;
};

class Scop {
public:
  Scop(std::string name, std::vector<Array> arrays,
       std::vector<Statement> statements)
      : name_(std::move(name)), arrays_(std::move(arrays)),
        statements_(std::move(statements)) {}

  const std::string& name() const { return name_; }
  const std::vector<Array>& arrays() const { return arrays_; }
  const std::vector<Statement>& statements() const { return statements_; }
  std::size_t numStatements() const { return statements_.size(); }
  const Statement& statement(std::size_t i) const { return statements_.at(i); }
  const Array& array(std::size_t i) const { return arrays_.at(i); }

  /// The explicit access relation of one access:
  /// { stmt iteration -> array element }.
  pb::IntMap accessRelation(std::size_t stmtIdx, const Access& access) const;

  /// Walks every (iteration, aux point) of one access, domain-major and
  /// aux-lexicographic (the row order of accessRelation), and calls
  /// visit(iteration, subscripts) with flat pointers to depth resp. rank
  /// values that are valid for the call only. No tuple is built per point.
  /// Throws "access out of bounds" on the first subscript outside the
  /// array — the check every explicit access relation goes through.
  template <typename Visit>
  void forEachAccessCell(std::size_t stmtIdx, const Access& access,
                         Visit&& visit) const;

  /// Union of all write (resp. read) access relations of a statement into
  /// one array.
  pb::IntMap writeRelation(std::size_t stmtIdx, std::size_t arrayId) const;
  pb::IntMap readRelation(std::size_t stmtIdx, std::size_t arrayId) const;

  /// Arrays the statement writes (resp. reads), each listed once.
  std::vector<std::size_t> arraysWrittenBy(std::size_t stmtIdx) const;
  std::vector<std::size_t> arraysReadBy(std::size_t stmtIdx) const;

  std::string toString() const;

private:
  /// Checks the subscript function's arity against the statement and the
  /// array.
  static void checkAccessShape(const Statement& stmt, const Array& arr,
                               const Access& access);
  [[noreturn]] static void throwOutOfBounds(const Statement& stmt,
                                            const Array& arr,
                                            const pb::Value* it,
                                            const pb::Value* subs);

  std::string name_;
  std::vector<Array> arrays_;
  std::vector<Statement> statements_;
};

template <typename Visit>
void Scop::forEachAccessCell(std::size_t stmtIdx, const Access& access,
                             Visit&& visit) const {
  const Statement& stmt = statement(stmtIdx);
  const Array& arr = array(access.arrayId);
  checkAccessShape(stmt, arr, access);
  for (pb::Value e : access.auxExtents)
    if (e <= 0)
      return; // empty aux rectangle: the access touches nothing

  // Row-major coefficients: subscript r = consts[r] + coeffs[r*width ..]
  // . (iteration, aux).
  const std::size_t depth = stmt.depth(), rank = arr.rank(),
                    naux = access.numAuxDims(), width = depth + naux;
  std::vector<pb::Value> coeffs(rank * width), consts(rank);
  for (std::size_t r = 0; r < rank; ++r) {
    const pb::AffineExpr& e = access.subscripts.output(r);
    for (std::size_t c = 0; c < width; ++c)
      coeffs[r * width + c] = e.coeff(c);
    consts[r] = e.constantTerm();
  }

  std::vector<pb::Value> base(rank), subs(rank), aux(naux);
  const pb::Value* points = stmt.domain().rowData().data();
  for (std::size_t p = 0, n = stmt.domain().size(); p < n; ++p) {
    const pb::Value* it = depth == 0 ? points : points + p * depth;
    for (std::size_t r = 0; r < rank; ++r) {
      pb::Value v = consts[r];
      for (std::size_t c = 0; c < depth; ++c)
        v += coeffs[r * width + c] * it[c];
      base[r] = v;
    }
    std::fill(aux.begin(), aux.end(), pb::Value{0});
    for (;;) {
      for (std::size_t r = 0; r < rank; ++r) {
        pb::Value v = base[r];
        for (std::size_t a = 0; a < naux; ++a)
          v += coeffs[r * width + depth + a] * aux[a];
        subs[r] = v;
      }
      for (std::size_t r = 0; r < rank; ++r)
        if (subs[r] < 0 || subs[r] >= arr.shape[r])
          throwOutOfBounds(stmt, arr, it, subs.data());
      visit(it, static_cast<const pb::Value*>(subs.data()));
      // Odometer step over the aux rectangle.
      std::size_t a = naux;
      while (a > 0 && ++aux[a - 1] == access.auxExtents[a - 1])
        aux[--a] = 0;
      if (a == 0)
        break;
    }
  }
}

} // namespace pipoly::scop
