#pragma once

// §5.4 — code generation. The bodies of the pipeline loops are extracted
// into tasks; dependency vectors become integer tags (each dimension is
// multiplied by a large stride and summed — the paper's linearisation) and
// are paired with a statement index to distinguish the pw_multi_affs.
//
// The result, TaskProgram, is the backend-agnostic task-parallel program:
// a creation-ordered list of tasks, each with
//   * its statement and block identity,
//   * the block's member iterations (what the extracted function executes),
//   * one out-dependency (idx, tag),
//   * in-dependencies (idx, tag) from the Q_S maps, plus the same-nest
//     ordering dependency (the funcCount protocol of Fig. 8) expressed as
//     an in-dependency on the previous block of the same statement;
// and, for every in-dependency, the id of the task that produces it
// (TaskProgram::producers), so later layers never resolve a tag.

#include "ast/ast.hpp"
#include "pipeline/detect.hpp"
#include "presburger/tuple.hpp"
#include "scop/scop.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace pipoly::codegen {

/// (statement slot, linearised block vector) — the depend-clause key.
struct TaskDep {
  int idx;
  std::int64_t tag;
  /// True for the same-statement ordering dependency (funcCount protocol).
  bool selfOrdering = false;

  friend bool operator==(const TaskDep&, const TaskDep&) = default;
};

/// What a task executes. Block tasks run statement iterations; a
/// ReductionCombine task folds the partial accumulators of a relaxed
/// reduction statement back into its array (one fold call per partial,
/// in deterministic block order).
enum class TaskKind : unsigned char { Block, ReductionCombine };

struct Task {
  std::size_t id; // creation order, 0-based
  std::size_t stmtIdx;
  pb::Tuple blockRep;
  /// For Block tasks: member iterations of the block (arity = statement
  /// depth, lexicographic order). For ReductionCombine tasks: one fold
  /// step per partial block, encoded as arity depth+1 tuples
  /// (k, 0, ..., 0) for partial index k — executors pass them through
  /// the same StatementExecutor callback, and reduction-aware runners
  /// tell the two apart by tuple arity (see kernels/reduction_runner.hpp).
  std::vector<pb::Tuple> iterations;
  TaskDep out;
  std::vector<TaskDep> in;
  TaskKind kind = TaskKind::Block;
};

/// Every in-dependency of a program resolved to the id of the task that
/// produces it: a CSR table parallel to Task::in, where the producer of
/// tasks[i].in[k] is ids[offsets[i] + k].
struct ProducerTable {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> offsets; // tasks.size() + 1 entries, or none
};

/// Cheap census of a task program, used by the exports and benchmark
/// reports to show pre/post-optimization graph shrinkage.
struct ProgramCounts {
  std::size_t tasks = 0;
  std::size_t inEdges = 0;
};

/// Lifetime: consumers that defer execution (the tasking executor's launch
/// records, tasking::CompiledPipeline) hold raw `const Task*` pointers into
/// `tasks`. The vector is stable once lowering returns — nothing appends to
/// a finished program — but the TaskProgram object itself must outlive any
/// such consumer. executeTaskProgram only needs it alive for the duration
/// of the call; CompiledPipeline takes shared ownership instead so replay
/// handles can outlive the caller's scope (see tasking/replay_executor.hpp).
struct TaskProgram {
  std::vector<Task> tasks; // creation order: statement order, blocks lex
  std::size_t numStatements = 0;
  /// writeNum of §5.5: number of statements that are sources of others.
  std::size_t writeNum = 0;
  /// True when every statement uses the paper's strict same-nest block
  /// chain (Fig. 8 funcCount); false when the §7 relaxation replaced the
  /// chain with exact self-dependence edges.
  bool chainOrdering = true;
  /// For each statement, the distinct OTHER statements that read its
  /// output (from the Q_S data-flow requirements; sorted, self excluded).
  /// Recorded at lowering because streaming replay needs direct
  /// readership to bound cross-batch skew, and transitive reduction
  /// legitimately drops the block edges it could otherwise be read off
  /// of (a reader whose edges are all implied by a longer path keeps no
  /// direct edge). Empty for hand-assembled programs; consumers then
  /// fall back to statement-level reachability over the surviving edges,
  /// which reduction preserves.
  std::vector<std::vector<std::size_t>> stmtReaders;
  /// The producer of every in-dependency, emitted by lowerToTasks and kept
  /// in step by opt::optimize, so no later layer resolves tags again.
  /// Empty for hand-assembled programs. Consumers use it only while
  /// producersMatch() holds; a program whose tasks were edited after
  /// lowering is resolved by tag instead (see resolveProducers).
  ProducerTable producers;

  /// Index of the task with the given out-dependency; tasks are unique per
  /// (idx, tag). Linear scan — for bulk resolution use resolveProducers.
  std::optional<std::size_t> taskWithOut(const TaskDep& dep) const;

  /// Task and in-edge counts (for shrinkage reporting).
  ProgramCounts counts() const;

  /// True when `producers` resolves every in-dependency exactly (see
  /// codegen::producersMatch). O(tasks + edges), no hashing.
  bool producersMatch() const;

  /// Checks the program is well formed: every in-dependency names the out
  /// tag of an *earlier* task (OpenMP depend semantics), out tags are
  /// unique, iterations partition domains, etc. Throws on violation.
  /// Hash-free when the program's producer table matches its tasks.
  void validate(const scop::Scop& scop) const;

  std::string toString() const;
};

/// Statement-level readership for streaming executors: stmtReaders when
/// the program records it (exact direct readership), otherwise the
/// transitive closure of the statement-level projection of the surviving
/// in-dependencies — an over-approximation that reduction preserves.
/// Entry s lists the statements (self excluded, ascending) whose batch b
/// must complete before statement s may overwrite its arrays in batch
/// b+1.
std::vector<std::vector<std::size_t>>
statementReadership(const TaskProgram& program);

/// True when `ids`/`offsets` resolve every in-dependency of `program`:
/// one entry per in-dependency, each naming an earlier task whose out
/// dependency equals it. O(tasks + edges), no hashing.
bool producersMatch(const TaskProgram& program,
                    std::span<const std::uint32_t> ids,
                    std::span<const std::uint32_t> offsets);

/// The producer table of `program`: a copy of its own when it matches,
/// otherwise resolved by tag through the hashed owner index. Throws when
/// an in-dependency names no task or a later one.
ProducerTable resolveProducers(const TaskProgram& program);

/// The paper's vector-to-integer linearisation. Every coordinate must be
/// in [0, kLinearStride).
inline constexpr std::int64_t kLinearStride = std::int64_t(1) << 20;
std::int64_t linearizeBlockVector(const pb::Tuple& blockRep);

/// The depend-clause slot of a statement's combine task. Offset by
/// numStatements so combine tags can never collide with the statement's
/// block tags (which use idx == stmtIdx).
TaskDep combineDep(std::size_t numStatements, std::size_t stmtIdx);

/// Lowers the AST to the task program, with its producer table.
TaskProgram lowerToTasks(const scop::Scop& scop, const ast::Ast& ast);

/// Convenience: full front-to-back pipeline compilation
/// (detect -> schedule -> AST -> tasks). Options forward to Algorithm 1
/// (block integration mode, task granularity).
TaskProgram compilePipeline(const scop::Scop& scop,
                            const pipeline::DetectOptions& options = {});

} // namespace pipoly::codegen
