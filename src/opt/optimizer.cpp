#include "opt/optimizer.hpp"

#include "support/assert.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <sstream>

namespace pipoly::opt {

namespace {

using codegen::ProducerTable;
using codegen::Task;
using codegen::TaskKind;
using codegen::TaskProgram;

std::size_t countEdges(const TaskProgram& program) {
  std::size_t edges = 0;
  for (const Task& t : program.tasks)
    edges += t.in.size();
  return edges;
}

std::vector<std::uint32_t> countDependents(const ProducerTable& lists,
                                           std::size_t numTasks) {
  std::vector<std::uint32_t> dependents(numTasks, 0);
  for (std::uint32_t p : lists.ids)
    ++dependents[p];
  return dependents;
}

/// Pass 1: transitive reduction. Creation order is a topological order
/// (validated: every in-dependency names an earlier task), so one forward
/// sweep decides every edge: p -> v is implied exactly when p is a strict
/// ancestor of another direct predecessor of v, and dropping it leaves
/// the closure untouched. A DAG has exactly one transitive reduction, so
/// the result does not depend on how ancestry is represented.
///
/// Under chainOrdering the same-statement funcCount edge is kept even if
/// implied — TaskProgram::validate() requires the chain to be explicit,
/// and backends with funcCountOrdering re-derive it anyway.
///
/// Ancestry is kept as per-chain labels, not as a dense V x V set: the
/// compile_mix benchmark lowers programs of ~16k tasks, where a dense set
/// is a 32 MB matrix per call. The same sweep covers the tasks with
/// chains, which are paths of the graph: a task extends the chain of a
/// predecessor that is still that chain's tail, preferring its
/// selfOrdering predecessor, and otherwise starts a new chain. (Under
/// chainOrdering a statement's blocks are contiguous, so each statement's
/// blocks lie on one chain.) Since a chain is a path, a task's ancestors
/// on a chain form a prefix of it, and one number per chain — the highest
/// ancestor position — describes them. label(v) holds that number for
/// each chain, counting only tasks with >= 2 dependents: an edge out of a
/// task with a single dependent is never implied (a path to another
/// predecessor would be a second dependent). That keeps, for example,
/// reduction partial blocks, whose one dependent is the combine, out of
/// every label. The test stays exact: if p is an ancestor of a
/// predecessor it has >= 2 dependents and is counted itself; if a counted
/// ancestor sits at or above p's position, p is an ancestor by the prefix
/// property.
///
/// Cost: O((V + E) * W) time and O(V * W) label memory, where W is the
/// number of chains in a label — the statement count on chain-ordered
/// programs.
std::size_t transitiveReduce(TaskProgram& program, ProducerTable& lists) {
  constexpr std::uint32_t kNone = UINT32_MAX;
  const std::size_t n = program.tasks.size();
  const std::vector<std::uint32_t> dependents = countDependents(lists, n);

  std::vector<std::uint32_t> chainOf(n), posOf(n);
  std::vector<std::uint32_t> chainTail; // per chain: its last task
  struct LabelEntry {
    std::uint32_t chain, pos;
  };
  std::vector<LabelEntry> labels; // per task, flattened
  std::vector<std::uint32_t> labelOffsets;
  labelOffsets.reserve(n + 1);
  labelOffsets.push_back(0);
  std::vector<std::uint32_t> best; // per chain: the union being built
  std::vector<std::uint32_t> touched;
  auto raise = [&](std::uint32_t chain, std::uint32_t pos) {
    if (best[chain] == kNone) {
      touched.push_back(chain);
      best[chain] = pos;
    } else {
      best[chain] = std::max(best[chain], pos);
    }
  };

  std::size_t removed = 0;
  std::uint32_t begin = 0; // original start of task v's predecessors
  std::uint32_t write = 0; // end of the compacted lists
  for (std::size_t v = 0; v < n; ++v) {
    Task& t = program.tasks[v];
    const std::uint32_t end = lists.offsets[v + 1];

    // Chain cover: extend the chain of a predecessor that is still its
    // tail, the selfOrdering one first; otherwise start a new chain.
    std::uint32_t chain = kNone;
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t p = lists.ids[k];
      if (chainTail[chainOf[p]] != p)
        continue;
      const bool self = t.in[k - begin].selfOrdering;
      if (chain == kNone || self)
        chain = chainOf[p];
      if (self)
        break;
    }
    if (chain == kNone) {
      chain = static_cast<std::uint32_t>(chainTail.size());
      chainTail.push_back(static_cast<std::uint32_t>(v));
      best.push_back(kNone);
      posOf[v] = 0;
    } else {
      posOf[v] = posOf[chainTail[chain]] + 1;
      chainTail[chain] = static_cast<std::uint32_t>(v);
    }
    chainOf[v] = chain;

    // Union of the predecessors' labels: their counted strict ancestors.
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t p = lists.ids[k];
      for (std::uint32_t e = labelOffsets[p]; e < labelOffsets[p + 1]; ++e)
        raise(labels[e].chain, labels[e].pos);
    }

    // Decide and compact; an implied producer sits at or below the
    // highest counted ancestor on its chain.
    std::size_t kept = 0;
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t p = lists.ids[k];
      const std::uint32_t top = best[chainOf[p]];
      const bool implied = top != kNone && top >= posOf[p];
      if (implied &&
          !(program.chainOrdering && t.in[k - begin].selfOrdering)) {
        ++removed;
        continue;
      }
      t.in[kept++] = t.in[k - begin];
      lists.ids[write++] = p;
    }
    t.in.resize(kept);
    begin = end;
    lists.offsets[v + 1] = write;

    // label(v) = the union plus the counted direct predecessors. A dropped
    // predecessor is already in the union: it is an ancestor of a kept one.
    for (std::uint32_t k = write - static_cast<std::uint32_t>(kept);
         k < write; ++k) {
      const std::uint32_t p = lists.ids[k];
      if (dependents[p] >= 2)
        raise(chainOf[p], posOf[p]);
    }
    for (std::uint32_t c : touched) {
      labels.push_back({c, best[c]});
      best[c] = kNone;
    }
    touched.clear();
    labelOffsets.push_back(static_cast<std::uint32_t>(labels.size()));
  }
  lists.ids.resize(write);
  return removed;
}

/// Pass 2: chain fusion. Fuses task `next` into `merged` when
///   * they are adjacent tasks of the same statement (lowerToTasks emits
///     each nest's blocks contiguously, so adjacency in creation order is
///     adjacency in block order — which the C emitter's contiguous
///     iteration ranges rely on),
///   * the tail of `merged` has exactly one dependent (`next`),
///   * `next`'s only in-dependency is on that tail, and
///   * the concatenated iteration list stays lexicographically sorted
///     (validate() and the sequential-per-task execution order need it).
///
/// The fused task keeps the in-dependencies of its first member, so its
/// producers are that member's, renamed old -> new id. Only the tail of a
/// run can be a producer outside it (every other member's one dependent is
/// the next member), and the tail's id maps to the fused task, whose out
/// dependency is the tail's.
std::size_t fuseChains(TaskProgram& program, ProducerTable& lists,
                       std::size_t width) {
  const std::size_t n = program.tasks.size();
  if (n < 2 || width < 2)
    return 0;
  const std::vector<std::uint32_t> dependents = countDependents(lists, n);

  std::vector<Task> fused;
  fused.reserve(n);
  std::vector<std::uint32_t> newId(n);
  ProducerTable remapped;
  remapped.ids.reserve(lists.ids.size());
  remapped.offsets.reserve(n + 1);
  remapped.offsets.push_back(0);
  std::size_t eliminated = 0;
  for (std::size_t i = 0; i < n;) {
    Task merged = std::move(program.tasks[i]);
    std::size_t tail = i; // original id of the last task folded in
    std::size_t run = 1;
    while (run < width && tail + 1 < n) {
      const Task& next = program.tasks[tail + 1];
      // Never fuse across task kinds: a combine task must stay a
      // separate fold step (its iterations use a different arity and the
      // reduction runners dispatch on it).
      if (next.stmtIdx != merged.stmtIdx || next.kind != merged.kind ||
          merged.kind != TaskKind::Block || dependents[tail] != 1 ||
          next.in.size() != 1 || next.in[0].idx != merged.out.idx ||
          next.in[0].tag != merged.out.tag ||
          !(merged.iterations.back() < next.iterations.front()))
        break;
      merged.iterations.insert(merged.iterations.end(),
                               next.iterations.begin(),
                               next.iterations.end());
      merged.out = next.out;
      merged.blockRep = next.blockRep;
      ++tail;
      ++run;
      ++eliminated;
    }
    merged.id = fused.size();
    for (std::size_t k = i; k <= tail; ++k)
      newId[k] = static_cast<std::uint32_t>(merged.id);
    for (std::uint32_t k = lists.offsets[i]; k < lists.offsets[i + 1]; ++k)
      remapped.ids.push_back(newId[lists.ids[k]]);
    remapped.offsets.push_back(static_cast<std::uint32_t>(remapped.ids.size()));
    fused.push_back(std::move(merged));
    i = tail + 1;
  }
  program.tasks = std::move(fused);
  lists = std::move(remapped);
  return eliminated;
}

} // namespace

double OptimizeStats::edgeReductionPercent() const {
  if (edgesBefore == 0)
    return 0.0;
  return 100.0 * static_cast<double>(edgesBefore - edgesAfter) /
         static_cast<double>(edgesBefore);
}

double OptimizeStats::taskReductionPercent() const {
  if (tasksBefore == 0)
    return 0.0;
  return 100.0 * static_cast<double>(tasksBefore - tasksAfter) /
         static_cast<double>(tasksBefore);
}

std::string OptimizeStats::toString() const {
  std::ostringstream os;
  os << "opt: tasks " << tasksBefore << " -> " << tasksAfter << " (fused "
     << tasksFused << "), in-edges " << edgesBefore << " -> " << edgesAfter
     << " (reduction removed " << edgesRemoved << ")";
  return os.str();
}

OptimizeStats optimize(codegen::TaskProgram& program,
                       const OptimizeOptions& options) {
  trace::Span span("opt.optimize");
  OptimizeStats stats;
  stats.tasksBefore = stats.tasksAfter = program.tasks.size();
  stats.edgesBefore = stats.edgesAfter = countEdges(program);
  if (!options.enabled)
    return stats;
  // The passes take the program's producer table over: reduction compacts
  // it to the edges it keeps, fusion renames it, and it goes back to the
  // program in step with the optimized tasks.
  ProducerTable lists = program.producersMatch()
                            ? std::move(program.producers)
                            : codegen::resolveProducers(program);
  {
    trace::Span pass("opt.transitive_reduction");
    stats.edgesRemoved = transitiveReduce(program, lists);
  }
  if (options.fusionWidth > 1) {
    trace::Span pass("opt.chain_fusion");
    stats.tasksFused = fuseChains(program, lists, options.fusionWidth);
  }
  program.producers = std::move(lists);
  stats.tasksAfter = program.tasks.size();
  stats.edgesAfter = countEdges(program);
  trace::counter("opt.edges_removed",
                 static_cast<double>(stats.edgesBefore - stats.edgesAfter));
  trace::counter("opt.tasks_fused", static_cast<double>(stats.tasksFused));
  return stats;
}

bool SlotTable::compatibleWith(const codegen::TaskProgram& program) const {
  return numSlots == program.tasks.size() &&
         codegen::producersMatch(program, inSlots, inOffsets);
}

SlotTable buildSlotTable(const codegen::TaskProgram& program) {
  trace::Span span("opt.slot_table");
  codegen::ProducerTable producers = codegen::resolveProducers(program);
  SlotTable table;
  table.numSlots = static_cast<std::uint32_t>(program.tasks.size());
  table.inSlots = std::move(producers.ids);
  table.inOffsets = std::move(producers.offsets);
  return table;
}

} // namespace pipoly::opt
