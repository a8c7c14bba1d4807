#include "codegen/task_program.hpp"

#include "pipeline/detect.hpp"
#include "presburger/rows.hpp"
#include "schedule/build.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "trace/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace pipoly::codegen {

std::int64_t linearizeBlockVector(const pb::Tuple& blockRep) {
  std::int64_t tag = 0;
  for (pb::Value v : blockRep) {
    PIPOLY_CHECK_MSG(v >= 0 && v < kLinearStride,
                     "block coordinate out of range for linearisation");
    PIPOLY_CHECK_MSG(tag <= (std::numeric_limits<std::int64_t>::max() -
                             kLinearStride) /
                                kLinearStride,
                     "block vector too large to linearise");
    tag = tag * kLinearStride + v;
  }
  return tag;
}

TaskDep combineDep(std::size_t numStatements, std::size_t stmtIdx) {
  return TaskDep{static_cast<int>(numStatements + stmtIdx), 0};
}

std::optional<std::size_t> TaskProgram::taskWithOut(const TaskDep& dep) const {
  for (const Task& t : tasks)
    if (t.out.idx == dep.idx && t.out.tag == dep.tag)
      return t.id;
  return std::nullopt;
}

ProgramCounts TaskProgram::counts() const {
  ProgramCounts c;
  c.tasks = tasks.size();
  for (const Task& t : tasks)
    c.inEdges += t.in.size();
  return c;
}

bool producersMatch(const TaskProgram& program,
                    std::span<const std::uint32_t> ids,
                    std::span<const std::uint32_t> offsets) {
  const std::vector<Task>& tasks = program.tasks;
  const std::size_t n = tasks.size();
  if (offsets.size() != n + 1 || offsets[0] != 0 || offsets[n] != ids.size())
    return false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<TaskDep>& in = tasks[i].in;
    if (offsets[i + 1] < offsets[i] || offsets[i + 1] - offsets[i] != in.size())
      return false;
    const std::uint32_t* p = ids.data() + offsets[i];
    for (std::size_t k = 0; k < in.size(); ++k) {
      if (p[k] >= i)
        return false;
      const TaskDep& out = tasks[p[k]].out;
      if (out.idx != in[k].idx || out.tag != in[k].tag)
        return false;
    }
  }
  return true;
}

bool TaskProgram::producersMatch() const {
  return codegen::producersMatch(*this, producers.ids, producers.offsets);
}

namespace {

/// Hashed (idx, tag) -> producing task id index. Lowered programs carry
/// their producers resolved (TaskProgram::producers), so only programs
/// without a matching table build one.
using OutOwnerIndex =
    std::unordered_map<std::pair<int, std::int64_t>, std::size_t, PairHash>;

OutOwnerIndex buildOutOwnerIndex(const TaskProgram& program) {
  OutOwnerIndex owner;
  owner.reserve(program.tasks.size() * 2);
  for (const Task& t : program.tasks)
    owner.emplace(std::make_pair(t.out.idx, t.out.tag), t.id);
  return owner;
}

/// Resolves every in-dependency by tag through the hashed owner index: the
/// path of hand-assembled and hand-edited programs. O(tasks + edges)
/// expected.
ProducerTable resolveByTag(const TaskProgram& program) {
  const OutOwnerIndex owner = buildOutOwnerIndex(program);
  ProducerTable table;
  table.offsets.reserve(program.tasks.size() + 1);
  table.offsets.push_back(0);
  for (const Task& t : program.tasks) {
    for (const TaskDep& dep : t.in) {
      auto it = owner.find({dep.idx, dep.tag});
      PIPOLY_CHECK_MSG(it != owner.end(),
                       "in-dependency with no producing task");
      PIPOLY_CHECK_MSG(it->second < t.id,
                       "in-dependency on a later task (creation order)");
      table.ids.push_back(static_cast<std::uint32_t>(it->second));
    }
    table.offsets.push_back(static_cast<std::uint32_t>(table.ids.size()));
  }
  return table;
}

/// A sorted, duplicate-free row set (an IntTupleSet's storage) with a
/// rank lookup. Lookups usually advance one row at a time, so the
/// previous answer is tried first and a binary search is the exception.
class RankedRows {
public:
  explicit RankedRows(const pb::IntTupleSet& set)
      : data_(set.rowData().data()), count_(set.size()), width_(set.arity()) {}

  std::size_t size() const { return count_; }
  std::size_t width() const { return width_; }

  /// The rank of `point`, or count() when it is not in the set.
  std::size_t rankOf(const pb::Value* point) {
    for (std::size_t r = hint_; r < count_ && r < hint_ + 2; ++r) {
      const int c = pb::rows::compare(row(r), point, width_);
      if (c == 0)
        return hint_ = r;
      if (c > 0)
        break;
    }
    std::size_t lo = 0, hi = count_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (pb::rows::less(row(mid), point, width_))
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo == count_ || !pb::rows::equal(row(lo), point, width_))
      return count_;
    return hint_ = lo;
  }

private:
  const pb::Value* row(std::size_t r) const { return data_ + r * width_; }

  const pb::Value* data_;
  std::size_t count_;
  std::size_t width_;
  std::size_t hint_ = 0;
};

/// A forward cursor over an IntMap's rows (sorted by domain point): given
/// domain points in increasing order, it yields each point's images as
/// views into the map's storage, without allocating.
class ImageCursor {
public:
  explicit ImageCursor(const pb::IntMap& map)
      : data_(map.rowData().data()), count_(map.size()),
        in_(map.domainSpace().arity()),
        width_(in_ + map.rangeSpace().arity()) {}

  /// Moves to the rows of domain point `point` and returns their count;
  /// image(k) is then the k-th image. `point` must not precede the
  /// previous one.
  std::size_t seek(const pb::Value* point) {
    begin_ = end_;
    while (begin_ < count_ && pb::rows::less(row(begin_), point, in_))
      ++begin_;
    end_ = begin_;
    while (end_ < count_ && pb::rows::equal(row(end_), point, in_))
      ++end_;
    return end_ - begin_;
  }

  pb::TupleView image(std::size_t k) const {
    return pb::TupleView(row(begin_ + k) + in_, width_ - in_);
  }

private:
  const pb::Value* row(std::size_t r) const { return data_ + r * width_; }

  const pb::Value* data_;
  std::size_t count_;
  std::size_t in_;
  std::size_t width_;
  std::size_t begin_ = 0, end_ = 0;
};

/// Out tags are unique. Lowered programs emit each slot index's tags as
/// increasing runs (blocks in lexicographic order, one combine per
/// statement), so ordering the runs settles it; only programs whose runs
/// of one index overlap sort every pair.
void checkUniqueOuts(const std::vector<Task>& tasks) {
  struct Run {
    int idx;
    std::int64_t first, last;
  };
  std::vector<Run> runs;
  for (const Task& t : tasks) {
    if (runs.empty() || runs.back().idx != t.out.idx ||
        runs.back().last >= t.out.tag)
      runs.push_back({t.out.idx, t.out.tag, t.out.tag});
    else
      runs.back().last = t.out.tag;
  }
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return std::tie(a.idx, a.first) < std::tie(b.idx, b.first);
  });
  bool disjoint = true;
  for (std::size_t r = 1; r < runs.size() && disjoint; ++r)
    disjoint = runs[r - 1].idx != runs[r].idx ||
               runs[r - 1].last < runs[r].first;
  if (disjoint)
    return;
  std::vector<std::pair<int, std::int64_t>> outs;
  outs.reserve(tasks.size());
  for (const Task& t : tasks)
    outs.emplace_back(t.out.idx, t.out.tag);
  std::sort(outs.begin(), outs.end());
  PIPOLY_CHECK_MSG(std::adjacent_find(outs.begin(), outs.end()) == outs.end(),
                   "duplicate out-dependency tag");
}

} // namespace

ProducerTable resolveProducers(const TaskProgram& program) {
  return program.producersMatch() ? program.producers : resolveByTag(program);
}

void TaskProgram::validate(const scop::Scop& scop) const {
  trace::Span span("codegen.validate");
  PIPOLY_CHECK(numStatements == scop.numStatements());
  PIPOLY_CHECK_MSG(stmtReaders.empty() || stmtReaders.size() == numStatements,
                   "stmtReaders must be absent or cover every statement");
  for (const std::vector<std::size_t>& readers : stmtReaders)
    for (std::size_t r : readers)
      PIPOLY_CHECK_MSG(r < numStatements, "stmtReaders index out of range");

  // Tasks are creation-ordered by id and out-dependencies are unique.
  for (std::size_t i = 0; i < tasks.size(); ++i)
    PIPOLY_CHECK(tasks[i].id == i);
  checkUniqueOuts(tasks);

  // Every in-dependency must resolve to an earlier task (OpenMP depend
  // "last writer" semantics with our creation order). A matching producer
  // table proves it; otherwise resolving by tag names the first violation.
  if (!producersMatch())
    (void)resolveByTag(*this);

  // Per statement: iterations across Block tasks partition the domain,
  // blocks in lexicographic order, and self-ordering chain intact. One
  // pass over the task list with per-statement running state; each
  // iteration marks its rank in the statement's domain, so a miss or a
  // second visit breaks the partition. Combine tasks are checked
  // separately: fold steps enumerate the statement's partial blocks in
  // order, and the in-dependencies cover every partial.
  const std::size_t numStmts = scop.numStatements();
  std::vector<const Task*> prev(numStmts, nullptr);
  std::vector<const Task*> combine(numStmts, nullptr);
  std::vector<std::vector<TaskDep>> blockOuts(numStmts);
  std::vector<RankedRows> domains;
  std::vector<std::vector<bool>> visited(numStmts);
  std::vector<std::size_t> covered(numStmts, 0);
  std::vector<bool> partitioned(numStmts, true);
  domains.reserve(numStmts);
  for (std::size_t s = 0; s < numStmts; ++s) {
    domains.emplace_back(scop.statement(s).domain());
    visited[s].assign(domains[s].size(), false);
  }
  for (const Task& t : tasks) {
    PIPOLY_CHECK_MSG(t.stmtIdx < numStmts,
                     "task statement index out of range");
    PIPOLY_CHECK(!t.iterations.empty());
    PIPOLY_CHECK_MSG(std::is_sorted(t.iterations.begin(), t.iterations.end()),
                     "task iterations must be in lexicographic order");
    PIPOLY_CHECK_MSG(t.iterations.back() == t.blockRep,
                     "block representative must be the last iteration");
    if (t.kind == TaskKind::ReductionCombine) {
      PIPOLY_CHECK_MSG(combine[t.stmtIdx] == nullptr,
                       "at most one combine task per statement");
      combine[t.stmtIdx] = &t;
      const std::size_t arity = scop.statement(t.stmtIdx).depth() + 1;
      for (std::size_t k = 0; k < t.iterations.size(); ++k) {
        PIPOLY_CHECK_MSG(t.iterations[k].size() == arity,
                         "combine fold tuple arity must be depth + 1");
        PIPOLY_CHECK_MSG(t.iterations[k][0] ==
                             static_cast<pb::Value>(k),
                         "combine fold steps must enumerate partials in "
                         "order");
        for (std::size_t d = 1; d < arity; ++d)
          PIPOLY_CHECK_MSG(t.iterations[k][d] == 0,
                           "combine fold tuple padding must be zero");
      }
      continue;
    }
    PIPOLY_CHECK_MSG(combine[t.stmtIdx] == nullptr,
                     "partial blocks must precede their combine task");
    blockOuts[t.stmtIdx].push_back(t.out);
    if (const Task* p = prev[t.stmtIdx]) {
      PIPOLY_CHECK_MSG(p->blockRep < t.blockRep,
                       "blocks of one statement must be ordered");
      if (chainOrdering) {
        bool hasSelfDep =
            std::any_of(t.in.begin(), t.in.end(), [&](const TaskDep& d) {
              return d.selfOrdering && d.idx == p->out.idx &&
                     d.tag == p->out.tag;
            });
        PIPOLY_CHECK_MSG(hasSelfDep,
                         "missing same-statement ordering dependency");
      }
    }
    RankedRows& domain = domains[t.stmtIdx];
    std::vector<bool>& seen = visited[t.stmtIdx];
    for (const pb::Tuple& it : t.iterations) {
      const std::size_t r = it.size() == domain.width()
                                ? domain.rankOf(it.data())
                                : domain.size();
      if (r == domain.size() || seen[r]) {
        partitioned[t.stmtIdx] = false;
        break;
      }
      seen[r] = true;
      ++covered[t.stmtIdx];
    }
    prev[t.stmtIdx] = &t;
  }
  for (std::size_t s = 0; s < numStmts; ++s) {
    PIPOLY_CHECK_MSG(partitioned[s] && covered[s] == domains[s].size(),
                     "task iterations must partition the statement domain");
    if (const Task* c = combine[s]) {
      PIPOLY_CHECK_MSG(c->iterations.size() == blockOuts[s].size(),
                       "combine must fold exactly one partial per block "
                       "task");
      // The combine's inputs, sorted once: O(P log P) over P partials.
      std::vector<std::pair<int, std::int64_t>> inputs;
      inputs.reserve(c->in.size());
      for (const TaskDep& d : c->in)
        inputs.emplace_back(d.idx, d.tag);
      std::sort(inputs.begin(), inputs.end());
      for (const TaskDep& out : blockOuts[s])
        PIPOLY_CHECK_MSG(std::binary_search(inputs.begin(), inputs.end(),
                                            std::make_pair(out.idx, out.tag)),
                         "combine task must depend on every partial block");
    }
  }
}

std::vector<std::vector<std::size_t>>
statementReadership(const TaskProgram& program) {
  const std::size_t numStmts = program.numStatements;
  if (program.stmtReaders.size() == numStmts)
    return program.stmtReaders;
  // Fallback for hand-assembled programs: statement-level reachability
  // over the surviving edges (in-dependency idx IS the producer's
  // statement slot). Floyd–Warshall; statement counts are small.
  std::vector<std::vector<bool>> reach(numStmts,
                                       std::vector<bool>(numStmts, false));
  for (const Task& t : program.tasks)
    for (const TaskDep& dep : t.in) {
      // Combine tags live at idx == numStatements + stmtIdx; fold them
      // back onto their statement for the reachability projection.
      std::size_t src = static_cast<std::size_t>(dep.idx);
      if (dep.idx >= 0 && src >= numStmts && src < 2 * numStmts)
        src -= numStmts;
      if (dep.idx >= 0 && src < numStmts)
        reach[src][t.stmtIdx] = true;
    }
  for (std::size_t k = 0; k < numStmts; ++k)
    for (std::size_t s = 0; s < numStmts; ++s)
      if (reach[s][k])
        for (std::size_t t = 0; t < numStmts; ++t)
          if (reach[k][t])
            reach[s][t] = true;
  std::vector<std::vector<std::size_t>> readers(numStmts);
  for (std::size_t s = 0; s < numStmts; ++s)
    for (std::size_t t = 0; t < numStmts; ++t)
      if (s != t && reach[s][t])
        readers[s].push_back(t);
  return readers;
}

TaskProgram lowerToTasks(const scop::Scop& scop, const ast::Ast& ast) {
  trace::Span span("codegen.lower");
  TaskProgram prog;
  prog.numStatements = scop.numStatements();

  // writeNum (§5.5): statements that are sources of other statements.
  std::vector<bool> isSource(scop.numStatements(), false);
  for (const ast::AstLoopNest& nest : ast.nests)
    for (const pipeline::InRequirement& req : nest.annotation.inRequirements)
      isSource[req.srcStmtIdx] = true;
  prog.writeNum = static_cast<std::size_t>(
      std::count(isSource.begin(), isSource.end(), true));

  // Statement-level readership (see the field comment): one entry per
  // Q_S requirement, deduplicated.
  prog.stmtReaders.assign(scop.numStatements(), {});
  for (const ast::AstLoopNest& nest : ast.nests)
    for (const pipeline::InRequirement& req : nest.annotation.inRequirements)
      if (req.srcStmtIdx != nest.stmtIdx)
        prog.stmtReaders[req.srcStmtIdx].push_back(nest.stmtIdx);
  for (std::vector<std::size_t>& readers : prog.stmtReaders) {
    std::sort(readers.begin(), readers.end());
    readers.erase(std::unique(readers.begin(), readers.end()), readers.end());
  }

  // Task ids are known before any task exists: each nest emits one task
  // per block rep, in rep order, and then its combine task. A producer is
  // therefore the source's first task id plus the rank of the required
  // block among the source's reps (or the source's combine id), found
  // without looking up any tag.
  constexpr std::uint32_t kNoProducer = UINT32_MAX;
  const std::size_t numStmts = scop.numStatements();
  std::vector<std::uint32_t> firstTask(numStmts, kNoProducer);
  std::vector<std::uint32_t> combineTask(numStmts, kNoProducer);
  std::vector<RankedRows> reps;
  reps.reserve(ast.nests.size());
  std::vector<RankedRows*> repsOf(numStmts, nullptr);
  std::size_t numTasks = 0;
  for (const ast::AstLoopNest& nest : ast.nests) {
    PIPOLY_CHECK_MSG(nest.stmtIdx < numStmts,
                     "loop nest statement index out of range");
    reps.emplace_back(nest.blockReps);
    if (repsOf[nest.stmtIdx] == nullptr) {
      repsOf[nest.stmtIdx] = &reps.back();
      firstTask[nest.stmtIdx] = static_cast<std::uint32_t>(numTasks);
    }
    numTasks += nest.blockReps.size();
    if (nest.annotation.reduction.relaxed && !nest.blockReps.empty() &&
        combineTask[nest.stmtIdx] == kNoProducer)
      combineTask[nest.stmtIdx] = static_cast<std::uint32_t>(numTasks++);
  }
  PIPOLY_CHECK_MSG(numTasks < kNoProducer, "task program too large");
  auto producerOf = [&](std::size_t stmt, const pb::Value* block) {
    RankedRows* rows = repsOf[stmt];
    if (rows == nullptr)
      return kNoProducer;
    const std::size_t r = rows->rankOf(block);
    return r == rows->size() ? kNoProducer
                             : firstTask[stmt] + static_cast<std::uint32_t>(r);
  };

  prog.tasks.reserve(numTasks);
  prog.producers.offsets.reserve(numTasks + 1);
  prog.producers.offsets.push_back(0);
  struct PendingDep {
    TaskDep dep;
    std::uint32_t producer;
  };
  std::vector<PendingDep> deps; // per task, reused
  for (const ast::AstLoopNest& nest : ast.nests) {
    const int stmtSlot = static_cast<int>(nest.stmtIdx);
    const std::size_t arity = nest.blockReps.arity();
    const ast::TaskAnnotation& ann = nest.annotation;
    ImageCursor expansion(nest.expansion);
    std::vector<ImageCursor> required;
    required.reserve(ann.inRequirements.size());
    for (const pipeline::InRequirement& req : ann.inRequirements)
      required.emplace_back(req.map);
    ImageCursor selfEdges(ann.selfEdges);
    const std::size_t nestFirst = prog.tasks.size();
    if (!ann.chainOrdering && !nest.blockReps.empty())
      prog.chainOrdering = false;

    for (const pb::TupleView rep : nest.blockReps.points()) {
      Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = nest.stmtIdx;
      task.blockRep = rep;
      const std::size_t members = expansion.seek(rep.data());
      PIPOLY_CHECK(members != 0);
      task.iterations.reserve(members);
      for (std::size_t k = 0; k < members; ++k)
        task.iterations.emplace_back(expansion.image(k));
      task.out = TaskDep{stmtSlot, linearizeBlockVector(task.blockRep)};

      // Cross-statement in-dependencies from the Q_S maps (single-valued
      // under chain ordering; exact data-flow edges, possibly several,
      // under relaxed ordering). A viaCombine requirement depends on the
      // source's combine task instead of any block.
      deps.clear();
      for (std::size_t q = 0; q < ann.inRequirements.size(); ++q) {
        const pipeline::InRequirement& req = ann.inRequirements[q];
        if (req.viaCombine) {
          deps.push_back({combineDep(prog.numStatements, req.srcStmtIdx),
                          combineTask[req.srcStmtIdx]});
          continue;
        }
        const std::size_t images = required[q].seek(rep.data());
        for (std::size_t k = 0; k < images; ++k) {
          const pb::Tuple image(required[q].image(k));
          deps.push_back({TaskDep{static_cast<int>(req.srcStmtIdx),
                                  linearizeBlockVector(image)},
                          producerOf(req.srcStmtIdx, image.data())});
        }
      }

      if (ann.chainOrdering) {
        // Same-statement ordering (the funcCount protocol of Fig. 8).
        if (task.id > nestFirst) {
          const Task& prev = prog.tasks.back();
          deps.push_back({TaskDep{prev.out.idx, prev.out.tag,
                                  /*selfOrdering=*/true},
                          static_cast<std::uint32_t>(prev.id)});
        }
      } else {
        // §7 relaxation: only the actual cross-block self-dependences.
        const std::size_t images = selfEdges.seek(rep.data());
        for (std::size_t k = 0; k < images; ++k) {
          const pb::Tuple image(selfEdges.image(k));
          deps.push_back({TaskDep{stmtSlot, linearizeBlockVector(image),
                                  /*selfOrdering=*/true},
                          producerOf(nest.stmtIdx, image.data())});
        }
      }

      // Deduplicate dependency slots (exact data-flow edges can name the
      // same source block several times); keep the selfOrdering flag if
      // any duplicate carried it. A slot has one producer, so the
      // producers follow their dependencies.
      std::sort(deps.begin(), deps.end(),
                [](const PendingDep& a, const PendingDep& b) {
                  return std::tie(a.dep.idx, a.dep.tag, b.dep.selfOrdering) <
                         std::tie(b.dep.idx, b.dep.tag, a.dep.selfOrdering);
                });
      deps.erase(std::unique(deps.begin(), deps.end(),
                             [](const PendingDep& a, const PendingDep& b) {
                               return a.dep.idx == b.dep.idx &&
                                      a.dep.tag == b.dep.tag;
                             }),
                 deps.end());
      task.in.reserve(deps.size());
      for (const PendingDep& d : deps) {
        task.in.push_back(d.dep);
        prog.producers.ids.push_back(d.producer);
      }
      prog.producers.offsets.push_back(
          static_cast<std::uint32_t>(prog.producers.ids.size()));
      prog.tasks.push_back(std::move(task));
    }

    // Relaxed reduction nest: append the combine task. It folds the
    // partial accumulators into the array, one fold step per partial
    // block in deterministic (block) order, after every partial
    // finished. Readers of this statement depend on its combine tag (see
    // the viaCombine branch above).
    if (ann.reduction.relaxed && !nest.blockReps.empty()) {
      Task task;
      task.id = prog.tasks.size();
      task.stmtIdx = nest.stmtIdx;
      task.kind = TaskKind::ReductionCombine;
      const std::size_t blocks = task.id - nestFirst;
      task.iterations.reserve(blocks);
      task.in.reserve(blocks);
      for (std::size_t k = 0; k < blocks; ++k) {
        pb::Tuple fold = pb::Tuple::zeros(arity + 1);
        fold[0] = static_cast<pb::Value>(k);
        task.iterations.push_back(std::move(fold));
        task.in.push_back(prog.tasks[nestFirst + k].out);
        prog.producers.ids.push_back(
            static_cast<std::uint32_t>(nestFirst + k));
      }
      task.blockRep = task.iterations.back();
      task.out = combineDep(prog.numStatements, nest.stmtIdx);
      prog.producers.offsets.push_back(
          static_cast<std::uint32_t>(prog.producers.ids.size()));
      prog.tasks.push_back(std::move(task));
    }
  }
  return prog;
}

TaskProgram compilePipeline(const scop::Scop& scop,
                            const pipeline::DetectOptions& options) {
  trace::Span span("compile");
  pipeline::PipelineInfo info = pipeline::detectPipeline(scop, options);
  std::unique_ptr<sched::ScheduleNode> tree;
  {
    trace::Span schedule("compile.schedule");
    tree = sched::buildPipelineSchedule(scop, info);
  }
  ast::Ast loweredAst;
  {
    trace::Span astSpan("compile.ast");
    loweredAst = ast::buildAst(scop, *tree);
  }
  TaskProgram prog = lowerToTasks(scop, loweredAst);
  prog.validate(scop);
  return prog;
}

std::string TaskProgram::toString() const {
  std::ostringstream os;
  os << "task program: " << tasks.size() << " tasks, " << numStatements
     << " statements, writeNum=" << writeNum << '\n';
  for (const Task& t : tasks) {
    os << "  task " << t.id << ": stmt " << t.stmtIdx
       << (t.kind == TaskKind::ReductionCombine ? " combine " : " block ")
       << t.blockRep << " (" << t.iterations.size() << " its) out=("
       << t.out.idx << ',' << t.out.tag << ')';
    for (const TaskDep& d : t.in)
      os << " in=(" << d.idx << ',' << d.tag << (d.selfOrdering ? ",self" : "")
         << ')';
    os << '\n';
  }
  return os.str();
}

} // namespace pipoly::codegen
