#include "tasking/tasking.hpp"

#include "runtime/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

#include <cstddef>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

namespace pipoly::tasking {

namespace {

// The backend records the program while the spawner runs and executes
// it afterwards as one frozen rt::ReplayGraph — the same task model the
// replay executor uses. Each createTask resolves its in-dependencies to
// the last writer of each slot (OpenMP depend semantics), which is always
// an earlier record, so creation order is the graph's topological order.
// The spawner is the only creator: a createTask from a running task body
// throws, and run() rethrows it once the graph drained.
//
// Slot resolution has two tiers: when the caller announced interned
// dense slots (reserveDependencySlots, the src/opt slot table), the
// last-writer table is a flat vector indexed by tag — O(1), no hashing;
// otherwise a hashed map over the (idx, tag) pairs.
class ThreadPoolBackend final : public TaskingLayer {
public:
  explicit ThreadPoolBackend(unsigned numThreads) : numThreads_(numThreads) {}

  std::string_view name() const override { return "threadpool"; }

  void reserveDependencySlots(std::size_t numSlots) override {
    PIPOLY_CHECK_MSG(recording_ != nullptr,
                     "reserveDependencySlots outside of run()");
    recording_->denseWriter.assign(numSlots, kNoWriter);
  }

  void createTask(TaskFunction f, const void* input, std::size_t inputSize,
                  std::int64_t outDepend, int outIdx,
                  const std::int64_t* inDepend, const int* inIdx,
                  std::size_t dependNum) override {
    PIPOLY_CHECK_MSG(recording_ != nullptr, "createTask outside of run()");
    Recording& rec = *recording_;
    PIPOLY_CHECK_MSG(!rec.graph.frozen(),
                     "createTask from a running task body: the threadpool "
                     "backend takes tasks from the spawner only");
    PIPOLY_CHECK_MSG(input != nullptr || inputSize == 0,
                     "null task input with non-zero size");

    rec.deps.clear();
    for (std::size_t k = 0; k < dependNum; ++k) {
      const NodeId writer =
          rec.isDense(inIdx[k], inDepend[k])
              ? rec.denseWriter[static_cast<std::size_t>(inDepend[k])]
              : rec.hashedWriter(inIdx[k], inDepend[k]);
      if (writer != kNoWriter)
        rec.deps.push_back(writer);
    }
    const NodeId id = rec.graph.addNode(rec.deps);

    // Fig. 8's memcpy: the input is copied into the run's payload buffer
    // at a max_align_t boundary, so the body may cast it to its struct.
    // A zero-size input (null `input` allowed) copies nothing.
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= kAlign);
    const std::size_t offset =
        (rec.payload.size() + kAlign - 1) / kAlign * kAlign;
    rec.payload.resize(offset + inputSize);
    if (inputSize > 0)
      std::memcpy(rec.payload.data() + offset, input, inputSize);
    rec.records.push_back({f, offset});

    if (rec.isDense(outIdx, outDepend))
      rec.denseWriter[static_cast<std::size_t>(outDepend)] = id;
    else
      rec.lastWriter[{outIdx, outDepend}] = id;
  }

  void run(const std::function<void()>& spawner) override {
    PIPOLY_CHECK_MSG(recording_ == nullptr,
                     "nested run() on one threadpool backend");
    Recording rec;
    recording_ = &rec;
    try {
      spawner();
      rec.graph.freeze();
      if (rec.graph.size() > 0) {
        rt::DependencyThreadPool pool(numThreads_);
        pool.runGraph(rec.graph, 1, &runRecord, &rec);
      }
    } catch (...) {
      recording_ = nullptr;
      throw;
    }
    recording_ = nullptr;
  }

private:
  using NodeId = rt::ReplayGraph::NodeId;
  static constexpr NodeId kNoWriter = std::numeric_limits<NodeId>::max();

  struct Record {
    TaskFunction fn;
    std::size_t offset; // of the input copy in Recording::payload
  };

  /// Everything one run() builds: the graph, one record per node, the
  /// input copies and the last-writer tables.
  struct Recording {
    rt::ReplayGraph graph;
    std::vector<Record> records;
    std::vector<std::byte> payload;
    std::vector<NodeId> deps; // createTask scratch
    std::vector<NodeId> denseWriter;
    std::unordered_map<std::pair<int, std::int64_t>, NodeId, PairHash>
        lastWriter;

    bool isDense(int idx, std::int64_t tag) const {
      return idx == 0 && tag >= 0 &&
             static_cast<std::size_t>(tag) < denseWriter.size();
    }

    NodeId hashedWriter(int idx, std::int64_t tag) const {
      auto it = lastWriter.find({idx, tag});
      return it != lastWriter.end() ? it->second : kNoWriter;
    }
  };

  static void runRecord(void* context, NodeId node, std::size_t) {
    Recording& rec = *static_cast<Recording*>(context);
    const Record& r = rec.records[node];
    r.fn(rec.payload.data() + r.offset);
  }

  unsigned numThreads_;
  // The active run's recording; null outside run(). Workers read it (in
  // a nested createTask) only while runGraph publishes the run.
  Recording* recording_ = nullptr;
};

} // namespace

std::unique_ptr<TaskingLayer> makeThreadPoolBackend(unsigned numThreads) {
  return std::make_unique<ThreadPoolBackend>(numThreads);
}

} // namespace pipoly::tasking
