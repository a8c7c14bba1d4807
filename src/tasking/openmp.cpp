#include "tasking/tasking.hpp"

#include "support/assert.hpp"
#include "support/hash.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <vector>

namespace pipoly::tasking {

#ifdef _OPENMP

namespace {

/// OpenMP backend following Fig. 8: a global dependency array provides the
/// addresses for the depend clauses; in-dependencies use the iterator
/// modifier so a task can wait on a variable number of slots; the input is
/// malloc'ed, memcpy'ed and freed inside the task.
///
/// The paper addresses dependArr as [writeNum*outDepend + outIdx], which
/// works when block tags are small and dense. Our linearised tags are
/// sparse, so slots are remapped densely on first use — the depend-clause
/// semantics (same (idx, tag) => same address) are unchanged. A std::deque
/// keeps element addresses stable as slots are added.
///
/// When the caller pre-interned the tags (reserveDependencySlots, the
/// src/opt slot table), the remapping disappears entirely: the dense
/// dependency array is allocated up front and addressed directly by tag,
/// exactly the paper's dependArr layout.
class OpenMPBackend final : public TaskingLayer {
public:
  explicit OpenMPBackend(bool funcCountOrdering)
      : funcCountOrdering_(funcCountOrdering) {}

  std::string_view name() const override { return "openmp"; }

  void reserveDependencySlots(std::size_t numSlots) override {
    PIPOLY_CHECK_MSG(inRegion_, "reserveDependencySlots outside of run()");
    denseSlots_.assign(numSlots, 0);
  }

  void createTask(TaskFunction f, const void* input, std::size_t inputSize,
                  std::int64_t outDepend, int outIdx,
                  const std::int64_t* inDepend, const int* inIdx,
                  std::size_t dependNum) override {
    PIPOLY_CHECK_MSG(inRegion_, "createTask outside of run()");

    char* outAddr = slotAddress(outIdx, outDepend);
    std::vector<char*> inAddrs;
    inAddrs.reserve(dependNum + 1);
    for (std::size_t k = 0; k < dependNum; ++k)
      inAddrs.push_back(slotAddress(inIdx[k], inDepend[k]));

    // Fig. 8's funcCount protocol: tasks sharing a function pointer are
    // chained through per-function slots — the paper's way of keeping the
    // blocks of one loop nest in order. The function pointer plays the
    // role of `self`; funcCount_[f] is the per-nest task counter.
    char* funcOutAddr = nullptr;
    if (funcCountOrdering_) {
      std::size_t count = funcCount_[f]++;
      if (count > 0)
        inAddrs.push_back(funcSlotAddress(f, count - 1));
      funcOutAddr = funcSlotAddress(f, count);
    }

    // Fig. 8: copy the task input; the task frees it after running.
    // malloc(0) may legally return nullptr and memcpy from/to null is UB
    // even for zero bytes, so a zero-size input (null `input` allowed)
    // skips the allocation entirely — the body sees a null pointer and
    // free(nullptr) is a no-op.
    PIPOLY_CHECK_MSG(input != nullptr || inputSize == 0,
                     "null task input with non-zero size");
    void* inputCopy = nullptr;
    if (inputSize > 0) {
      inputCopy = std::malloc(inputSize);
      PIPOLY_CHECK(inputCopy != nullptr);
      std::memcpy(inputCopy, input, inputSize);
    }

    char** inArr = inAddrs.data();
    const std::size_t numIn = inAddrs.size();
    char* outArr[2] = {outAddr, funcOutAddr ? funcOutAddr : outAddr};
    const std::size_t numOut = funcOutAddr ? 2 : 1;
    // References inside depend clauses are invisible to -Wunused.
    (void)inArr;
    (void)outArr;
// The depend lists are evaluated at task-creation time, so the local
// arrays are safe to use inside the clauses.
#pragma omp task firstprivate(f, inputCopy)                                   \
    depend(iterator(k = 0 : numIn), in : inArr[k][0])                         \
    depend(iterator(k = 0 : numOut), out : outArr[k][0])
    {
      f(inputCopy);
      std::free(inputCopy);
    }
  }

  void run(const std::function<void()>& spawner) override {
    // The generated code of §5.4 launches the task-spawning function in
    // `omp parallel` + `omp single`; the implicit barrier at the end of
    // the parallel region waits for all tasks.
    inRegion_ = true;
#pragma omp parallel default(shared)
#pragma omp single
    spawner();
    inRegion_ = false;
    // Reuse-or-release (TaskingLayer::retainedBytes): clear for the
    // next run, but release the backing storage once the retained
    // capacity exceeds twice what this run used, so one oversized
    // program does not pin its high-water memory across thousands of
    // replays.
    const std::size_t usedSlots = slots_.size();
    const std::size_t usedIndex = slotIndex_.size();
    const std::size_t usedFuncs = funcCount_.size();
    const std::size_t usedFuncSlots = funcSlotIndex_.size();
    const std::size_t usedDense = denseSlots_.size();
    slots_.clear();
    slotIndex_.clear();
    funcCount_.clear();
    funcSlotIndex_.clear();
    denseSlots_.clear();
    slotsCapacity_ = std::max(slotsCapacity_, usedSlots);
    if (slotsCapacity_ > 2 * std::max<std::size_t>(usedSlots, 64)) {
      // Released storage must drop out of the accounting too — raising
      // the high-water afterwards would resurrect it in retainedBytes().
      decltype(slots_)().swap(slots_);
      slotsCapacity_ = 0;
    }
    if (slotIndex_.bucket_count() > 2 * std::max<std::size_t>(usedIndex, 16))
      decltype(slotIndex_)().swap(slotIndex_);
    if (funcCount_.bucket_count() > 2 * std::max<std::size_t>(usedFuncs, 16))
      decltype(funcCount_)().swap(funcCount_);
    if (funcSlotIndex_.bucket_count() >
        2 * std::max<std::size_t>(usedFuncSlots, 16))
      decltype(funcSlotIndex_)().swap(funcSlotIndex_);
    if (denseSlots_.capacity() > 2 * std::max<std::size_t>(usedDense, 64))
      decltype(denseSlots_)().swap(denseSlots_);
  }

  std::size_t retainedBytes() const override {
    // std::deque exposes no capacity; the tracked high-water stands in.
    return slotsCapacity_ * sizeof(char) +
           denseSlots_.capacity() * sizeof(char) +
           slotIndex_.bucket_count() *
               (sizeof(void*) + sizeof(std::pair<const std::pair<int, std::int64_t>,
                                                 std::size_t>)) +
           funcCount_.bucket_count() *
               (sizeof(void*) +
                sizeof(std::pair<const TaskFunction, std::size_t>)) +
           funcSlotIndex_.bucket_count() *
               (sizeof(void*) +
                sizeof(std::pair<const std::pair<TaskFunction, std::size_t>,
                                 std::size_t>));
  }

private:
  char* slotAddress(int idx, std::int64_t tag) {
    // Dense fast path: interned tags index the preallocated dependency
    // array directly (no growth, so the addresses are stable).
    if (idx == 0 && tag >= 0 &&
        static_cast<std::size_t>(tag) < denseSlots_.size())
      return &denseSlots_[static_cast<std::size_t>(tag)];
    auto [it, fresh] = slotIndex_.try_emplace({idx, tag}, slots_.size());
    if (fresh)
      slots_.push_back(0);
    return &slots_[it->second];
  }

  char* funcSlotAddress(TaskFunction f, std::size_t count) {
    auto [it, fresh] = funcSlotIndex_.try_emplace({f, count}, slots_.size());
    if (fresh)
      slots_.push_back(0);
    return &slots_[it->second];
  }

  bool funcCountOrdering_;
  bool inRegion_ = false;
  // High-water element count of slots_ across runs (std::deque has no
  // capacity(); this drives the reuse-or-release accounting instead).
  std::size_t slotsCapacity_ = 0;
  std::deque<char> slots_;
  std::unordered_map<std::pair<int, std::int64_t>, std::size_t, PairHash>
      slotIndex_;
  std::unordered_map<TaskFunction, std::size_t> funcCount_;
  std::unordered_map<std::pair<TaskFunction, std::size_t>, std::size_t,
                     PairHash>
      funcSlotIndex_;
  std::vector<char> denseSlots_;
};

} // namespace

std::unique_ptr<TaskingLayer> makeOpenMPBackend(bool funcCountOrdering) {
  return std::make_unique<OpenMPBackend>(funcCountOrdering);
}

bool openMPAvailable() { return true; }

#else // !_OPENMP

std::unique_ptr<TaskingLayer> makeOpenMPBackend(bool) { return nullptr; }

bool openMPAvailable() { return false; }

#endif

} // namespace pipoly::tasking
