#include "tasking/tasking.hpp"

#include "codegen/task_program.hpp"
#include "opt/optimizer.hpp"
#include "support/assert.hpp"
#include "tasking/executor.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace pipoly::tasking {
namespace {

std::vector<std::unique_ptr<TaskingLayer>> allBackends() {
  std::vector<std::unique_ptr<TaskingLayer>> layers;
  layers.push_back(makeSerialBackend());
  layers.push_back(makeThreadPoolBackend(4));
  if (auto omp = makeOpenMPBackend())
    layers.push_back(std::move(omp));
  return layers;
}

struct Payload {
  std::atomic<int>* counter;
  int expectedBefore;
};

void checkAndBump(void* raw) {
  auto* p = static_cast<Payload*>(raw);
  EXPECT_GE(p->counter->fetch_add(1), p->expectedBefore);
}

TEST(TaskingLayerTest, OpenMPBackendIsAvailableInThisBuild) {
  // The build links OpenMP; the paper's primary backend must exist.
  EXPECT_TRUE(openMPAvailable());
  EXPECT_NE(makeOpenMPBackend(), nullptr);
}

TEST(TaskingLayerTest, ChainedDependenciesRunInOrder) {
  for (auto& layer : allBackends()) {
    std::atomic<int> counter{0};
    layer->run([&] {
      // Chain: task k depends on slot of task k-1.
      for (int k = 0; k < 20; ++k) {
        Payload p{&counter, k};
        std::int64_t inDep = k - 1;
        int inIdx = 0;
        layer->createTask(&checkAndBump, &p, sizeof(p),
                          /*outDepend=*/k, /*outIdx=*/0,
                          k > 0 ? &inDep : nullptr, k > 0 ? &inIdx : nullptr,
                          k > 0 ? 1u : 0u);
      }
    });
    EXPECT_EQ(counter.load(), 20) << layer->name();
  }
}

TEST(TaskingLayerTest, CreateTaskOutsideRunThrows) {
  // OpenMP backend cannot detect this cheaply in a parallel-safe way on
  // all runtimes, but serial and threadpool must.
  auto serial = makeSerialBackend();
  Payload p{nullptr, 0};
  EXPECT_THROW(serial->createTask(&checkAndBump, &p, sizeof(p), 0, 0, nullptr,
                                  nullptr, 0),
               Error);
  auto pool = makeThreadPoolBackend(2);
  EXPECT_THROW(pool->createTask(&checkAndBump, &p, sizeof(p), 0, 0, nullptr,
                                nullptr, 0),
               Error);
}

TEST(TaskingLayerTest, InputIsCopiedAtCreation) {
  // The paper's Fig. 8 memcpy: mutating the input struct after createTask
  // must not affect the task.
  for (auto& layer : allBackends()) {
    static std::atomic<int> observed;
    observed = -1;
    struct Value {
      int v;
    };
    auto fn = +[](void* raw) { observed = static_cast<Value*>(raw)->v; };
    layer->run([&] {
      Value val{7};
      layer->createTask(fn, &val, sizeof(val), 0, 0, nullptr, nullptr, 0);
      val.v = 99; // must not be visible to the task
    });
    EXPECT_EQ(observed.load(), 7) << layer->name();
  }
}

std::atomic<int> gZeroSizeRuns{0};

void zeroSizeBody(void*) { gZeroSizeRuns.fetch_add(1); }

TEST(TaskingLayerTest, ZeroSizeInputWithNullPointerIsValid) {
  // inputSize == 0 with a null input must not crash on any backend:
  // malloc(0)/memcpy-on-null are UB, so the backends skip the copy.
  for (auto& layer : allBackends()) {
    gZeroSizeRuns = 0;
    layer->run([&] {
      for (std::int64_t k = 0; k < 8; ++k)
        layer->createTask(&zeroSizeBody, nullptr, 0, k, 0, nullptr, nullptr,
                          0);
    });
    EXPECT_EQ(gZeroSizeRuns.load(), 8) << layer->name();
  }
}

TEST(TaskingLayerTest, ZeroSizeInputTasksStillHonorDependencies) {
  for (auto& layer : allBackends()) {
    static std::atomic<int> order;
    order = 0;
    static std::atomic<int> firstSeen, secondSeen;
    firstSeen = -1;
    secondSeen = -1;
    auto first = +[](void*) { firstSeen = order.fetch_add(1); };
    auto second = +[](void*) { secondSeen = order.fetch_add(1); };
    layer->run([&] {
      layer->createTask(first, nullptr, 0, /*outDepend=*/7, /*outIdx=*/0,
                        nullptr, nullptr, 0);
      std::int64_t inDep = 7;
      int inIdx = 0;
      layer->createTask(second, nullptr, 0, 8, 0, &inDep, &inIdx, 1);
    });
    EXPECT_EQ(firstSeen.load(), 0) << layer->name();
    EXPECT_EQ(secondSeen.load(), 1) << layer->name();
  }
}

/// Payload for tasks that try to create follow-up tasks from their own
/// body. The threadpool backend records the spawner's tasks before any
/// body runs, so it must reject every nested createTask with a
/// diagnostic — never run it, deadlock on it or race its tables.
struct SpawnerPayload {
  TaskingLayer* layer;
  std::atomic<int>* counter;
  std::int64_t slot;
};

void leafBody(void* raw) {
  static_cast<SpawnerPayload*>(raw)->counter->fetch_add(1);
}

void rootBody(void* raw) {
  auto* p = static_cast<SpawnerPayload*>(raw);
  p->counter->fetch_add(1);
  SpawnerPayload child{p->layer, p->counter, 0};
  std::int64_t inDep = p->slot;
  int inIdx = 1;
  p->layer->createTask(&leafBody, &child, sizeof(child),
                       /*outDepend=*/p->slot * 100, /*outIdx=*/2, &inDep,
                       &inIdx, 1);
}

TEST(TaskingLayerTest, NestedCreateTaskIsRejectedOnThreadPoolBackend) {
  auto layer = makeThreadPoolBackend(4);
  std::atomic<int> counter{0};
  try {
    layer->run([&] {
      for (std::int64_t r = 0; r < 16; ++r) {
        SpawnerPayload p{layer.get(), &counter, r};
        layer->createTask(&rootBody, &p, sizeof(p), /*outDepend=*/r,
                          /*outIdx=*/1, nullptr, nullptr, 0);
      }
    });
    FAIL() << "a createTask from a task body must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("running task body"),
              std::string::npos)
        << e.what();
  }
  // Every root ran to its createTask; no leaf was created.
  EXPECT_EQ(counter.load(), 16);

  // A nested run() from a task body is rejected the same way.
  auto nestedRun = +[](void* raw) {
    static_cast<SpawnerPayload*>(raw)->layer->run([] {});
  };
  SpawnerPayload outer{layer.get(), &counter, 0};
  EXPECT_THROW(layer->run([&] {
    layer->createTask(nestedRun, &outer, sizeof(outer), 0, 0, nullptr,
                      nullptr, 0);
  }),
               Error);

  // The backend is usable afterwards.
  counter = 0;
  layer->run([&] {
    for (std::int64_t r = 0; r < 4; ++r) {
      SpawnerPayload p{layer.get(), &counter, r};
      layer->createTask(&leafBody, &p, sizeof(p), r, 0, nullptr, nullptr, 0);
    }
  });
  EXPECT_EQ(counter.load(), 4);
}

/// Differential check for the threadpool backend's recording: `program`
/// creates its tasks on a layer over a zeroed cell array, and the
/// threadpool backend must leave the same cells as the serial one, run
/// after run.
using CellProgram = std::function<void(TaskingLayer&, std::uint64_t*)>;

void expectSameCellsAsSerial(std::size_t numCells, const CellProgram& program) {
  std::vector<std::uint64_t> expected(numCells, 0);
  auto serial = makeSerialBackend();
  serial->run([&] { program(*serial, expected.data()); });
  auto pool = makeThreadPoolBackend(4);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::uint64_t> actual(numCells, 0);
    pool->run([&] { program(*pool, actual.data()); });
    EXPECT_EQ(actual, expected) << "rep " << rep;
  }
}

/// An input well past any small inline buffer: the body folds its data
/// words and the cells it reads into its own cell.
struct WideInput {
  std::uint64_t* cells;
  std::uint32_t self;
  std::uint32_t reads[3]; // kNoRead = unused
  std::uint64_t data[8];
};
constexpr std::uint32_t kNoRead = UINT32_MAX;
static_assert(sizeof(WideInput) > 64);

/// Cell that zero-size tasks fold into (they get no input to name one).
std::uint64_t* gZeroCell = nullptr;

std::uint64_t mix(std::uint64_t acc, std::uint64_t v) {
  return (acc ^ v) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}

void wideBody(void* raw) {
  const WideInput& in = *static_cast<const WideInput*>(raw);
  std::uint64_t acc = in.self;
  for (std::uint64_t d : in.data)
    acc = mix(acc, d);
  for (std::uint32_t r : in.reads)
    if (r != kNoRead)
      acc = mix(acc, in.cells[r]);
  if (gZeroCell != nullptr)
    acc = mix(acc, *gZeroCell);
  in.cells[in.self] = acc;
}

void zeroSizeFold(void*) { *gZeroCell = mix(*gZeroCell, 0xabcdef); }

WideInput wide(std::uint64_t* cells, std::uint32_t self,
               std::uint32_t r0 = kNoRead, std::uint32_t r1 = kNoRead) {
  WideInput in{cells, self, {r0, r1, kNoRead}, {}};
  for (std::uint32_t k = 0; k < 8; ++k)
    in.data[k] = self * 8u + k;
  return in;
}

TEST(TaskingLayerTest, ThreadPoolMatchesSerialOnWideInputs) {
  // Four chains of 16 tasks, each task also reading the previous task of
  // the chain to its left; every input is an 88-byte struct.
  constexpr std::uint32_t kChains = 4, kLen = 16;
  expectSameCellsAsSerial(kChains * kLen, [](TaskingLayer& layer,
                                             std::uint64_t* cells) {
    for (std::uint32_t k = 0; k < kLen; ++k)
      for (std::uint32_t c = 0; c < kChains; ++c) {
        const std::uint32_t self = c * kLen + k;
        std::vector<std::int64_t> in;
        WideInput input = wide(cells, self);
        if (k > 0) {
          input.reads[0] = self - 1;
          in.push_back(self - 1);
          if (c > 0) {
            input.reads[1] = self - kLen - 1;
            in.push_back(self - kLen - 1);
          }
        }
        const std::vector<int> idx(in.size(), 0);
        layer.createTask(&wideBody, &input, sizeof(input), self, 0,
                         in.empty() ? nullptr : in.data(),
                         idx.empty() ? nullptr : idx.data(), in.size());
      }
  });
}

TEST(TaskingLayerTest, ThreadPoolMatchesSerialOnDuplicateInDependencies) {
  // Every task names the slot it reads two or three times in one
  // createTask, on the hashed tier and on the dense one.
  for (bool dense : {false, true})
    expectSameCellsAsSerial(40, [dense](TaskingLayer& layer,
                                        std::uint64_t* cells) {
      if (dense)
        layer.reserveDependencySlots(40);
      for (std::uint32_t k = 0; k < 40; ++k) {
        WideInput input = wide(cells, k);
        std::vector<std::int64_t> in;
        if (k > 0) {
          input.reads[0] = k - 1;
          in.assign(2 + k % 2, k - 1);
        }
        if (k > 1) {
          input.reads[1] = k / 2;
          in.push_back(k / 2);
          in.push_back(k / 2);
        }
        const std::vector<int> idx(in.size(), 0);
        layer.createTask(&wideBody, &input, sizeof(input), k, 0,
                         in.empty() ? nullptr : in.data(),
                         idx.empty() ? nullptr : idx.data(), in.size());
      }
    });
}

TEST(TaskingLayerTest, ThreadPoolMatchesSerialWithZeroSizeNullInputs) {
  // Zero-size, null-input tasks sit between wide tasks of one chain and
  // fold into a shared cell the next wide task reads.
  constexpr std::uint32_t kWide = 20;
  expectSameCellsAsSerial(kWide + 1, [](TaskingLayer& layer,
                                        std::uint64_t* cells) {
    gZeroCell = &cells[kWide];
    for (std::uint32_t k = 0; k < kWide; ++k) {
      WideInput input = wide(cells, k);
      const std::int64_t prev = 2 * static_cast<std::int64_t>(k) - 1;
      const int idx = 0;
      layer.createTask(&wideBody, &input, sizeof(input), 2 * k, 0,
                       k > 0 ? &prev : nullptr, k > 0 ? &idx : nullptr,
                       k > 0 ? 1u : 0u);
      const std::int64_t mine = 2 * k;
      layer.createTask(&zeroSizeFold, nullptr, 0, 2 * k + 1, 0, &mine, &idx,
                       1);
    }
  });
  gZeroCell = nullptr;
}

TEST(TaskingLayerTest, ThreadPoolMatchesSerialOnAnEmptyProgram) {
  expectSameCellsAsSerial(0, [](TaskingLayer&, std::uint64_t*) {});
  expectSameCellsAsSerial(0, [](TaskingLayer& layer, std::uint64_t*) {
    layer.reserveDependencySlots(8);
  });
}

TEST(TaskingLayerTest, UnpublishedSlotIsImmediatelyReady) {
  for (auto& layer : allBackends()) {
    std::atomic<int> counter{0};
    layer->run([&] {
      Payload p{&counter, 0};
      std::int64_t dep = 12345; // nobody publishes this slot
      int idx = 3;
      layer->createTask(&checkAndBump, &p, sizeof(p), 0, 0, &dep, &idx, 1);
    });
    EXPECT_EQ(counter.load(), 1) << layer->name();
  }
}

/// Records, for every executed task, the set of tasks finished before it
/// started; used to verify dependency enforcement on parallel backends.
struct OrderRecorder {
  std::mutex mutex;
  std::set<std::int64_t> finished;
  bool violation = false;
};

struct OrderedPayload {
  OrderRecorder* rec;
  std::int64_t self;
  std::int64_t requires0; // -1 = none
  std::int64_t requires1; // -1 = none
};

void orderedBody(void* raw) {
  auto* p = static_cast<OrderedPayload*>(raw);
  std::lock_guard lock(p->rec->mutex);
  if (p->requires0 >= 0 && !p->rec->finished.count(p->requires0))
    p->rec->violation = true;
  if (p->requires1 >= 0 && !p->rec->finished.count(p->requires1))
    p->rec->violation = true;
  p->rec->finished.insert(p->self);
}

TEST(TaskingLayerTest, CrossSlotDependenciesEnforced) {
  for (auto& layer : allBackends()) {
    OrderRecorder rec;
    layer->run([&] {
      // Two producer chains on idx 0 and idx 1, plus consumers on idx 2
      // depending on both.
      for (std::int64_t k = 0; k < 10; ++k) {
        for (int chain = 0; chain < 2; ++chain) {
          OrderedPayload p{&rec, chain * 100 + k,
                           k > 0 ? chain * 100 + (k - 1) : -1, -1};
          std::int64_t inDep = k - 1;
          int inIdx = chain;
          layer->createTask(&orderedBody, &p, sizeof(p), k, chain,
                            k > 0 ? &inDep : nullptr,
                            k > 0 ? &inIdx : nullptr, k > 0 ? 1u : 0u);
        }
      }
      for (std::int64_t k = 0; k < 10; ++k) {
        OrderedPayload p{&rec, 200 + k, 0 * 100 + k, 1 * 100 + k};
        std::int64_t inDeps[2] = {k, k};
        int inIdxs[2] = {0, 1};
        layer->createTask(&orderedBody, &p, sizeof(p), k, 2, inDeps, inIdxs,
                          2);
      }
    });
    EXPECT_FALSE(rec.violation) << layer->name();
    EXPECT_EQ(rec.finished.size(), 30u) << layer->name();
  }
}

class EndToEndTest : public ::testing::TestWithParam<int> {};

TEST_P(EndToEndTest, PipelinedExecutionMatchesSequential) {
  const int which = GetParam();
  scop::Scop scop = which == 0   ? testing::listing1(14)
                    : which == 1 ? testing::listing3(14)
                    : which == 2 ? testing::chain(3, 9)
                                 : testing::chain(5, 7);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  const std::uint64_t expected = testing::sequentialFingerprint(scop);
  for (auto& layer : allBackends()) {
    testing::InterpretedKernel kernel(scop);
    executeTaskProgram(prog, *layer, kernel.executor());
    EXPECT_EQ(kernel.fingerprint(), expected)
        << "backend " << layer->name() << " produced different results";
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, EndToEndTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(EndToEndTest, SlotExecutorHandlesEmptyDependencyLists) {
  // Regression: the slot-table overload used to pass `.data()` of empty
  // in-dependency vectors — possibly null — straight into createTask.
  // Every program's root tasks have empty lists, so any backend that
  // dereferences or UB-checks the pointers would trip here.
  for (int which = 0; which < 2; ++which) {
    scop::Scop scop = which == 0 ? testing::listing1(12) : testing::chain(3, 8);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    const opt::SlotTable slots = opt::buildSlotTable(prog);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);
    std::size_t rootTasks = 0;
    for (const codegen::Task& t : prog.tasks)
      if (t.in.empty()) ++rootTasks;
    ASSERT_GT(rootTasks, 0u) << "fixture must exercise empty dep lists";
    for (auto& layer : allBackends()) {
      testing::InterpretedKernel kernel(scop);
      executeTaskProgram(prog, slots, *layer, kernel.executor());
      EXPECT_EQ(kernel.fingerprint(), expected) << layer->name();
    }
  }
}

TEST(TaskingLayerTest, PerRunStateIsReusedOrReleased) {
  // Regression: per-run bookkeeping (last-writer tables, slot arrays,
  // funcCount maps) was cleared but never shrunk, so one oversized run
  // pinned its high-water allocation forever. Policy now: keep capacity
  // while it matches the workload (steady-state runs allocate nothing),
  // release it once a run uses far less.
  auto noop = +[](void*) {};
  for (auto& layer : allBackends()) {
    auto runProgram = [&](std::int64_t numTasks) {
      layer->run([&] {
        for (std::int64_t k = 0; k < numTasks; ++k) {
          std::int64_t inDep = k - 1;
          int inIdx = 0;
          layer->createTask(noop, nullptr, 0, k, 0, k > 0 ? &inDep : nullptr,
                            k > 0 ? &inIdx : nullptr, k > 0 ? 1u : 0u);
        }
      });
    };

    runProgram(4000); // oversized run establishes a high-water mark
    const std::size_t afterBig = layer->retainedBytes();

    runProgram(16); // a far smaller run must trigger the release
    const std::size_t afterSmall = layer->retainedBytes();
    if (afterBig > 0) {
      EXPECT_LT(afterSmall, afterBig) << layer->name();
    }

    // Steady state: identical runs must not change the footprint (the
    // capacity is reused, not reallocated or released).
    runProgram(16);
    const std::size_t steady1 = layer->retainedBytes();
    runProgram(16);
    EXPECT_EQ(layer->retainedBytes(), steady1) << layer->name();
  }
}

TEST(EndToEndTest, RepeatedRunsAreDeterministic) {
  scop::Scop scop = testing::listing3(12);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  auto layer = makeThreadPoolBackend(4);
  std::uint64_t first = 0;
  for (int rep = 0; rep < 5; ++rep) {
    testing::InterpretedKernel kernel(scop);
    executeTaskProgram(prog, *layer, kernel.executor());
    if (rep == 0)
      first = kernel.fingerprint();
    else
      EXPECT_EQ(kernel.fingerprint(), first) << "rep " << rep;
  }
}

} // namespace
} // namespace pipoly::tasking
