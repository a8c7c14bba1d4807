#include "bench.hpp"

#include "host.hpp"
#include "json.hpp"
#include "programs.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "tracer.hpp"

#include "ast/ast.hpp"
#include "codegen/task_program.hpp"
#include "frontend/frontend.hpp"
#include "kernels/reduction_runner.hpp"
#include "kernels/suite_runner.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "schedule/build.hpp"
#include "sim/calibrate.hpp"
#include "sim/simulator.hpp"
#include "support/stopwatch.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "verify/oracle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using namespace pipoly;

// Why each workload exists (see README.md):
//  compile_mix  - compile-heavy: source -> ready engine for a mix that takes
//                 every detection route; execution is only the oracle check.
//  kernel_run   - execution-heavy: Table 9 and the reduction grid with real
//                 kernel bodies, compiled from source on every pass.
//  stream_small - orchestration-heavy: small programs compiled once, then
//                 streamed and replayed with cheap interpreted bodies.
struct WorkloadConfig {
  const char* name;
  ProgramSet programs;
  bool compileEachPass; // a pass compiles from source (else: set-up does)
  bool realKernels;     // real compute bodies (else: interpreted oracle)
  int kernelSize;       // SIZE of the real compute kernel, Table 9
  int reductionSize;    // SIZE of the real compute kernel, reduction grid
  int setupReps;        // set-ups per run; setup_s is their median
  std::size_t streamBatches; // K of replayBatches(K)
  std::size_t singleReplays; // single replay() calls per program and pass
  int scalingWarmups;   // untimed passes before the engine/scaling rows
  int scalingReps;      // timed passes of the engine/scaling rows
};

const std::vector<WorkloadConfig>& configs() {
  static const std::vector<WorkloadConfig> kConfigs = {
      {"compile_mix", {64, 3, 32, 48, 64}, true, false, 0, 0, 3, 4, 0, 1, 3},
      {"kernel_run", {32, 0, 0, 0, 16}, true, true, 5, 1, 3, 2, 0, 0, 1},
      {"stream_small", {16, 0, 0, 0, 0}, false, false, 0, 0, 7, 8, 4, 1, 3},
  };
  return kConfigs;
}

constexpr int kMinPasses = 3;

/// The usual serial and parallel ReferenceProbe samples on the 4-vCPU host
/// the benchmark was written on (median over 40 runs of both listed
/// workloads). Timings are reported at this host speed; see hostScale().
constexpr double kNominalSerialS = 1.25e-3;
constexpr double kNominalParallelS = 1.25e-3;

/// One program compiled from source to a ready engine.
struct Compiled {
  std::optional<scop::Scop> scop;
  pipeline::PipelineInfo info;
  std::shared_ptr<const codegen::TaskProgram> program;
  opt::SlotTable slots;
  std::unique_ptr<tasking::CompiledPipeline> engine;
};

/// Statement bodies of one program and the fingerprint of their result.
/// The runner classes of the program families share no base class, so
/// this erases their type.
struct Body {
  std::shared_ptr<void> owner;
  std::function<void()> reset;
  tasking::StatementExecutor exec;
  std::function<std::uint64_t()> fingerprint;
};

template <typename Runner> Body wrap(std::shared_ptr<Runner> runner) {
  Runner* r = runner.get();
  return {std::move(runner), [r] { r->reset(); }, r->executor(),
          [r] { return r->fingerprint(); }};
}

tasking::ReplayOptions replayOptions(unsigned workers) {
  tasking::ReplayOptions options;
  options.numThreads = workers;
  return options;
}

/// Seconds spent in the timed parts of one closed-loop pass, as measured.
struct PassSamples {
  double compileS = 0.0; // source -> ready engine
  double runS = 0.0;     // pipelined executions
  double checkS = 0.0;   // comparison with the reference
  std::size_t batches = 0; // executions (replays or streamed batches)
  std::vector<double> latencyUs; // single-replay latencies
  double wallS = 0.0;    // the whole pass, host-speed samples excluded
  // Host-speed samples taken during the pass, summed.
  double serialS = 0.0;
  double parallelS = 0.0;
  std::size_t references = 0;
  bool traced = false;
};

/// Factors from measured seconds to seconds at the usual host speed:
/// `client` for work on the client thread (compile, check), scaled by the
/// serial sample; `engine` for engine executions, which need the client
/// thread and the workers, scaled by the geometric mean of the serial and
/// the parallel factor.
struct HostScale {
  double client = 1.0;
  double engine = 1.0;
};

HostScale hostScale(const PassSamples& s) {
  if (s.references == 0)
    return {};
  const double n = static_cast<double>(s.references);
  const double client = kNominalSerialS * n / s.serialS;
  const double workers = kNominalParallelS * n / s.parallelS;
  return {client, std::sqrt(client * workers)};
}

class Bench {
public:
  Bench(const WorkloadConfig& config, const RunOptions& options)
      : cfg_(config), opt_(options),
        workers_(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)),
        tracer_(options.trace), probe_(workers_) {}

  RunResult run();

private:
  struct Fixture {
    std::vector<ProgramInput> programs;
    std::vector<std::unique_ptr<Compiled>> compiled;
    std::vector<Body> bodies; // task-mode bodies, one per program
  };

  std::unique_ptr<Compiled> compile(const ProgramInput& in, std::uint32_t op);
  Body taskBody(const ProgramInput& in, const Compiled& c) const;
  Body sequentialBody(const ProgramInput& in, const scop::Scop& scop) const;
  tasking::BatchStatementExecutor batchExec(const Body& b) const {
    return [&b](std::size_t, std::size_t stmt, const pb::Tuple& it) {
      b.exec(stmt, it);
    };
  }
  bool needStreamReference() const {
    return !cfg_.compileEachPass || opt_.trace;
  }

  void computeReferences();
  std::unique_ptr<Fixture> setUp();
  void compileRunPass(const Fixture& f, PassSamples& s);
  void streamPass(const Fixture& f, PassSamples& s);
  void countEngine(const tasking::CompiledPipeline& engine, std::uint32_t op,
                   std::uint64_t linearBefore);
  /// Takes one host-speed sample; returns the seconds it took.
  double sampleReference(PassSamples& s) {
    Stopwatch sw;
    s.serialS += probe_.serialSeconds();
    s.parallelS += probe_.parallelSeconds();
    ++s.references;
    return sw.seconds();
  }
  void scaling(const Fixture& f);
  std::vector<Metric> endToEndMetrics(bool nominal) const;
  std::size_t latencySamples() const {
    std::size_t n = 0;
    for (const PassSamples& s : mainPasses_)
      n += s.latencyUs.size();
    return n;
  }
  std::vector<Metric> perLayerMetrics(const Fixture& f) const;
  std::string configJson() const;
  std::string samplesJson() const;

  const WorkloadConfig& cfg_;
  RunOptions opt_;
  unsigned workers_;
  Tracer tracer_;
  ReferenceProbe probe_;
  Tally tally_;
  std::map<std::string, std::uint64_t> reference_;       // one sequential run
  std::map<std::string, std::uint64_t> streamReference_; // K back-to-back runs

  std::vector<PassSamples> setupPasses_;
  std::vector<PassSamples> mainPasses_;

  // The simulator's 1/2/max-worker speedups beside the scaling rows.
  std::array<double, 3> predictedSpeedup_{};
};

std::unique_ptr<Compiled> Bench::compile(const ProgramInput& in,
                                         std::uint32_t op) {
  ScopedSpan all(tracer_, "compile", op);
  auto c = std::make_unique<Compiled>();
  if (in.source.empty()) {
    ScopedSpan s(tracer_, "scop.build", op);
    c->scop.emplace(in.build());
  } else {
    ScopedSpan s(tracer_, "frontend.parse", op);
    c->scop.emplace(frontend::parseProgram(in.source));
  }
  const scop::Scop& scop = *c->scop;
  {
    ScopedSpan s(tracer_, "pipeline.detect", op);
    c->info = pipeline::detectPipeline(scop);
  }
  std::unique_ptr<sched::ScheduleNode> tree;
  {
    ScopedSpan s(tracer_, "schedule.build", op);
    tree = sched::buildPipelineSchedule(scop, c->info);
  }
  ast::Ast lowered;
  {
    ScopedSpan s(tracer_, "ast.build", op);
    lowered = ast::buildAst(scop, *tree);
  }
  codegen::TaskProgram program;
  {
    ScopedSpan s(tracer_, "codegen.lower", op);
    program = codegen::lowerToTasks(scop, lowered);
  }
  {
    ScopedSpan s(tracer_, "codegen.validate", op);
    program.validate(scop);
  }
  opt::OptimizeStats stats;
  {
    ScopedSpan s(tracer_, "opt.optimize", op);
    stats = opt::optimize(program);
  }
  {
    ScopedSpan s(tracer_, "opt.slot_table", op);
    c->slots = opt::buildSlotTable(program);
  }
  c->program = std::make_shared<const codegen::TaskProgram>(std::move(program));
  {
    ScopedSpan s(tracer_, "tasking.engine_compile", op);
    c->engine = std::make_unique<tasking::CompiledPipeline>(
        c->program, c->slots, replayOptions(workers_));
  }
  if (tracer_.enabled()) {
    const pipeline::DetectStats& d = c->info.stats;
    auto count = [&](const char* name, std::size_t v) {
      tracer_.count(name, op, static_cast<double>(v));
    };
    count("pipeline.detect.pairs_parametric", d.parametricPairs);
    count("pipeline.detect.pairs_symbolic", d.symbolicPairs);
    count("pipeline.detect.pairs_explicit", d.explicitPairs);
    count("pipeline.detect.pairs_fallback", d.fallbackPairs());
    count("pipeline.detect.pairs_reduction", d.reductionPairs);
    count("pipeline.blocks", c->info.totalBlocks());
    count("codegen.tasks", stats.tasksBefore);
    count("codegen.edges", stats.edgesBefore);
    count("opt.tasks_after", stats.tasksAfter);
    count("opt.edges_after", stats.edgesAfter);
  }
  return c;
}

Body Bench::taskBody(const ProgramInput& in, const Compiled& c) const {
  if (in.kind == ProgramKind::Reduction)
    return wrap(std::make_shared<kernels::ReductionRunner>(
        *c.scop, *c.program, cfg_.realKernels ? cfg_.reductionSize : 0));
  return sequentialBody(in, *c.scop);
}

Body Bench::sequentialBody(const ProgramInput& in,
                           const scop::Scop& scop) const {
  if (in.kind == ProgramKind::Reduction)
    return wrap(std::make_shared<kernels::ReductionRunner>(
        scop, cfg_.realKernels ? cfg_.reductionSize : 0));
  if (!cfg_.realKernels)
    return wrap(std::make_shared<verify::InterpretedKernel>(scop));
  if (in.kind == ProgramKind::Matmul)
    throw std::logic_error("no real-kernel runner for " + in.name);
  return wrap(
      std::make_shared<kernels::SuiteRunner>(in.spec, scop, cfg_.kernelSize));
}

void Bench::computeReferences() {
  const std::vector<ProgramInput> programs =
      makePrograms(cfg_.programs, opt_.seed);
  for (const ProgramInput& in : programs) {
    const scop::Scop scop =
        in.source.empty() ? in.build() : frontend::parseProgram(in.source);
    Body b = sequentialBody(in, scop);
    b.reset();
    tasking::executeSequential(scop, b.exec);
    reference_[in.name] = b.fingerprint();
    if (!needStreamReference())
      continue;
    for (std::size_t k = 1; k < cfg_.streamBatches; ++k)
      tasking::executeSequential(scop, b.exec);
    streamReference_[in.name] = b.fingerprint();
  }
}

/// One set-up: generate the inputs, compile every program to a ready
/// engine, and warm it up with one verified replay (and, when the run
/// streams, one verified stream).
std::unique_ptr<Bench::Fixture> Bench::setUp() {
  Stopwatch wall;
  double probeS = 0.0;
  tracer_.beginPass("setup");
  auto f = std::make_unique<Fixture>();
  f->programs = makePrograms(cfg_.programs, opt_.seed);
  PassSamples s;
  for (const ProgramInput& in : f->programs) {
    const std::uint32_t op = tracer_.beginOp(in.name);
    ScopedSpan opSpan(tracer_, "op", op);
    Stopwatch sw;
    std::unique_ptr<Compiled> c = compile(in, op);
    s.compileS += sw.seconds();
    Body body = taskBody(in, *c);
    const bool ok = tally_.run(in.name + " (set-up replay)", [&] {
      body.reset();
      Stopwatch run;
      {
        ScopedSpan r(tracer_, "tasking.replay", op);
        c->engine->replay(body.exec);
      }
      s.runS += run.seconds();
      ++s.batches;
      Stopwatch check;
      const bool same = body.fingerprint() == reference_.at(in.name);
      s.checkS += check.seconds();
      return same;
    });
    if (ok && needStreamReference())
      tally_.run(in.name + " (set-up stream)", [&] {
        body.reset();
        c->engine->replayBatches(cfg_.streamBatches, batchExec(body));
        return body.fingerprint() == streamReference_.at(in.name);
      });
    f->compiled.push_back(std::move(c));
    f->bodies.push_back(std::move(body));
    probeS += sampleReference(s);
  }
  s.wallS = wall.seconds() - probeS;
  setupPasses_.push_back(s);
  return f;
}

void Bench::countEngine(const tasking::CompiledPipeline& engine,
                        std::uint32_t op, std::uint64_t linearBefore) {
  if (!tracer_.enabled())
    return;
  tracer_.count("tasking.linear_replays", op,
                static_cast<double>(engine.stats().linearReplays -
                                    linearBefore));
  tracer_.count("tasking.retained_bytes", op,
                static_cast<double>(engine.retainedBytes()));
}

/// compile_mix and kernel_run: every program goes source -> compile ->
/// one pipelined replay -> check against the sequential reference.
void Bench::compileRunPass(const Fixture& f, PassSamples& s) {
  for (const ProgramInput& in : f.programs) {
    const std::uint32_t op = tracer_.beginOp(in.name);
    ScopedSpan opSpan(tracer_, "op", op);
    tally_.run(in.name, [&] {
      Stopwatch sw;
      std::unique_ptr<Compiled> c = compile(in, op);
      s.compileS += sw.seconds();
      Body body = taskBody(in, *c);
      body.reset();
      sw.reset();
      {
        ScopedSpan r(tracer_, "tasking.replay", op);
        c->engine->replay(body.exec);
      }
      const double runS = sw.seconds();
      s.runS += runS;
      ++s.batches;
      s.latencyUs.push_back(runS * 1e6);
      sw.reset();
      bool same = false;
      {
        ScopedSpan v(tracer_, "verify.check", op);
        same = body.fingerprint() == reference_.at(in.name);
      }
      s.checkS += sw.seconds();
      countEngine(*c->engine, op, 0);
      return same;
    });
    s.wallS -= sampleReference(s);
  }
}

/// stream_small: every precompiled program streams K batches; then rounds
/// of single replays, one per program, each round one latency sample. Every
/// result is checked against its reference.
void Bench::streamPass(const Fixture& f, PassSamples& s) {
  const std::size_t n = f.programs.size();
  std::vector<std::uint32_t> ops(n);
  std::vector<std::uint64_t> linearBefore(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name = f.programs[i].name;
    tasking::CompiledPipeline& engine = *f.compiled[i]->engine;
    const Body& body = f.bodies[i];
    ops[i] = tracer_.beginOp(name);
    ScopedSpan opSpan(tracer_, "op", ops[i]);
    linearBefore[i] = engine.stats().linearReplays;
    tally_.run(name + " stream", [&] {
      body.reset();
      Stopwatch sw;
      {
        ScopedSpan r(tracer_, "tasking.stream", ops[i]);
        engine.replayBatches(cfg_.streamBatches, batchExec(body));
      }
      s.runS += sw.seconds();
      s.batches += cfg_.streamBatches;
      ScopedSpan v(tracer_, "verify.check", ops[i]);
      return body.fingerprint() == streamReference_.at(name);
    });
    s.wallS -= sampleReference(s);
  }
  for (std::size_t round = 0; round < cfg_.singleReplays; ++round) {
    double roundS = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Body& body = f.bodies[i];
      ScopedSpan opSpan(tracer_, "op", ops[i]);
      tally_.run(f.programs[i].name + " replay", [&] {
        body.reset();
        Stopwatch sw;
        {
          ScopedSpan r(tracer_, "tasking.replay", ops[i]);
          f.compiled[i]->engine->replay(body.exec);
        }
        roundS += sw.seconds();
        ScopedSpan v(tracer_, "verify.check", ops[i]);
        return body.fingerprint() == reference_.at(f.programs[i].name);
      });
    }
    s.latencyUs.push_back(roundS * 1e6);
  }
  for (std::size_t i = 0; i < n; ++i)
    countEngine(*f.compiled[i]->engine, ops[i], linearBefore[i]);
}

/// Engine and scaling rows (trace on): the same programs and bodies on the
/// sequential executor, 1/2/max-worker replay and streaming, the channel
/// route, the task-depend thread-pool backend and OpenMP, followed by the
/// simulator's prediction for the same worker counts.
void Bench::scaling(const Fixture& f) {
  struct Row {
    Body sequential;
    std::unique_ptr<tasking::CompiledPipeline> w1, w2, channel;
  };
  std::vector<Row> rows;
  tracer_.beginPass("scaling-setup");
  for (std::size_t i = 0; i < f.programs.size(); ++i) {
    const Compiled& c = *f.compiled[i];
    const std::uint32_t op = tracer_.beginOp(f.programs[i].name);
    ScopedSpan opSpan(tracer_, "op", op);
    Row row;
    row.sequential = sequentialBody(f.programs[i], *c.scop);
    row.w1 = std::make_unique<tasking::CompiledPipeline>(c.program, c.slots,
                                                         replayOptions(1));
    row.w2 = std::make_unique<tasking::CompiledPipeline>(c.program, c.slots,
                                                         replayOptions(2));
    pipeline::CommInfo comm;
    {
      ScopedSpan s(tracer_, "pipeline.comm", op);
      comm = pipeline::analyzeCommunication(*c.scop, c.info);
    }
    tasking::ReplayOptions channel = replayOptions(workers_);
    channel.channels = true;
    channel.comm = &comm;
    {
      ScopedSpan s(tracer_, "tasking.channel_compile", op);
      row.channel = std::make_unique<tasking::CompiledPipeline>(
          c.program, c.slots, channel);
    }
    rows.push_back(std::move(row));
  }
  auto pool = tasking::makeThreadPoolBackend(workers_);
  auto omp = tasking::openMPAvailable() ? tasking::makeOpenMPBackend()
                                        : nullptr;

  for (int rep = 0; rep < cfg_.scalingWarmups + cfg_.scalingReps; ++rep) {
    tracer_.beginPass(rep < cfg_.scalingWarmups ? "scaling-warmup"
                                                : "scaling");
    for (std::size_t i = 0; i < f.programs.size(); ++i) {
      const std::string& name = f.programs[i].name;
      const Compiled& c = *f.compiled[i];
      const Body& body = f.bodies[i];
      Row& row = rows[i];
      const std::uint32_t op = tracer_.beginOp(name);
      ScopedSpan opSpan(tracer_, "op", op);
      auto once = [&](const char* span, const Body& b, std::uint64_t expected,
                      const std::function<void()>& runIt) {
        tally_.run(name + " " + span, [&] {
          b.reset();
          {
            ScopedSpan s(tracer_, span, op);
            runIt();
          }
          return b.fingerprint() == expected;
        });
      };
      const std::uint64_t ref = reference_.at(name);
      const std::uint64_t streamRef = streamReference_.at(name);
      const std::size_t k = cfg_.streamBatches;
      once("kernels.seq", row.sequential, ref, [&] {
        tasking::executeSequential(*c.scop, row.sequential.exec);
      });
      once("tasking.replay.w1", body, ref, [&] { row.w1->replay(body.exec); });
      once("tasking.replay.w2", body, ref, [&] { row.w2->replay(body.exec); });
      once("tasking.replay.w4", body, ref,
           [&] { c.engine->replay(body.exec); });
      once("tasking.stream.w1", body, streamRef,
           [&] { row.w1->replayBatches(k, batchExec(body)); });
      once("tasking.stream.w4", body, streamRef,
           [&] { c.engine->replayBatches(k, batchExec(body)); });
      once("tasking.channel", body, ref,
           [&] { row.channel->replay(body.exec); });
      once("tasking.channel_stream", body, streamRef,
           [&] { row.channel->replayBatches(k, batchExec(body)); });
      once("tasking.taskdep", body, ref, [&] {
        tasking::executeTaskProgram(*c.program, c.slots, *pool, body.exec);
      });
      if (omp)
        once("tasking.openmp", body, ref, [&] {
          tasking::executeTaskProgram(*c.program, c.slots, *omp, body.exec);
        });
    }
  }

  // The simulator's prediction for the same programs: per-statement costs
  // calibrated on the sequential bodies, per-task overhead from a replay of
  // the 1-worker engine with empty bodies.
  tracer_.beginPass("sim");
  double predictedSeq = 0.0;
  std::array<double, 3> makespan{};
  const std::array<unsigned, 3> workerCounts = {1, 2, workers_};
  const tasking::StatementExecutor noop = [](std::size_t, const pb::Tuple&) {};
  for (std::size_t i = 0; i < f.programs.size(); ++i) {
    const Compiled& c = *f.compiled[i];
    const std::uint32_t op = tracer_.beginOp(f.programs[i].name);
    ScopedSpan s(tracer_, "sim.calibrate", op);
    Stopwatch sw;
    rows[i].w1->replay(noop);
    sim::CostModel model = sim::calibrate(*c.scop, rows[i].sequential.exec);
    model.taskOverhead =
        sw.seconds() / static_cast<double>(std::max<std::size_t>(
                           1, c.program->tasks.size()));
    for (const codegen::Task& t : c.program->tasks)
      predictedSeq += static_cast<double>(t.iterations.size()) *
                      model.iterationCost.at(t.stmtIdx);
    for (std::size_t w = 0; w < workerCounts.size(); ++w) {
      sim::SimConfig config;
      config.workers = workerCounts[w];
      makespan[w] += sim::simulate(*c.program, c.slots, model, config).makespan;
    }
  }
  for (std::size_t w = 0; w < makespan.size(); ++w)
    predictedSpeedup_[w] = makespan[w] > 0.0 ? predictedSeq / makespan[w] : 0.0;
}

double medianOr(const std::vector<double>& v, double fallback) {
  return v.empty() ? fallback : median(v);
}

/// The end-to-end metrics; `nominal` scales every pass to nominal host
/// speed (the reported figures), otherwise the figures are as measured.
std::vector<Metric> Bench::endToEndMetrics(bool nominal) const {
  auto scale = [&](const PassSamples& s) {
    return nominal ? hostScale(s) : HostScale{};
  };
  auto compileS = [&](const PassSamples& s) {
    return s.compileS * scale(s).client;
  };
  auto runS = [&](const PassSamples& s) { return s.runS * scale(s).engine; };
  auto t2rS = [&](const PassSamples& s) {
    return compileS(s) + runS(s) + s.checkS * scale(s).client;
  };
  std::vector<double> setup, compile, run, t2r, rate, latencyUs;
  // The rest of a set-up is mostly warm-up replays on the engine.
  for (const PassSamples& s : setupPasses_)
    setup.push_back(compileS(s) + (s.wallS - s.compileS) * scale(s).engine);
  for (const PassSamples& s : mainPasses_) {
    run.push_back(runS(s));
    compile.push_back(compileS(s));
    t2r.push_back(t2rS(s));
    rate.push_back(static_cast<double>(s.batches) / runS(s));
    for (double us : s.latencyUs)
      latencyUs.push_back(us * scale(s).engine);
  }
  if (!cfg_.compileEachPass) {
    // Programs are compiled once, in set-up: source -> result is measured
    // there, as compile + first verified replay of every program.
    compile.clear();
    t2r.clear();
    for (const PassSamples& s : setupPasses_) {
      compile.push_back(compileS(s));
      t2r.push_back(t2rS(s));
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      {"setup_s", medianOr(setup, nan), "s"},
      {"compile_s", medianOr(compile, nan), "s"},
      {"run_s", medianOr(run, nan), "s"},
      {"text_to_result_s", medianOr(t2r, nan), "s"},
      {"batches_per_s", medianOr(rate, nan), "1/s"},
      {"batch_us_p50", latencyUs.empty() ? nan : harrellDavis(latencyUs, 0.5),
       "us"},
      {"batch_us_p90", latencyUs.empty() ? nan : harrellDavis(latencyUs, 0.9),
       "us"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

std::vector<Metric> Bench::perLayerMetrics(const Fixture& f) const {
  const std::vector<std::int64_t> self = selfTimesNs(tracer_.spans());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const char* compilePhase = cfg_.compileEachPass ? "main" : "setup";
  auto layer = [&](const char* phase, const char* span,
                   std::string_view program = {}) {
    return medianOr(passTotalsMs(tracer_, self, phase, span, program), nan);
  };
  auto counter = [&](const char* phase, const char* name) {
    return medianOr(passCounterSums(tracer_, phase, name), nan);
  };
  const double k = static_cast<double>(cfg_.streamBatches);
  // stream_small streams in its main loop; the other workloads stream only
  // in the scaling rows, at the same worker count.
  const char* streamPhase = cfg_.compileEachPass ? "scaling" : "main";
  const char* streamSpan =
      cfg_.compileEachPass ? "tasking.stream.w4" : "tasking.stream";
  auto streamUs = [&](std::string_view program = {}) {
    return layer(streamPhase, streamSpan, program) * 1e3 / k;
  };

  std::vector<Metric> m;
  auto add = [&](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  for (const char* span :
       {"frontend.parse", "pipeline.detect", "schedule.build", "ast.build",
        "codegen.lower", "codegen.validate", "opt.optimize", "opt.slot_table",
        "tasking.engine_compile"})
    add(std::string(span) + "_ms", layer(compilePhase, span), "ms");
  add("pipeline.comm_ms", layer("scaling-setup", "pipeline.comm"), "ms");
  for (const char* name :
       {"pipeline.detect.pairs_parametric", "pipeline.detect.pairs_symbolic",
        "pipeline.detect.pairs_explicit", "pipeline.detect.pairs_fallback",
        "pipeline.detect.pairs_reduction", "pipeline.blocks", "codegen.tasks",
        "codegen.edges"})
    add(name, counter(compilePhase, name), "count");
  add("opt.tasks_removed_frac",
      1.0 - counter(compilePhase, "opt.tasks_after") /
                counter(compilePhase, "codegen.tasks"),
      "frac");
  add("opt.edges_removed_frac",
      1.0 - counter(compilePhase, "opt.edges_after") /
                counter(compilePhase, "codegen.edges"),
      "frac");

  add("tasking.replay_ms", layer("main", "tasking.replay"), "ms");
  std::vector<double> replayUs;
  for (std::size_t i = 0; i < tracer_.spans().size(); ++i) {
    const SpanRecord& s = tracer_.spans()[i];
    if (std::string_view(s.name) == "tasking.replay" &&
        std::string_view(tracer_.passes()[s.pass].phase) == "main")
      replayUs.push_back(static_cast<double>(self[i]) / 1e3);
  }
  add("tasking.replay_us", medianOr(replayUs, nan), "us");
  add("tasking.linear_replays", counter("main", "tasking.linear_replays"),
      "count");
  add("verify.check_ms", layer("main", "verify.check"), "ms");
  add("tasking.retained_bytes", counter("main", "tasking.retained_bytes"),
      "B");

  const double seqMs = layer("scaling", "kernels.seq");
  add("kernels.seq_ms", seqMs, "ms");
  add("kernels.body_us_per_batch", seqMs * 1e3, "us");
  add("tasking.replay_ms.w1", layer("scaling", "tasking.replay.w1"), "ms");
  add("tasking.replay_ms.w2", layer("scaling", "tasking.replay.w2"), "ms");
  const double w4Ms = layer("scaling", "tasking.replay.w4");
  add("tasking.replay_ms.w4", w4Ms, "ms");
  std::vector<double> speedups;
  for (const ProgramInput& in : f.programs)
    speedups.push_back(layer("scaling", "kernels.seq", in.name) /
                       layer("scaling", "tasking.replay.w4", in.name));
  add("tasking.speedup_vs_seq", geomean(speedups), "x");
  const double streamPerBatch = streamUs();
  add("tasking.stream_us_per_batch", streamPerBatch, "us");
  add("tasking.stream_us_per_batch.w1",
      layer("scaling", "tasking.stream.w1") * 1e3 / k, "us");
  add("tasking.overhead_us_per_batch", streamPerBatch - seqMs * 1e3, "us");
  add("tasking.channel_ms", layer("scaling", "tasking.channel"), "ms");
  add("tasking.channel_stream_us_per_batch",
      layer("scaling", "tasking.channel_stream") * 1e3 / k, "us");
  add("tasking.taskdep_ms", layer("scaling", "tasking.taskdep"), "ms");
  if (tasking::openMPAvailable())
    add("tasking.openmp_ms", layer("scaling", "tasking.openmp"), "ms");

  add("sim.predicted_speedup.w1", predictedSpeedup_[0], "x");
  add("sim.predicted_speedup.w2", predictedSpeedup_[1], "x");
  add("sim.predicted_speedup.w4", predictedSpeedup_[2], "x");
  const double measuredW4 = seqMs / w4Ms;
  add("sim.error_pct", 100.0 * (predictedSpeedup_[2] - measuredW4) / measuredW4,
      "%");

  std::vector<double> traced, untraced;
  for (const PassSamples& s : mainPasses_)
    (s.traced ? traced : untraced).push_back(s.wallS);
  const double plain = medianOr(untraced, nan);
  add("trace.overhead_pct", 100.0 * (medianOr(traced, nan) - plain) / plain,
      "%");

  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const std::string& p = spec.name;
    add("pipeline.detect_ms." + p, layer(compilePhase, "pipeline.detect", p),
        "ms");
    add("opt.optimize_ms." + p, layer(compilePhase, "opt.optimize", p), "ms");
    add("tasking.replay_ms." + p, layer("main", "tasking.replay", p), "ms");
    add("tasking.stream_us_per_batch." + p, streamUs(p), "us");
  }
  return m;
}

std::string Bench::configJson() const {
  const ProgramSet& p = cfg_.programs;
  return "{\"workload\": " + jsonString(cfg_.name) +
         ", \"seed\": " + std::to_string(opt_.seed) +
         ", \"seconds\": " + jsonNumber(opt_.seconds) +
         ", \"trace\": " + (opt_.trace ? "true" : "false") +
         ", \"workers\": " + std::to_string(workers_) +
         ", \"table9_n\": " + std::to_string(p.table9N) +
         ", \"random_programs\": " + std::to_string(p.randomPrograms) +
         ", \"random_n\": " + std::to_string(p.randomN) +
         ", \"matmul_n\": " + std::to_string(p.matmulN) +
         ", \"reduction_n\": " + std::to_string(p.reductionN) +
         ", \"kernel_size\": " +
         (cfg_.realKernels ? std::to_string(cfg_.kernelSize) : "null") +
         ", \"reduction_kernel_size\": " +
         (cfg_.realKernels ? std::to_string(cfg_.reductionSize) : "null") +
         ", \"stream_batches\": " + std::to_string(cfg_.streamBatches) +
         ", \"single_replays\": " + std::to_string(cfg_.singleReplays) +
         ", \"setup_reps\": " + std::to_string(cfg_.setupReps) + ", " +
         hostFactsJson(hostFacts()) + "}";
}

std::string Bench::samplesJson() const {
  auto passes = [](const std::vector<PassSamples>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      out += std::string(i ? ", " : "") +
             "{\"compile_s\": " + jsonNumber(v[i].compileS) +
             ", \"run_s\": " + jsonNumber(v[i].runS) +
             ", \"check_s\": " + jsonNumber(v[i].checkS) +
             ", \"batches\": " + std::to_string(v[i].batches) +
             ", \"wall_s\": " + jsonNumber(v[i].wallS) +
             ", \"serial_reference_s\": " + jsonNumber(v[i].serialS) +
             ", \"parallel_reference_s\": " + jsonNumber(v[i].parallelS) +
             ", \"references\": " + std::to_string(v[i].references) +
             ", \"traced\": " + (v[i].traced ? "true" : "false") + "}";
    return out + "]";
  };
  // Within-run quartiles of the measured main-loop pass times: the spread
  // behind each median.
  auto quartiles = [&](const char* name, double PassSamples::*field) {
    std::vector<double> v;
    for (const PassSamples& s : mainPasses_)
      v.push_back(s.*field);
    const std::vector<double> q = v.size() > 1 ? quantiles(v, 4)
                                               : std::vector<double>(3, v[0]);
    return jsonString(name) + ": [" + jsonNumber(q[0]) + ", " +
           jsonNumber(q[1]) + ", " + jsonNumber(q[2]) + "]";
  };
  std::string measured;
  if (!opt_.trace)
    for (const Metric& m : endToEndMetrics(false))
      measured += (measured.empty() ? "" : ", ") + jsonString(m.name) + ": " +
                  jsonNumber(m.value);
  return "{\"setup\": " + passes(setupPasses_) +
         ", \"main\": " + passes(mainPasses_) + ", \"main_quartiles\": {" +
         quartiles("compile_s", &PassSamples::compileS) + ", " +
         quartiles("run_s", &PassSamples::runS) + ", " +
         quartiles("wall_s", &PassSamples::wallS) +
         "}, \"measured_metrics\": {" + measured +
         "}, \"latency_samples\": " + std::to_string(latencySamples()) + "}";
}

RunResult Bench::run() {
  computeReferences();
  std::unique_ptr<Fixture> fixture;
  for (int rep = 0; rep < cfg_.setupReps; ++rep)
    fixture = setUp();
  if (tally_.failed() > 0)
    throw std::runtime_error("set-up failed: " + tally_.errors().front());

  // The closed loop. A traced run alternates traced and untraced passes
  // so the tracing overhead is measured on the same run.
  const double budget = opt_.trace ? opt_.seconds / 2.0 : opt_.seconds;
  Stopwatch total;
  for (int pass = 0; pass < kMinPasses || total.seconds() < budget; ++pass) {
    PassSamples s;
    s.traced = opt_.trace && pass % 2 == 0;
    tracer_.setEnabled(s.traced);
    tracer_.beginPass("main");
    Stopwatch wall;
    {
      ScopedSpan p(tracer_, "pass");
      if (cfg_.compileEachPass)
        compileRunPass(*fixture, s);
      else
        streamPass(*fixture, s);
    }
    s.wallS += wall.seconds();
    mainPasses_.push_back(s);
  }
  tracer_.setEnabled(opt_.trace);

  RunResult r;
  if (opt_.trace) {
    scaling(*fixture);
    r.metrics = perLayerMetrics(*fixture);
    r.traceJson = traceJson(tracer_, selfTimesNs(tracer_.spans()));
  } else {
    r.metrics = endToEndMetrics(true);
  }
  r.attempted = tally_.attempted();
  r.failed = tally_.failed();
  r.errors = tally_.errors();
  r.latencySamples = latencySamples();
  r.configJson = configJson();
  r.samplesJson = samplesJson();
  return r;
}

} // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const WorkloadConfig& c : configs())
      names.emplace_back(c.name);
    return names;
  }();
  return kNames;
}

RunResult runWorkload(const RunOptions& options) {
  for (const WorkloadConfig& c : configs())
    if (options.workload == c.name)
      return Bench(c, options).run();
  throw std::invalid_argument("unknown workload: " + options.workload);
}

} // namespace perfbench
