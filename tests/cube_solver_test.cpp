#include "cube/cube_solver.h"
#include "mc/shim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.h"
#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "graph/coloring_bounds.h"
#include "graph/graph.h"
#include "sat/clause_sink.h"
#include "test_util.h"

namespace satfr::cube {
namespace {

graph::Graph Cycle(int n) {
  graph::Graph g(n);
  for (graph::VertexId v = 0; v < n; ++v) g.AddEdge(v, (v + 1) % n);
  return g;
}

graph::Graph Complete(int n) {
  graph::Graph g(n);
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  return g;
}

CubeSolveOptions Workers(int n) {
  CubeSolveOptions options;
  options.pool.num_workers = n;
  return options;
}

TEST(CubeSolverTest, SatisfiableOddCycle) {
  const graph::Graph g = Cycle(9);
  const CubeSolveResult result = SolveColoringWithCubes(
      g, 3, encode::GetEncoding("muldirect"), symmetry::Heuristic::kS1,
      Workers(2));
  EXPECT_EQ(result.status, sat::SolveResult::kSat);
  EXPECT_TRUE(result.error.empty());
  EXPECT_GE(result.winning_cube, 0);
  EXPECT_TRUE(g.IsProperColoring(result.colors, 3));
}

TEST(CubeSolverTest, UnsatisfiableOddCycle) {
  const graph::Graph g = Cycle(9);
  const CubeSolveResult result = SolveColoringWithCubes(
      g, 2, encode::GetEncoding("muldirect"), symmetry::Heuristic::kS1,
      Workers(2));
  EXPECT_EQ(result.status, sat::SolveResult::kUnsat);
  EXPECT_EQ(result.winning_cube, -1);
  EXPECT_TRUE(result.colors.empty());
}

TEST(CubeSolverTest, EmptyCubeSetIsAnUnsatProof) {
  // K4 with 3 colors and the full s1 sequence: the generator prunes every
  // leaf (see CubeGenTest.ConflictPruningDropsAdjacentEqualColors), so the
  // pool receives zero cubes — and must report UNSAT without solving.
  const graph::Graph g = Complete(4);
  const CubeSolveResult result = SolveColoringWithCubes(
      g, 3, encode::GetEncoding("muldirect"), symmetry::Heuristic::kS1,
      Workers(2));
  EXPECT_EQ(result.status, sat::SolveResult::kUnsat);
  EXPECT_EQ(result.num_cubes, 0u);
  EXPECT_EQ(result.cubes_resolved, 0u);
}

TEST(CubeSolverTest, VerdictsMatchExactAcrossEncodingsAndHeuristics) {
  // The headline equivalence sweep: every evaluated encoding x every
  // symmetry heuristic must give the exact verdict on both sides of the
  // chromatic number when solved through the cube pipeline.
  Rng rng(20260808);
  const graph::Graph g = testutil::RandomGraph(rng, 9, 0.45);
  const int chi = graph::ChromaticNumberExact(g);
  ASSERT_GE(chi, 2);
  for (const std::string& name : encode::EvaluatedEncodingNames()) {
    const encode::EncodingSpec& spec = encode::GetEncoding(name);
    for (const symmetry::Heuristic heuristic :
         {symmetry::Heuristic::kNone, symmetry::Heuristic::kB1,
          symmetry::Heuristic::kS1}) {
      CubeSolveOptions options = Workers(2);
      options.gen.target_cubes = 16;
      const CubeSolveResult sat_side =
          SolveColoringWithCubes(g, chi, spec, heuristic, options);
      EXPECT_EQ(sat_side.status, sat::SolveResult::kSat)
          << name << " K=" << chi;
      EXPECT_TRUE(sat_side.error.empty()) << name;
      const CubeSolveResult unsat_side =
          SolveColoringWithCubes(g, chi - 1, spec, heuristic, options);
      EXPECT_EQ(unsat_side.status, sat::SolveResult::kUnsat)
          << name << " K=" << chi - 1;
    }
  }
}

TEST(CubeSolverTest, DeterministicSingleWorkerReproducesExactly) {
  Rng rng(77);
  const graph::Graph g = testutil::RandomGraph(rng, 14, 0.4);
  CubeSolveOptions options = Workers(1);
  options.pool.deterministic = true;
  const encode::EncodingSpec& spec =
      encode::GetEncoding("ITE-linear-2+muldirect");
  const CubeSolveResult first =
      SolveColoringWithCubes(g, 4, spec, symmetry::Heuristic::kS1, options);
  const CubeSolveResult second =
      SolveColoringWithCubes(g, 4, spec, symmetry::Heuristic::kS1, options);
  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.colors, second.colors);
  EXPECT_EQ(first.winning_cube, second.winning_cube);
  EXPECT_EQ(first.num_cubes, second.num_cubes);
  EXPECT_EQ(first.cubes_stolen, 0u);
  EXPECT_EQ(second.cubes_stolen, 0u);
}

TEST(CubeSolverTest, PreSetStopCancelsBeforeAnyCube) {
  const graph::Graph g = Cycle(9);
  satfr::mc::Atomic<bool> stop{true};
  CubeSolveOptions options = Workers(2);
  options.stop = &stop;
  const CubeSolveResult result = SolveColoringWithCubes(
      g, 3, encode::GetEncoding("muldirect"), symmetry::Heuristic::kS1,
      options);
  EXPECT_EQ(result.status, sat::SolveResult::kUnknown);
}

TEST(CubeSolverTest, StopMidBatchCancelsWorkers) {
  // K16 at 15 colors with no symmetry breaking is pigeonhole-hard: no
  // worker will finish its cube before the stop lands, so a prompt return
  // with kUnknown demonstrates cancellation reaches solvers mid-cube.
  const graph::Graph g = Complete(16);
  satfr::mc::Atomic<bool> stop{false};
  CubeSolveOptions options = Workers(2);
  options.stop = &stop;
  options.gen.target_cubes = 8;
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
  });
  const CubeSolveResult result = SolveColoringWithCubes(
      g, 15, encode::GetEncoding("muldirect"), symmetry::Heuristic::kNone,
      options);
  canceller.join();
  EXPECT_EQ(result.status, sat::SolveResult::kUnknown);
}

TEST(CubeSolverTest, DeadlineBoundsTheBatch) {
  const graph::Graph g = Complete(16);
  CubeSolveOptions options = Workers(2);
  options.timeout_seconds = 0.1;
  const CubeSolveResult result = SolveColoringWithCubes(
      g, 15, encode::GetEncoding("muldirect"), symmetry::Heuristic::kNone,
      options);
  EXPECT_EQ(result.status, sat::SolveResult::kUnknown);
  EXPECT_LT(result.wall_seconds, 30.0);
}

TEST(CubeSolverTest, PoolSolvesConsecutiveBatchesOnResidentSolvers) {
  // The pool's reason to exist: one loaded formula, many batches (the
  // incremental sweep's shape). Batch 1 carries base assumptions that force
  // two adjacent vertices onto one color — every cube must be refuted
  // without poisoning the solvers — and batch 2 then answers the
  // unrestricted query SAT on the same resident solvers.
  const graph::Graph g = Cycle(9);
  const encode::DomainEncoding domain =
      encode::EncodeDomain(encode::GetEncoding("muldirect"), 3);
  encode::ColoringLayout layout;
  const auto loader = [&](int worker, sat::Solver& solver) {
    sat::SolverSink sink(solver);
    encode::ColoringLayout built = encode::EncodeColoringToSink(
        g, 3, encode::GetEncoding("muldirect"), {}, sink);
    if (worker == 0) layout = built;
    return sink.Finish();
  };
  CubePoolOptions pool_options;
  pool_options.num_workers = 2;
  cube::CubeWorkerPool pool(sat::SolverOptions::SiegeLike(), pool_options,
                            loader);
  ASSERT_TRUE(pool.okay());

  CubeGenOptions gen;
  gen.target_cubes = 9;
  const CubeSet cubes = GenerateCubes(g, domain, 3, {}, gen);
  ASSERT_FALSE(cubes.cubes.empty());

  // Base assumptions: vertices 0 and 1 (adjacent on the cycle) both take
  // color 0 — contradicts the conflict clause in every cube.
  std::vector<sat::Lit> clash;
  for (const graph::VertexId v : {0, 1}) {
    for (const sat::Lit l : domain.value_cubes[0]) {
      clash.push_back(
          sat::Lit::Make(l.var() + v * domain.num_vars, l.negated()));
    }
  }
  const auto batch_clash = pool.SolveBatch(cubes.cubes, clash);
  EXPECT_EQ(batch_clash.status, sat::SolveResult::kUnsat);
  EXPECT_FALSE(batch_clash.refuted);  // assumption-UNSAT, formula fine
  EXPECT_EQ(batch_clash.cubes_resolved, cubes.cubes.size());
  EXPECT_TRUE(pool.okay());

  const auto batch_free = pool.SolveBatch(cubes.cubes, {});
  EXPECT_EQ(batch_free.status, sat::SolveResult::kSat);
  EXPECT_GE(batch_free.winning_cube, 0);
  const std::vector<int> colors =
      encode::DecodeColoring(layout, batch_free.model);
  EXPECT_TRUE(g.IsProperColoring(colors, 3));
  EXPECT_GT(pool.MergedStats().propagations, 0u);
}

TEST(CubeSolverTest, SetupFailureReportsRefuted) {
  const auto broken_loader = [](int, sat::Solver&) { return false; };
  CubePoolOptions pool_options;
  pool_options.num_workers = 2;
  cube::CubeWorkerPool pool(sat::SolverOptions::SiegeLike(), pool_options,
                            broken_loader);
  EXPECT_FALSE(pool.okay());
  const auto batch = pool.SolveBatch({{sat::Lit::Pos(0)}}, {});
  EXPECT_EQ(batch.status, sat::SolveResult::kUnsat);
  EXPECT_TRUE(batch.refuted);
}

TEST(CubeSolverTest, ManyWorkersOnFewCubesStillExact) {
  // More workers than cubes: idle workers must neither wedge termination
  // nor corrupt the verdict.
  const graph::Graph g = Cycle(5);
  CubeSolveOptions options = Workers(8);
  options.gen.target_cubes = 2;
  const CubeSolveResult result = SolveColoringWithCubes(
      g, 3, encode::GetEncoding("muldirect"), symmetry::Heuristic::kS1,
      options);
  EXPECT_EQ(result.status, sat::SolveResult::kSat);
  EXPECT_TRUE(result.error.empty());
}

}  // namespace
}  // namespace satfr::cube
