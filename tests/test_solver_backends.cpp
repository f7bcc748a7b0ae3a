// Tests for the pluggable solver-backend layer (core/solver_backend.hpp):
// dense/cg agreement on the tier-1 fixtures, per-backend thread-count
// bit-identity, streaming == batch equivalence per backend, and the
// PCG building block against its dense reference.
#include <gtest/gtest.h>

#include <cmath>

#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/solver_backend.hpp"
#include "linalg/lsq.hpp"
#include "linalg/pcg.hpp"
#include "linalg/sparse.hpp"
#include "scenario/common.hpp"
#include "stream/online.hpp"
#include "test_util.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

namespace ictm {
namespace {

// Diurnally varying random traffic with every OD pair active — the
// dense-prior worst case the scale scenarios use.
traffic::TrafficMatrixSeries MakeTraffic(std::size_t n, std::size_t bins,
                                         std::uint64_t seed) {
  stats::Rng rng(seed);
  traffic::TrafficMatrixSeries truth(n, bins, 300.0);
  for (std::size_t t = 0; t < bins; ++t) {
    const double diurnal =
        1.0 + 0.5 * std::sin(2.0 * M_PI * double(t) / 288.0);
    for (std::size_t k = 0; k < n * n; ++k) {
      truth.binData(t)[k] = diurnal * rng.uniform(1e6, 1e7);
    }
  }
  return truth;
}

double MaxRelDiff(const traffic::TrafficMatrixSeries& a,
                  const traffic::TrafficMatrixSeries& b) {
  const std::size_t n = a.nodeCount();
  double worst = 0.0;
  for (std::size_t t = 0; t < a.binCount(); ++t) {
    const double* pa = a.binData(t);
    const double* pb = b.binData(t);
    for (std::size_t k = 0; k < n * n; ++k) {
      const double scale =
          std::max({std::fabs(pa[k]), std::fabs(pb[k]), 1.0});
      worst = std::max(worst, std::fabs(pa[k] - pb[k]) / scale);
    }
  }
  return worst;
}

using scenario::BitIdentical;  // the shared exact-equality check

struct Fixture {
  topology::Graph graph;
  linalg::CsrMatrix routing;
  traffic::TrafficMatrixSeries truth;
  traffic::TrafficMatrixSeries priors;

  Fixture(const std::string& spec, std::size_t bins, std::uint64_t seed)
      : graph(topology::MakeTopology(spec, 0)),
        routing(topology::BuildRoutingCsr(graph)),
        truth(MakeTraffic(graph.nodeCount(), bins, seed)),
        priors(core::GravityPredictSeries(truth)) {}

  traffic::TrafficMatrixSeries Estimate(core::SolverKind kind,
                                        std::size_t threads = 1) const {
    core::EstimationOptions options;
    options.solver = kind;
    options.threads = threads;
    return core::EstimateSeries(routing, truth, priors, options);
  }
};

// ---- backend agreement on the tier-1 fixtures ----------------------

TEST(SolverBackendsTest, AgreeOnGeant22) {
  const Fixture fx("geant22", 4, 11);
  const auto dense = fx.Estimate(core::SolverKind::kDense);
  const auto cg = fx.Estimate(core::SolverKind::kCg);
  EXPECT_LT(MaxRelDiff(dense, cg), 1e-8);
}

TEST(SolverBackendsTest, AgreeOnHierarchy50) {
  const Fixture fx("hierarchy:50", 3, 12);
  const auto dense = fx.Estimate(core::SolverKind::kDense);
  const auto cg = fx.Estimate(core::SolverKind::kCg);
  EXPECT_LT(MaxRelDiff(dense, cg), 1e-8);
}

TEST(SolverBackendsTest, AutoMatchesItsResolvedBackendBitForBit) {
  // geant22 and hierarchy:50 sit below the threshold (dense),
  // hierarchy:100 above (cg); auto must be the same code path, not
  // merely close.
  const Fixture small("hierarchy:50", 2, 13);
  EXPECT_TRUE(
      BitIdentical(small.Estimate(core::SolverKind::kAuto),
                   small.Estimate(core::SolverKind::kDense)));
  const Fixture large("hierarchy:100", 2, 14);
  EXPECT_TRUE(
      BitIdentical(large.Estimate(core::SolverKind::kAuto),
                   large.Estimate(core::SolverKind::kCg)));
}

// ---- per-backend thread-count bit-identity -------------------------

TEST(SolverBackendsTest, ThreadFanoutBitIdenticalPerBackend) {
  const Fixture fx("hierarchy:50", 8, 15);
  for (const core::SolverKind kind :
       {core::SolverKind::kDense, core::SolverKind::kCg}) {
    const auto t1 = fx.Estimate(kind, 1);
    const auto t8 = fx.Estimate(kind, 8);
    EXPECT_TRUE(BitIdentical(t1, t8))
        << "backend " << core::SolverKindName(kind)
        << " diverges across thread counts";
  }
}

// ---- streaming == batch under every backend ------------------------

TEST(SolverBackendsTest, StreamingMatchesBatchUnderDenseAndCg) {
  const topology::Graph g = topology::MakeGeant22();
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const std::size_t n = g.nodeCount();
  const auto truth = MakeTraffic(n, 12, 16);

  for (const core::SolverKind kind :
       {core::SolverKind::kDense, core::SolverKind::kCg}) {
    stream::StreamingOptions options;
    options.threads = 4;
    options.queueCapacity = 3;
    options.window = 4;
    options.estimation.solver = kind;
    const stream::StreamingRunResult run =
        stream::EstimateSeriesStreaming(routing, truth, options);

    core::EstimationOptions batch;
    batch.solver = kind;
    const auto batchEst =
        core::EstimateSeries(routing, truth, run.priors, batch);
    EXPECT_TRUE(BitIdentical(run.estimates, batchEst))
        << "streaming != batch under "
        << core::SolverKindName(kind);
  }
}

// ---- kind resolution and parsing -----------------------------------

TEST(SolverBackendsTest, AutoResolvesByRowCount) {
  using core::ResolveSolverKind;
  using core::SolverKind;
  EXPECT_EQ(ResolveSolverKind(SolverKind::kAuto,
                              core::kAutoSolverRowThreshold - 1),
            SolverKind::kDense);
  EXPECT_EQ(ResolveSolverKind(SolverKind::kAuto,
                              core::kAutoSolverRowThreshold),
            SolverKind::kCg);
  // Concrete kinds pass through regardless of size.
  EXPECT_EQ(ResolveSolverKind(SolverKind::kCg, 10), SolverKind::kCg);
  EXPECT_EQ(ResolveSolverKind(SolverKind::kDense, 1 << 20),
            SolverKind::kDense);
}

TEST(SolverBackendsTest, SolverNameReportsResolvedBackend) {
  const topology::Graph g = topology::MakeGeant22();
  const core::AugmentedTmSystem sys(topology::BuildRoutingCsr(g),
                                    g.nodeCount(), true);
  core::EstimationOptions options;
  options.solver = core::SolverKind::kAuto;
  EXPECT_STREQ(core::TmBinSolver(sys, options).solverName(), "dense");
  options.solver = core::SolverKind::kCg;
  EXPECT_STREQ(core::TmBinSolver(sys, options).solverName(), "cg");
}

TEST(SolverBackendsTest, ParseSolverKindRoundTrips) {
  for (const core::SolverKind kind :
       {core::SolverKind::kAuto, core::SolverKind::kDense,
        core::SolverKind::kCg}) {
    core::SolverKind parsed = core::SolverKind::kAuto;
    EXPECT_TRUE(
        core::ParseSolverKind(core::SolverKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  core::SolverKind parsed = core::SolverKind::kAuto;
  EXPECT_FALSE(core::ParseSolverKind("cholesky", &parsed));
  EXPECT_FALSE(core::ParseSolverKind("sparse", &parsed));  // removed
  EXPECT_FALSE(core::ParseSolverKind("", &parsed));
  EXPECT_FALSE(core::ParseSolverKind("Dense", &parsed));
}

TEST(SolverBackendsTest, CgHandlesSparseSupportPriors) {
  // Priors with zero and tiny entries (overnight bins, IC priors)
  // create outlier eigenvalues the frozen preconditioner cannot see;
  // CG then spends a long plateau picking them off before its final
  // plunge.  Regression: an early stagnation guard used to abort
  // mid-plateau, leaving estimates off by O(1) instead of solver
  // tolerance.
  const Fixture fx("geant22", 4, 18);
  traffic::TrafficMatrixSeries sparsePriors = fx.priors;
  stats::Rng rng(19);
  const std::size_t n = fx.graph.nodeCount();
  for (std::size_t t = 0; t < sparsePriors.binCount(); ++t) {
    double* bin = sparsePriors.binData(t);
    for (std::size_t k = 0; k < n * n; ++k) {
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.3) {
        bin[k] = 0.0;  // structurally absent OD pair
      } else if (u < 0.5) {
        bin[k] *= 1e-5;  // tiny weight, huge spread
      }
    }
  }
  core::EstimationOptions options;
  options.solver = core::SolverKind::kDense;
  const auto dense =
      core::EstimateSeries(fx.routing, fx.truth, sparsePriors, options);
  options.solver = core::SolverKind::kCg;
  const auto cg =
      core::EstimateSeries(fx.routing, fx.truth, sparsePriors, options);
  EXPECT_LT(MaxRelDiff(dense, cg), 1e-6);
}

// ---- degenerate inputs ---------------------------------------------

TEST(SolverBackendsTest, AllZeroPriorBinIdenticalAcrossBackends) {
  // With an all-zero prior the least-squares correction vanishes and
  // every backend must produce the exact same IPF-seeded estimate.
  const topology::Graph g = topology::MakeRing(6, 2);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const auto truth = MakeTraffic(6, 2, 17);
  traffic::TrafficMatrixSeries zeros(6, 2, 300.0);

  core::EstimationOptions options;
  options.solver = core::SolverKind::kDense;
  const auto dense = core::EstimateSeries(routing, truth, zeros, options);
  options.solver = core::SolverKind::kCg;
  const auto cg = core::EstimateSeries(routing, truth, zeros, options);
  EXPECT_TRUE(BitIdentical(dense, cg));
}

// ---- PCG against the dense reference -------------------------------

TEST(NormalPcgTest, MatchesDenseSolveOnRoutingSystem) {
  const topology::Graph g = topology::MakeRing(8, 2);
  const linalg::CsrMatrix routing = topology::BuildRoutingCsr(g);
  const core::AugmentedTmSystem sys(routing, 8, true);
  const linalg::CscMatrix& a = sys.matrix();

  stats::Rng rng(4);
  std::vector<double> w(a.cols());
  for (double& wi : w) wi = rng.uniform(0.5, 5.0);
  std::vector<double> d(a.rows());
  for (double& di : d) di = rng.uniform(-1.0, 1.0);
  // Keep the rhs in range(A): d = A * random — the shape every
  // estimation residual has.
  {
    linalg::Vector x(a.cols());
    for (double& xi : x) xi = rng.uniform(-1.0, 1.0);
    const linalg::Vector ax = a.Multiply(x);
    for (std::size_t r = 0; r < a.rows(); ++r) d[r] = ax[r];
  }

  const double relativeRidge = 1e-10;
  std::vector<double> m(a.rows() * a.rows(), 0.0);
  linalg::WeightedGramInto(a, w.data(), m.data());
  double trace = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) trace += m[r * a.rows() + r];
  const double ridge = std::max(trace, 1.0) * relativeRidge + 1e-30;
  for (std::size_t r = 0; r < a.rows(); ++r) m[r * a.rows() + r] += ridge;
  std::vector<double> zDense = d;
  linalg::CholeskySolveInPlace(m.data(), zDense.data(), a.rows());

  const linalg::FrozenNormalPreconditioner precond(a);
  std::vector<double> scratch(linalg::NormalPcg::RequiredScratch(a), 0.0);
  linalg::NormalPcg pcg(a, precond, scratch.data());
  std::vector<double> zCg = d;
  const linalg::PcgResult res =
      pcg.Solve(w.data(), relativeRidge, zCg.data());
  EXPECT_GT(res.iterations, 0u);

  // Compare through the operator image (the null-space component of z
  // is irrelevant to the estimate, which only consumes Aᵀ z).
  const std::size_t n2 = a.cols();
  linalg::Vector atDense(n2, 0.0), atCg(n2, 0.0);
  for (std::size_t c = 0; c < n2; ++c) {
    double accD = 0.0, accC = 0.0;
    for (std::size_t k = a.colPtr()[c]; k < a.colPtr()[c + 1]; ++k) {
      accD += a.values()[k] * zDense[a.rowIdx()[k]];
      accC += a.values()[k] * zCg[a.rowIdx()[k]];
    }
    atDense[c] = accD;
    atCg[c] = accC;
  }
  for (std::size_t c = 0; c < n2; ++c) {
    EXPECT_NEAR(atCg[c], atDense[c],
                1e-7 * std::max(std::fabs(atDense[c]), 1.0));
  }
}

TEST(NormalPcgTest, ZeroRhsReturnsZero) {
  const topology::Graph g = topology::MakeRing(5, 2);
  const core::AugmentedTmSystem sys(topology::BuildRoutingCsr(g), 5, true);
  const linalg::CscMatrix& a = sys.matrix();
  std::vector<double> w(a.cols(), 1.0);
  std::vector<double> d(a.rows(), 0.0);
  const linalg::FrozenNormalPreconditioner precond(a);
  std::vector<double> scratch(linalg::NormalPcg::RequiredScratch(a), 0.0);
  linalg::NormalPcg pcg(a, precond, scratch.data());
  const linalg::PcgResult res = pcg.Solve(w.data(), 1e-10, d.data());
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  for (const double di : d) EXPECT_EQ(di, 0.0);
}

}  // namespace
}  // namespace ictm
