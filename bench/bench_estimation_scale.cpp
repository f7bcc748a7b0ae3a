// Wall-clock scaling of the per-bin TM estimation fan-out.
//
// Runs a Géant-scale (22-node) EstimateSeries over a week of 5-minute
// bins (2016) three ways:
//   legacy    — the pre-sparse serial implementation (reproduced below
//               verbatim: dense system assembly per bin, dense scans,
//               per-bin allocations),
//   sparse x1 — the compressed-system engine, single thread,
//   sparse xT — the same engine with T worker threads.
// and reports the speedups plus two correctness checks: the threaded
// run must be bit-identical to the single-threaded one, and the sparse
// engine must agree with the legacy pipeline to solver tolerance.
//
// A second mode sweeps generated hierarchical backbones from 22 to 200
// nodes through every solver backend (dense, cg, plus the
// production `auto` path) and writes two JSON artifacts: the perf
// trajectory over node count (BENCH_topology_scale.json, from the
// `auto` runs) and the per-backend comparison
// (BENCH_solver_backends.json).  The sweep enforces the backend-layer
// contract: every backend bit-identical for threads 1 vs 8, cg >= 3x
// faster than dense per bin at hierarchy:200, and `auto` no slower
// than dense at 22 nodes.
//
// usage: bench_estimation_scale [bins] [threads]
//        bench_estimation_scale --topo-sweep [out.json] [threads]
//                               [backends_out.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "core/solver_backend.hpp"
#include "linalg/lsq.hpp"
#include "scenario/common.hpp"
#include "stats/rng.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

namespace {

using namespace ictm;

// ---- the seed's serial dense pipeline, kept verbatim as the baseline ----

namespace legacy {

struct SparseColumns {
  std::vector<std::vector<std::pair<std::size_t, double>>> cols;

  explicit SparseColumns(const linalg::Matrix& m) : cols(m.cols()) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        const double v = m(r, c);
        if (v != 0.0) cols[c].emplace_back(r, v);
      }
    }
  }
};

linalg::Matrix Ipf(linalg::Matrix tm, const linalg::Vector& rowTargets,
                   const linalg::Vector& colTargets,
                   std::size_t maxIterations, double tolerance) {
  const std::size_t n = tm.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) rowSum += tm(i, j);
    if (rowSum == 0.0 && rowTargets[i] > 0.0) {
      for (std::size_t j = 0; j < n; ++j)
        tm(i, j) = rowTargets[i] / static_cast<double>(n);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    double colSum = 0.0;
    for (std::size_t i = 0; i < n; ++i) colSum += tm(i, j);
    if (colSum == 0.0 && colTargets[j] > 0.0) {
      for (std::size_t i = 0; i < n; ++i)
        tm(i, j) += colTargets[j] / static_cast<double>(n);
    }
  }
  for (std::size_t iter = 0; iter < maxIterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      double rowSum = 0.0;
      for (std::size_t j = 0; j < n; ++j) rowSum += tm(i, j);
      if (rowSum > 0.0) {
        const double s = rowTargets[i] / rowSum;
        for (std::size_t j = 0; j < n; ++j) tm(i, j) *= s;
      }
    }
    double worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double colSum = 0.0;
      for (std::size_t i = 0; i < n; ++i) colSum += tm(i, j);
      if (colSum > 0.0) {
        const double s = colTargets[j] / colSum;
        for (std::size_t i = 0; i < n; ++i) tm(i, j) *= s;
        const double scale = std::max(colTargets[j], 1.0);
        worst = std::max(worst, std::fabs(colSum - colTargets[j]) / scale);
      }
    }
    if (worst < tolerance) break;
  }
  return tm;
}

linalg::Matrix EstimateTmBin(const linalg::Matrix& routing,
                             const linalg::Vector& linkLoads,
                             const linalg::Matrix& prior,
                             const linalg::Vector& ingress,
                             const linalg::Vector& egress,
                             const core::EstimationOptions& options) {
  const std::size_t n = prior.rows();
  const std::size_t links = routing.rows();
  const std::size_t rows =
      options.useMarginalConstraints ? links + 2 * n : links;
  linalg::Matrix system(rows, n * n, 0.0);
  linalg::Vector y(rows, 0.0);
  for (std::size_t r = 0; r < links; ++r) {
    for (std::size_t c = 0; c < n * n; ++c) system(r, c) = routing(r, c);
    y[r] = linkLoads[r];
  }
  if (options.useMarginalConstraints) {
    const linalg::Matrix q = traffic::BuildMarginalOperator(n);
    for (std::size_t r = 0; r < 2 * n; ++r)
      for (std::size_t c = 0; c < n * n; ++c)
        system(links + r, c) = q(r, c);
    for (std::size_t i = 0; i < n; ++i) {
      y[links + i] = ingress[i];
      y[links + n + i] = egress[i];
    }
  }

  const SparseColumns sparse(system);
  const linalg::Vector xp = topology::FlattenTm(prior);

  linalg::Vector d = y;
  for (std::size_t c = 0; c < n * n; ++c) {
    if (xp[c] == 0.0) continue;
    for (const auto& [r, v] : sparse.cols[c]) d[r] -= v * xp[c];
  }

  linalg::Matrix m(rows, rows, 0.0);
  for (std::size_t c = 0; c < n * n; ++c) {
    if (xp[c] <= 0.0) continue;
    const auto& nz = sparse.cols[c];
    for (const auto& [r1, v1] : nz) {
      for (const auto& [r2, v2] : nz) {
        m(r1, r2) += xp[c] * v1 * v2;
      }
    }
  }
  double trace = 0.0;
  for (std::size_t r = 0; r < rows; ++r) trace += m(r, r);
  const double ridge = std::max(trace, 1.0) * options.relativeRidge + 1e-30;
  for (std::size_t r = 0; r < rows; ++r) m(r, r) += ridge;

  const linalg::Matrix u = linalg::CholeskyUpper(m);
  const linalg::Vector w1 = linalg::ForwardSubstituteTranspose(u, d);
  linalg::Vector z(rows, 0.0);
  for (std::size_t ii = rows; ii-- > 0;) {
    double acc = w1[ii];
    for (std::size_t j = ii + 1; j < rows; ++j) acc -= u(ii, j) * z[j];
    z[ii] = acc / u(ii, ii);
  }

  linalg::Vector x = xp;
  for (std::size_t c = 0; c < n * n; ++c) {
    if (xp[c] <= 0.0) continue;
    double dot = 0.0;
    for (const auto& [r, v] : sparse.cols[c]) dot += v * z[r];
    x[c] += xp[c] * dot;
  }
  for (double& xi : x) xi = std::max(xi, 0.0);

  return Ipf(topology::UnflattenTm(x, n), ingress, egress,
             options.ipfIterations, options.ipfTolerance);
}

traffic::TrafficMatrixSeries EstimateSeries(
    const linalg::Matrix& routing,
    const traffic::TrafficMatrixSeries& truth,
    const traffic::TrafficMatrixSeries& priors,
    const core::EstimationOptions& options) {
  const std::size_t n = truth.nodeCount();
  traffic::TrafficMatrixSeries out(n, truth.binCount(),
                                   truth.binSeconds());
  for (std::size_t t = 0; t < truth.binCount(); ++t) {
    const linalg::Matrix truthBin = truth.bin(t);
    const linalg::Vector loads =
        topology::ComputeLinkLoads(routing, truthBin);
    out.setBin(t, legacy::EstimateTmBin(routing, loads, priors.bin(t),
                                        truth.ingress(t), truth.egress(t),
                                        options));
  }
  return out;
}

}  // namespace legacy

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

bool BitIdentical(const traffic::TrafficMatrixSeries& a,
                  const traffic::TrafficMatrixSeries& b) {
  const std::size_t n = a.nodeCount();
  for (std::size_t t = 0; t < a.binCount(); ++t) {
    const double* pa = a.binData(t);
    const double* pb = b.binData(t);
    for (std::size_t k = 0; k < n * n; ++k) {
      if (pa[k] != pb[k]) return false;
    }
  }
  return true;
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

bool WriteJsonFile(const std::string& path,
                   ictm::scenario::json::Value doc) {
  std::ofstream os(path);
  if (!os.good()) {
    std::fprintf(stderr, "cannot open for writing: %s\n", path.c_str());
    return false;
  }
  os << doc.dump(2);
  os.flush();
  if (!os.good()) {
    std::fprintf(stderr, "write failed: %s\n", path.c_str());
    return false;
  }
  return true;
}

// Node-count sweep over generated hierarchical backbones, per solver
// backend: times every backend at 1 and `threads` workers per size
// and writes the rows as JSON.  The sweep table and per-entry
// measurement are shared with the topo_scale scenario
// (scenario::RunTopoSweepEntry); timings are run-environment facts,
// so this file is a bench artifact, not a deterministic scenario
// result.
int RunTopoSweep(const std::string& outPath, std::size_t threads,
                 const std::string& backendsOutPath) {
  namespace json = ictm::scenario::json;
  const auto& sweep = scenario::DefaultTopoSweep();

  struct BackendSpec {
    core::SolverKind kind;
    const char* label;
  };
  const BackendSpec backends[] = {
      {core::SolverKind::kDense, "dense"},
      {core::SolverKind::kCg, "cg"},
      {core::SolverKind::kAuto, "auto"},
  };

  bool allPass = true;
  // Sanitizer CI runs set this: the bit-identity and backend-agreement
  // contracts stay enforced, but timing-ratio gates are skipped — a
  // ~10x instrumented slowdown says nothing about the real ratios.
  const bool correctnessOnly =
      std::getenv("ICTM_BENCH_CORRECTNESS_ONLY") != nullptr;
  json::Array autoRows;
  json::Array backendRows;
  std::printf("topology scale sweep (%zu threads%s)\n\n", threads,
              correctnessOnly ? ", correctness-only" : "");
  for (std::size_t idx = 0; idx < sweep.size(); ++idx) {
    const scenario::TopoSweepEntry& entry = sweep[idx];
    double denseMsPerBin = 0.0;
    double cgSpeedup = 0.0;
    double autoMsPerBin = 0.0;
    const traffic::TrafficMatrixSeries* denseEst = nullptr;
    std::vector<scenario::TopoSweepRun> runs;
    // denseEst points into `runs`; reserving for every backend keeps
    // the later push_backs from reallocating under it.
    runs.reserve(std::size(backends));

    for (const BackendSpec& backend : backends) {
      runs.push_back(scenario::RunTopoSweepEntry(
          entry, /*topologySeed=*/0, /*trafficSeed=*/42 + idx,
          /*baselineThreads=*/1, threads, backend.kind));
      const scenario::TopoSweepRun& run = runs.back();
      const double msPerBin =
          1e3 * run.secBaseline / double(entry.bins);

      bool finite = true;
      for (double e : run.errEst) finite = finite && std::isfinite(e);
      // Contract: every backend bit-identical across thread counts.
      allPass = allPass && run.bitIdentical && finite;

      double relDiffVsDense = 0.0;
      if (backend.kind == core::SolverKind::kDense) {
        denseMsPerBin = msPerBin;
        denseEst = &run.estimates;
      } else {
        relDiffVsDense = MaxRelDiff(*denseEst, run.estimates);
        if (backend.kind == core::SolverKind::kCg && msPerBin > 0.0) {
          cgSpeedup = denseMsPerBin / msPerBin;
        }
        if (backend.kind == core::SolverKind::kAuto) {
          autoMsPerBin = msPerBin;
        }
      }

      std::printf("%-14s %-6s %4zu nodes: %8.2f ms/bin x1, "
                  "%8.2f ms/bin x%zu%s%s\n",
                  entry.spec.c_str(), backend.label, run.nodes,
                  msPerBin,
                  1e3 * run.secFanout / double(entry.bins), threads,
                  run.bitIdentical ? "" : " THREAD-MISMATCH",
                  backend.kind != core::SolverKind::kDense &&
                          relDiffVsDense >= 1e-6
                      ? " (diverges from dense)"
                      : "");

      json::Object row;
      row.set("topology", entry.spec);
      row.set("backend", backend.label);
      row.set("nodes", run.nodes);
      row.set("augmented_rows",
              core::AugmentedRowCount(run.routingRows, run.nodes, true));
      row.set("bins", entry.bins);
      row.set("ms_per_bin_1_thread", msPerBin);
      row.set("ms_per_bin_n_threads",
              1e3 * run.secFanout / double(entry.bins));
      row.set("speedup_vs_dense",
              msPerBin > 0.0 ? denseMsPerBin / msPerBin : 0.0);
      row.set("bit_identical_across_threads", run.bitIdentical);
      row.set("max_rel_diff_vs_dense", relDiffVsDense);
      row.set("est_err_mean", core::Mean(run.errEst));
      backendRows.push_back(json::Value(std::move(row)));
    }

    // Acceptance gates: cg >= 3x faster than dense at the 200-node
    // hierarchy; `auto` (same code path as its resolved backend) never
    // slower than dense at 22 nodes, with slack for timer noise.
    if (entry.spec == "hierarchy:200" && !correctnessOnly) {
      if (cgSpeedup < 3.0) {
        std::printf("  -> FAIL: cg speedup %.2fx < 3x vs dense at %s\n",
                    cgSpeedup, entry.spec.c_str());
        allPass = false;
      } else {
        std::printf("  -> cg %.2fx vs dense at %s\n", cgSpeedup,
                    entry.spec.c_str());
      }
    }
    // At 22 nodes `auto` resolves to dense — literally the same code
    // path — so any measured gap is timer noise; the slack is sized to
    // still catch a mis-resolved threshold (cg would be ~2x slower).
    if (runs.front().nodes == 22 && !correctnessOnly) {
      if (autoMsPerBin > denseMsPerBin * 1.35) {
        std::printf("  -> FAIL: auto %.2f ms/bin slower than dense "
                    "%.2f ms/bin at 22 nodes\n",
                    autoMsPerBin, denseMsPerBin);
        allPass = false;
      }
    }

    // The legacy topology-scale artifact keeps its schema, reporting
    // the production `auto` path.
    const scenario::TopoSweepRun& autoRun = runs.back();
    json::Object row;
    row.set("topology", entry.spec);
    row.set("nodes", autoRun.nodes);
    row.set("links", autoRun.links);
    row.set("routing_rows", autoRun.routingRows);
    row.set("routing_nnz", autoRun.routingNnz);
    row.set("bins", entry.bins);
    row.set("solver",
            core::SolverKindName(core::ResolveSolverKind(
                core::SolverKind::kAuto,
                core::AugmentedRowCount(autoRun.routingRows,
                                        autoRun.nodes, true))));
    row.set("sec_1_thread", autoRun.secBaseline);
    row.set("sec_n_threads", autoRun.secFanout);
    row.set("ms_per_bin_1_thread",
            1e3 * autoRun.secBaseline / double(entry.bins));
    row.set("ms_per_bin_n_threads",
            1e3 * autoRun.secFanout / double(entry.bins));
    row.set("speedup", autoRun.secFanout > 0.0
                           ? autoRun.secBaseline / autoRun.secFanout
                           : 0.0);
    row.set("bit_identical", autoRun.bitIdentical);
    row.set("est_err_mean", core::Mean(autoRun.errEst));
    autoRows.push_back(json::Value(std::move(row)));
  }

  json::Object doc;
  doc.set("schema", "ictm-bench-topology-scale-v1");
  doc.set("threads", threads);
  doc.set("rows", json::Value(std::move(autoRows)));
  if (!WriteJsonFile(outPath, json::Value(std::move(doc)))) return 1;

  json::Object backendsDoc;
  backendsDoc.set("schema", "ictm-bench-solver-backends-v1");
  backendsDoc.set("threads", threads);
  backendsDoc.set("pass", allPass);
  backendsDoc.set("rows", json::Value(std::move(backendRows)));
  if (!WriteJsonFile(backendsOutPath,
                     json::Value(std::move(backendsDoc)))) {
    return 1;
  }

  std::printf("\nwrote %s and %s: %s\n", outPath.c_str(),
              backendsOutPath.c_str(), allPass ? "PASS" : "FAIL");
  return allPass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--topo-sweep") == 0) {
    const std::string out =
        argc > 2 ? argv[2] : "BENCH_topology_scale.json";
    const std::size_t sweepThreads =
        argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 8;
    const std::string backendsOut =
        argc > 4 ? argv[4] : "BENCH_solver_backends.json";
    return RunTopoSweep(out, std::max<std::size_t>(1, sweepThreads),
                        backendsOut);
  }
  const std::size_t bins =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 2016;
  const std::size_t threads =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8;

  const topology::Graph g = topology::MakeGeant22();
  const std::size_t n = g.nodeCount();
  const linalg::CsrMatrix routingCsr = topology::BuildRoutingCsr(g);
  const linalg::Matrix routingDense = routingCsr.ToDense();
  std::printf("topology: %zu nodes, %zu links, routing %zux%zu "
              "(%.2f%% dense)\n",
              n, g.linkCount(), routingCsr.rows(), routingCsr.cols(),
              100.0 * double(routingCsr.nonZeros()) /
                  double(routingCsr.rows() * routingCsr.cols()));

  // A week of diurnally varying traffic plus gravity priors from the
  // marginals (the realistic worst case for the refinement: every OD
  // pair active, dense prior support).
  stats::Rng rng(42);
  traffic::TrafficMatrixSeries truth(n, bins, 300.0);
  for (std::size_t t = 0; t < bins; ++t) {
    const double diurnal =
        1.0 + 0.5 * std::sin(2.0 * M_PI * double(t) / 288.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        truth(t, i, j) = diurnal * rng.uniform(1e6, 1e7);
  }
  const traffic::TrafficMatrixSeries priors =
      core::GravityPredictSeries(truth);
  std::printf("series: %zu bins x %zu nodes\n\n", bins, n);

  core::EstimationOptions options;

  auto t0 = std::chrono::steady_clock::now();
  const auto legacyEst =
      legacy::EstimateSeries(routingDense, truth, priors, options);
  const double legacySec = SecondsSince(t0);
  std::printf("legacy dense serial       : %7.3f s  (%.2f ms/bin)\n",
              legacySec, 1e3 * legacySec / double(bins));

  options.threads = 1;
  t0 = std::chrono::steady_clock::now();
  const auto sparse1 =
      core::EstimateSeries(routingCsr, truth, priors, options);
  const double sparse1Sec = SecondsSince(t0);
  std::printf("sparse engine, 1 thread   : %7.3f s  (%.2f ms/bin, %.2fx "
              "vs legacy)\n",
              sparse1Sec, 1e3 * sparse1Sec / double(bins),
              legacySec / sparse1Sec);

  options.threads = threads;
  t0 = std::chrono::steady_clock::now();
  const auto sparseT =
      core::EstimateSeries(routingCsr, truth, priors, options);
  const double sparseTSec = SecondsSince(t0);
  std::printf("sparse engine, %2zu threads : %7.3f s  (%.2f ms/bin, "
              "%.2fx vs legacy, %.2fx vs 1 thread)\n",
              threads, sparseTSec, 1e3 * sparseTSec / double(bins),
              legacySec / sparseTSec, sparse1Sec / sparseTSec);

  // Per-backend comparison at Géant scale (informational here; the
  // topo sweep gates the backend contract).  At 22 nodes `auto`
  // resolves to dense, so the engine runs above already cover it.
  std::printf("\n");
  for (const core::SolverKind kind :
       {core::SolverKind::kDense, core::SolverKind::kCg}) {
    core::EstimationOptions backendOptions;
    backendOptions.solver = kind;
    backendOptions.threads = threads;
    t0 = std::chrono::steady_clock::now();
    const auto est =
        core::EstimateSeries(routingCsr, truth, priors, backendOptions);
    const double sec = SecondsSince(t0);
    std::printf("backend %-6s, %2zu threads : %7.3f s  (%.2f ms/bin, "
                "max rel diff vs dense %.2e)\n",
                core::SolverKindName(kind), threads, sec,
                1e3 * sec / double(bins), MaxRelDiff(sparseT, est));
  }

  const bool identical = BitIdentical(sparse1, sparseT);
  const double relDiff = MaxRelDiff(legacyEst, sparse1);
  std::printf("\nthreads=%zu vs threads=1: %s\n", threads,
              identical ? "bit-identical" : "MISMATCH");
  std::printf("sparse vs legacy max rel diff: %.3e\n", relDiff);

  const double speedup = legacySec / sparseTSec;
  const bool pass = identical && relDiff < 1e-6 && speedup >= 3.0;
  std::printf("speedup %.2fx (target >= 3x): %s\n", speedup,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
