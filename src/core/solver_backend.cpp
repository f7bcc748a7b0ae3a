#include "core/solver_backend.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "linalg/lsq.hpp"
#include "linalg/pcg.hpp"
#include "linalg/sparse.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"

namespace ictm::core {

namespace {

// One bin-solve per call, so per-backend solve counts are invariant
// under the worker fan-out (deterministic class); the factor /
// substitute split is wall time (timing class).
void CountSolve(const char* counterName) {
  static obs::Counter& dense = obs::GetCounter(
      "solver.solves.dense", obs::MetricClass::kDeterministic);
  static obs::Counter& cg = obs::GetCounter(
      "solver.solves.cg", obs::MetricClass::kDeterministic);
  (counterName[0] == 'd' ? dense : cg).add();
}

obs::Counter& FactorNsCounter() {
  static obs::Counter& c =
      obs::GetCounter("solver.factor_ns", obs::MetricClass::kTiming);
  return c;
}

obs::Counter& SubstituteNsCounter() {
  static obs::Counter& c =
      obs::GetCounter("solver.substitute_ns", obs::MetricClass::kTiming);
  return c;
}

// The reference path: dense normal matrix + blocked in-place Cholesky,
// exactly the floating-point sequence the estimator has always run —
// `dense` results are bit-identical to the pre-backend code.
class DenseBackend final : public SolverBackend {
 public:
  DenseBackend(const AugmentedTmSystem& system,
               const EstimationOptions& options)
      : system_(system), relativeRidge_(options.relativeRidge) {
    const std::size_t rows = system.rowCount();
    arena_.Reserve(rows * rows);
    m_ = arena_.Take(rows * rows);
  }

  const char* name() const noexcept override { return "dense"; }

  void SolveNormal(const double* weights, double* rhs) override {
    CountSolve(name());
    const std::size_t rows = system_.rowCount();
    linalg::WeightedGramInto(system_.matrix(), weights, m_);
    double trace = 0.0;
    for (std::size_t r = 0; r < rows; ++r) trace += m_[r * rows + r];
    const double ridge =
        std::max(trace, 1.0) * relativeRidge_ +
        1e-30;  // keep strictly positive even for an all-zero prior
    for (std::size_t r = 0; r < rows; ++r) m_[r * rows + r] += ridge;
    // Factor + substitute is exactly CholeskySolveInPlace (the split
    // is the documented definition), timed per phase.
    const bool recording = obs::Enabled();
    const std::uint64_t t0 = recording ? obs::Now() : 0;
    linalg::CholeskyFactorInPlace(m_, rows);
    const std::uint64_t t1 = recording ? obs::Now() : 0;
    linalg::CholeskySubstituteInPlace(m_, rhs, rows);
    if (recording) {
      FactorNsCounter().add(t1 - t0);
      SubstituteNsCounter().add(obs::Now() - t1);
    }
  }

 private:
  const AugmentedTmSystem& system_;
  double relativeRidge_;
  WorkspaceArena arena_;
  double* m_;  // rows x rows: normal matrix, then its factor
};

// Matrix-free PCG straight off the system's compressed operator.
class CgBackend final : public SolverBackend {
 public:
  CgBackend(const AugmentedTmSystem& system,
            const EstimationOptions& options)
      : system_(system), relativeRidge_(options.relativeRidge) {
    arena_.Reserve(linalg::NormalPcg::RequiredScratch(system.matrix()));
    solver_.emplace(system.matrix(), system.cgPreconditioner(),
                    arena_.Take(linalg::NormalPcg::RequiredScratch(
                        system.matrix())));
  }

  const char* name() const noexcept override { return "cg"; }

  void SolveNormal(const double* weights, double* rhs) override {
    CountSolve(name());
    const linalg::PcgResult result =
        solver_->Solve(weights, relativeRidge_, rhs);
    // The residual can floor out marginally above the tolerance along
    // the redundant-marginal null direction (harmless — that
    // component never reaches the estimate), but a residual this
    // large means the range-space solve genuinely stalled; failing
    // loudly beats silently degraded estimates, matching the dense
    // backend's throw-on-numerical-failure behaviour.
    ICTM_REQUIRE(result.converged || result.relativeResidual < 1e-6,
                 "cg backend did not converge (relative residual " +
                     std::to_string(result.relativeResidual) +
                     "); retry with --solver dense");
  }

 private:
  const AugmentedTmSystem& system_;
  double relativeRidge_;
  WorkspaceArena arena_;
  std::optional<linalg::NormalPcg> solver_;
};

}  // namespace

SolverKind ResolveSolverKind(SolverKind requested,
                             std::size_t rows) noexcept {
  if (requested != SolverKind::kAuto) return requested;
  return rows >= kAutoSolverRowThreshold ? SolverKind::kCg
                                         : SolverKind::kDense;
}

std::unique_ptr<SolverBackend> MakeSolverBackend(
    const AugmentedTmSystem& system, const EstimationOptions& options) {
  const SolverKind resolved =
      ResolveSolverKind(options.solver, system.rowCount());
  // Auto-pick accounting.  Backends are constructed once per worker,
  // so these counts scale with the thread fan-out — timing class, not
  // deterministic (the per-bin solver.solves.* counters are the
  // thread-invariant view).
  if (options.solver == SolverKind::kAuto) {
    static obs::Counter& autoDense = obs::GetCounter(
        "solver.auto_picks.dense", obs::MetricClass::kTiming);
    static obs::Counter& autoCg =
        obs::GetCounter("solver.auto_picks.cg", obs::MetricClass::kTiming);
    (resolved == SolverKind::kCg ? autoCg : autoDense).add();
  }
  ICTM_REQUIRE(resolved != SolverKind::kReservedSparse,
               "solver kind 2 is reserved (the sparse backend was removed)");
  if (resolved == SolverKind::kCg) {
    return std::make_unique<CgBackend>(system, options);
  }
  return std::make_unique<DenseBackend>(system, options);
}

}  // namespace ictm::core
