// Matrix-free preconditioned conjugate gradient on the ridged
// weighted normal operator M(w) = A·diag(w)·Aᵀ + ridge·I.
//
// The per-bin operator is applied through the compressed arrays of A
// alone — q = A·(w ∘ (Aᵀp)) + ridge·p, fused per column — so the
// weighted normal matrix is never formed in the hot loop.
//
// Preconditioning exploits the estimation pipeline's structure: only
// the diagonal weights change from bin to bin, so the *unweighted*
// Gram P = A·Aᵀ + λ̄·I is factored once per augmented system
// (FrozenNormalPreconditioner, shared read-only by every worker) and
// each CG iteration solves against that frozen factor.  The
// preconditioned spectrum is contained in [min w, max w] by a
// Rayleigh-quotient argument, so iteration counts track the per-bin
// weight spread — a handful of iterations for the smooth
// gravity/IC-model priors the pipeline feeds — instead of the
// thousands a Jacobi-preconditioned iteration needs on this
// ill-conditioned system.
//
// The iteration is a fixed, single-threaded sequence of
// floating-point operations for a given (A, w, d), so results are
// bit-identical regardless of which worker thread runs the solve.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"

namespace ictm::linalg {

/// Weight-independent CG preconditioner: the dense Cholesky factor of
/// the unweighted Gram A·Aᵀ + λ̄·I (λ̄ scaled by the trace like the
/// per-bin ridge).  Built once per augmented system and shared
/// read-only across threads.
///
/// The factor is computed in double precision and stored in single:
/// the implied preconditioner U₃₂ᵀU₃₂ is still exactly symmetric
/// positive definite, the perturbation only nudges iteration counts,
/// and the triangular sweeps — the memory-bound inner loop of every
/// CG iteration — move half the bytes.  The outer iteration stays
/// entirely in double precision.
class FrozenNormalPreconditioner {
 public:
  /// Forms and factors A·Aᵀ + λ̄·I for `a` (rows x cols).
  explicit FrozenNormalPreconditioner(const CscMatrix& a);

  /// Dimension m of the factor (= a.rows()).
  std::size_t dim() const noexcept { return m_; }

  /// s := (U₃₂ᵀU₃₂)⁻¹ r (s and r have dim() elements and may not
  /// alias); double-precision accumulation against the stored
  /// single-precision factor.
  void Apply(const double* r, double* s) const;

 private:
  std::size_t m_ = 0;
  std::vector<float> factor_;  // m x m upper Cholesky factor (fp32)
};

/// Knobs for NormalPcg::Solve.
struct PcgOptions {
  /// Stop when ||r||₂ <= tolerance·||d||₂.
  double tolerance = 1e-12;
  /// Iteration cap; 0 picks 4·dim + 10 (CG terminates in at most
  /// rank(M) steps in exact arithmetic; the slack absorbs rounding).
  std::size_t maxIterations = 0;
};

/// Convergence report of one solve.
struct PcgResult {
  std::size_t iterations = 0;   ///< iterations performed
  double relativeResidual = 0;  ///< final ||r||₂ / ||d||₂
  bool converged = false;       ///< tolerance reached
};

/// Per-thread CG workspace bound to a fixed A and its shared frozen
/// preconditioner (both must outlive the solver).  Solve may be
/// called repeatedly with different weights and right-hand sides
/// without allocating.
class NormalPcg {
 public:
  /// Doubles of scratch a solver for `a` needs.
  static std::size_t RequiredScratch(const CscMatrix& a) {
    return 5 * a.rows() + a.cols();
  }

  /// Binds to `a` and `preconditioner` and carves the iteration
  /// vectors out of `scratch` (RequiredScratch(a) doubles).
  NormalPcg(const CscMatrix& a,
            const FrozenNormalPreconditioner& preconditioner,
            double* scratch);

  /// Solves (A·diag(w)·Aᵀ + ridge·I) z = d in place (d := z) with
  /// ridge = max(trace, 1)·relativeRidge + 1e-30 — the same ridge
  /// policy as the direct backends.  Columns with w <= 0 are skipped,
  /// matching WeightedGramInto.
  PcgResult Solve(const double* weights, double relativeRidge, double* d,
                  const PcgOptions& options = {});

 private:
  // Applies q = A·(w ∘ (Aᵀ p)) + ridge·p.
  void Apply(const double* weights, double ridge, const double* p,
             double* q);

  const CscMatrix& a_;
  const FrozenNormalPreconditioner& precond_;
  double* colNormSq_;  // cols-sized: per-column ||a_c||² for the trace
  double* r_;          // residual
  double* p_;          // search direction
  double* q_;          // operator application M·p
  double* s_;          // preconditioned residual
  double* x_;          // solution accumulator
};

}  // namespace ictm::linalg
