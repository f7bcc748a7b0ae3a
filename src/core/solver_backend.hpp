// Pluggable solver backends for the TM-estimation normal equations.
//
// Every bin of the tomogravity refinement solves one system
//   (A·diag(xp)·Aᵀ + ridge·I) z = d
// against the shared augmented operator A.  How that solve happens is
// a backend choice:
//
//   dense   — assemble the normal matrix densely and run the blocked
//             in-place Cholesky (the original path, kept as the
//             reference; unbeatable at the paper's 22 nodes),
//   cg      — matrix-free preconditioned conjugate gradient that
//             applies the operator through A's compressed arrays and
//             never forms the per-bin normal matrix; preconditioned
//             by the frozen unweighted-Gram factor computed once per
//             AugmentedTmSystem, so iteration counts track the
//             per-bin weight spread (linalg/pcg.hpp).  The fast path
//             at scale,
//   auto    — picks dense below kAutoSolverRowThreshold rows and cg
//             at or above it (the measured crossover).
//
// One backend instance belongs to one TmBinSolver (one worker thread)
// and owns all per-thread scratch through a WorkspaceArena, so the hot
// loop performs zero allocations after setup.  Each backend runs a
// fixed floating-point sequence per bin — bit-identical across thread
// counts — and all backends agree with `dense` to solver tolerance.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/estimation.hpp"

namespace ictm::core {

/// Single-allocation scratch pool for a backend's per-thread buffers:
/// size it once with Reserve, then carve slices with Take.  Keeps the
/// per-bin hot loop allocation-free after setup.
class WorkspaceArena {
 public:
  /// Allocates `doubles` zero-initialised doubles in one block and
  /// resets the carve pointer.
  void Reserve(std::size_t doubles) {
    storage_.assign(doubles, 0.0);
    used_ = 0;
  }

  /// Carves the next `count` doubles from the block.
  double* Take(std::size_t count) {
    ICTM_REQUIRE(used_ + count <= storage_.size(),
                 "workspace arena overflow");
    double* p = storage_.data() + used_;
    used_ += count;
    return p;
  }

 private:
  std::vector<double> storage_;
  std::size_t used_ = 0;
};

/// One worker thread's solver for the ridged normal equations; bound
/// to an AugmentedTmSystem at construction, then invoked once per bin.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// Stable backend name ("dense", "cg") for reporting.
  virtual const char* name() const noexcept = 0;

  /// Solves (A·diag(weights)·Aᵀ + ridge·I) z = rhs in place
  /// (rhs := z) with ridge = max(trace, 1)·relativeRidge + 1e-30;
  /// `weights` has cols(A) elements, `rhs` has rows(A).
  virtual void SolveNormal(const double* weights, double* rhs) = 0;
};

/// Row count at and above which `auto` switches from the dense
/// reference to the cg backend.  Measured crossover: dense still wins
/// at the 290-row 50-node hierarchy (~0.8 vs ~1.1 ms/bin), cg wins
/// ~2x at the 586-row 100-node hierarchy and ~4x at 200 nodes.
inline constexpr std::size_t kAutoSolverRowThreshold = 400;

/// Maps `auto` to a concrete backend for a system with `rows`
/// augmented rows; concrete kinds pass through unchanged.
SolverKind ResolveSolverKind(SolverKind requested,
                             std::size_t rows) noexcept;

/// Builds the backend selected by `options.solver` (resolving `auto`
/// by system size) with its per-thread workspace.  The system must
/// outlive the backend.
std::unique_ptr<SolverBackend> MakeSolverBackend(
    const AugmentedTmSystem& system, const EstimationOptions& options);

}  // namespace ictm::core
