// The independent-connection (IC) model family — paper Sec. 3.
//
// Notation (paper Eq. 1-5):
//   f     forward fraction (network-wide in the simplified model),
//   A_i   activity of node i: bytes due to connections *initiated* at i,
//   P_i   preference of node i: likelihood a connection's responder is
//         at i (used normalised: P_i / sum_k P_k).
//
// The model composes an OD flow from the forward traffic of
// i-initiated connections and the reverse traffic of j-initiated ones:
//   X_ij = f * A_i * Pn_j + (1 - f) * A_j * Pn_i          (Eq. 2)
// where Pn is the normalised preference vector.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "traffic/tm_series.hpp"

/// Reproduction of the paper's models and algorithms: the IC model
/// family, gravity, parameter fitting, priors, tomogravity estimation,
/// synthetic TM generation and the error metrics.
namespace ictm::core {

/// Parameters of the simplified IC model at one time bin.
struct IcParameters {
  double f = 0.25;           ///< forward fraction, in (0, 1)
  linalg::Vector activity;   ///< A_i >= 0, length n
  linalg::Vector preference; ///< P_i >= 0, length n (any positive scale)

  /// Throws unless the invariants above hold.
  void validate() const;
  /// Number of nodes n (the activity vector length).
  std::size_t nodeCount() const noexcept { return activity.size(); }
};

/// Evaluates the simplified IC model (Eq. 2): returns the n x n TM.
linalg::Matrix EvaluateSimplifiedIc(const IcParameters& params);

/// Evaluates the *general* IC model (Eq. 1) with a per-pair forward
/// fraction matrix F (F(i,j) = f_ij in (0,1)).
linalg::Matrix EvaluateGeneralIc(const linalg::Matrix& forwardFractions,
                                 const linalg::Vector& activity,
                                 const linalg::Vector& preference);

/// Evaluates the stable-fP model (Eq. 5) over T bins: constant f and P,
/// per-bin activities given as an n x T matrix (column t = A(t)).
/// Bins are independent and fan out across `threads` workers (0 = all
/// hardware threads); the result is bit-identical for any count.
traffic::TrafficMatrixSeries EvaluateStableFP(
    double f, const linalg::Matrix& activitySeries,
    const linalg::Vector& preference, double binSeconds = 300.0,
    std::size_t threads = 1);

/// Builds the n^2 x n linear operator Phi with x(t) = Phi * A(t) for
/// fixed (f, P) as a dense matrix.  Row i*n+j corresponds to X_ij;
/// preference is normalised internally.  Dense reference for
/// IcOperator, which every library path uses instead.
linalg::Matrix BuildActivityOperator(double f,
                                     const linalg::Vector& preference);

/// The stable-fP activity operator Phi(f, P) of Eq. 7 (x = Phi * A) in
/// closed form, holding only f and the normalised preference Pn, so it
/// costs O(n) to build and to keep.  With g = 1 - f and a = f^2 + g^2:
///   Q Phi      = [f I + g Pn 1^T ; g I + f Pn 1^T]  (full column rank)
///   Phi^T Phi  = a ||Pn||^2 I + 2fg Pn Pn^T
///   Phi^T x    = f (X Pn) + g (X^T Pn)
/// The stable-fP prior (batch and streaming) and the fit's activity
/// step all go through it, so they share one floating-point path.
class IcOperator {
 public:
  /// Throws ictm::Error unless f lies in (0, 1) and the preference is
  /// non-empty with finite, non-negative entries and a positive sum.
  IcOperator(double f, const linalg::Vector& preference);

  /// Eqs. 8-9 for one bin's marginals (n doubles each): the
  /// least-squares activities Atilde = pinv(Q Phi) [in; eg], then the
  /// prior X_ij = max(f Atilde_i Pn_j + g Atilde_j Pn_i, 0) into
  /// `outBin` (n x n, FlattenTm order).  `activity`, when non-null,
  /// receives Atilde (n).
  void priorBin(const double* ingress, const double* egress, double* outBin,
                double* activity = nullptr) const;

  /// Phi^T Phi (n x n), the Gram matrix of the fit's activity NNLS.
  linalg::Matrix gram() const;

  /// Phi^T x for a TM `tm` (n x n, FlattenTm order).
  linalg::Vector transposeTimes(const double* tm) const;

 private:
  // Atilde: solves (Q Phi)^T (Q Phi) A = (Q Phi)^T [in; eg], which is
  // a I plus a rank-2 term, with one 2 x 2 solve (Woodbury).
  void activities(const double* ingress, const double* egress,
                  double* activity) const;

  double f_;
  linalg::Vector pn_;  // normalised preference, sums to 1
  double pnSq_;        // ||Pn||^2
};

/// Degrees-of-freedom accounting from paper Sec. 5.1 for a dataset of
/// n nodes over t bins.
struct DegreesOfFreedom {
  /// Gravity model: 2nt - 1 inputs.
  static std::size_t Gravity(std::size_t n, std::size_t t) {
    return 2 * n * t - 1;
  }
  /// Time-varying IC model (Eq. 3): 3nt inputs.
  static std::size_t TimeVaryingIc(std::size_t n, std::size_t t) {
    return 3 * n * t;
  }
  /// Stable-f IC model (Eq. 4): 2nt + 1 inputs.
  static std::size_t StableFIc(std::size_t n, std::size_t t) {
    return 2 * n * t + 1;
  }
  /// Stable-fP IC model (Eq. 5): nt + n + 1 inputs.
  static std::size_t StableFPIc(std::size_t n, std::size_t t) {
    return n * t + n + 1;
  }
};

/// P[E = j | I = i] = X_ij / X_i* for one TM — the quantity the paper's
/// Sec. 3 example uses to show packet-level independence failing.
double ConditionalEgressProbability(const linalg::Matrix& tm,
                                    std::size_t ingress,
                                    std::size_t egress);

/// Unconditional egress probability P[E = j] = X_*j / X_**.
double EgressProbability(const linalg::Matrix& tm, std::size_t egress);

/// Builds the 3-node example TM of paper Fig. 2: nodes A, B, C initiate
/// 3 connections each of 100, 2 and 1 packets per direction
/// respectively, with uniform responder choice over {A, B, C}.
linalg::Matrix BuildFig2ExampleTm();

}  // namespace ictm::core
