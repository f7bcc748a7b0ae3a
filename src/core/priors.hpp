// TM-estimation priors — paper Sec. 6.
//
// Three IC-based priors matching the paper's three measurement
// scenarios, plus the gravity prior they are compared against:
//
//  1. measured (Sec. 6.1): f, {P_i}, {A_i(t)} all known (from a fit)
//     — the prior is just the model evaluation;
//  2. stable-fP (Sec. 6.2): f and {P_i} known from an earlier week;
//     {A_i(t)} estimated from current ingress/egress counts as the
//     least-squares solution of Q*Phi*A = [in; eg] (Eqs. 7-9, in closed
//     form through core::IcOperator);
//  3. stable-f (Sec. 6.3): only f known; both {A_i} and {P_i} come
//     from the closed forms (Eqs. 11-12) on the current marginals.
#pragma once

#include "core/ic_model.hpp"
#include "linalg/matrix.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::core {

/// Ingress/egress marginal time series (what SNMP gives an operator):
/// each matrix is n x T, column t = the marginal vector at bin t.
struct MarginalSeries {
  linalg::Matrix ingress;  ///< n x T, column t = X_i*(t)
  linalg::Matrix egress;   ///< n x T, column t = X_*j(t)

  /// Number of nodes n.
  std::size_t nodeCount() const noexcept { return ingress.rows(); }
  /// Number of time bins T.
  std::size_t binCount() const noexcept { return ingress.cols(); }
  /// Throws unless both matrices are n x T with non-negative entries.
  void validate() const;
};

/// Extracts the marginal series of an observed TM series.
MarginalSeries ExtractMarginals(const traffic::TrafficMatrixSeries& series);

/// Gravity prior: per bin, X_ij = in_i * out_j / total (Sec. 2).
traffic::TrafficMatrixSeries GravityPriorSeries(
    const MarginalSeries& marginals, double binSeconds = 300.0);

/// Stable-fP prior (Eqs. 7-9).  Returns the prior series; when
/// `outActivities` is non-null it receives the estimated n x T matrix
/// Atilde (useful for diagnostics).  Negative model outputs (possible
/// because the least-squares solve is unconstrained) are clamped to
/// zero.  Per bin this is IcOperator::priorBin.
traffic::TrafficMatrixSeries StableFPPrior(
    double f, const linalg::Vector& preference,
    const MarginalSeries& marginals, double binSeconds = 300.0,
    linalg::Matrix* outActivities = nullptr);

/// Closed-form stable-f estimates from one bin's marginals (Eqs. 11-12).
/// Throws when |2f - 1| < 1e-6 (the system loses rank at f = 1/2).
/// Negative estimates are clamped to zero (noise can produce them).
struct StableFEstimates {
  linalg::Vector activity;    ///< Atilde, length n
  linalg::Vector preference;  ///< Ptilde, normalised to sum 1
};
StableFEstimates EstimateStableFParameters(double f,
                                           const linalg::Vector& ingress,
                                           const linalg::Vector& egress);

/// Stable-f prior over a whole marginal series: per bin, estimate
/// (Atilde, Ptilde) via Eqs. 11-12 and evaluate Eq. 4.
traffic::TrafficMatrixSeries StableFPrior(double f,
                                          const MarginalSeries& marginals,
                                          double binSeconds = 300.0);

}  // namespace ictm::core
