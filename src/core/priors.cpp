#include "core/priors.hpp"

#include <cmath>

#include "core/gravity.hpp"
#include "linalg/simplex.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::core {

void MarginalSeries::validate() const {
  ICTM_REQUIRE(ingress.rows() > 0 && ingress.cols() > 0,
               "empty marginal series");
  ICTM_REQUIRE(ingress.rows() == egress.rows() &&
                   ingress.cols() == egress.cols(),
               "ingress/egress shape mismatch");
  for (double v : ingress.data())
    ICTM_REQUIRE(v >= 0.0, "negative ingress count");
  for (double v : egress.data())
    ICTM_REQUIRE(v >= 0.0, "negative egress count");
}

MarginalSeries ExtractMarginals(
    const traffic::TrafficMatrixSeries& series) {
  const std::size_t n = series.nodeCount();
  MarginalSeries m{linalg::Matrix(n, series.binCount()),
                   linalg::Matrix(n, series.binCount())};
  for (std::size_t t = 0; t < series.binCount(); ++t) {
    const linalg::Vector in = series.ingress(t);
    const linalg::Vector out = series.egress(t);
    for (std::size_t i = 0; i < n; ++i) {
      m.ingress(i, t) = in[i];
      m.egress(i, t) = out[i];
    }
  }
  return m;
}

traffic::TrafficMatrixSeries GravityPriorSeries(
    const MarginalSeries& marginals, double binSeconds) {
  marginals.validate();
  const std::size_t n = marginals.nodeCount();
  traffic::TrafficMatrixSeries out(n, marginals.binCount(), binSeconds);
  for (std::size_t t = 0; t < marginals.binCount(); ++t) {
    out.setBin(t, GravityPredict(marginals.ingress.col(t),
                                 marginals.egress.col(t)));
  }
  return out;
}

traffic::TrafficMatrixSeries StableFPPrior(double f,
                                           const linalg::Vector& preference,
                                           const MarginalSeries& marginals,
                                           double binSeconds,
                                           linalg::Matrix* outActivities) {
  marginals.validate();
  const std::size_t n = marginals.nodeCount();
  ICTM_REQUIRE(preference.size() == n, "preference size mismatch");
  const std::size_t bins = marginals.binCount();

  // Eqs. 7-9 through the closed-form operator; the streaming
  // estimator calls the same priorBin, so both agree bit for bit.
  const IcOperator op(f, preference);
  traffic::TrafficMatrixSeries prior(n, bins, binSeconds);
  if (outActivities != nullptr) {
    *outActivities = linalg::Matrix(n, bins, 0.0);
  }
  linalg::Vector in(n), eg(n), aTilde(n);
  for (std::size_t t = 0; t < bins; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = marginals.ingress(i, t);
      eg[i] = marginals.egress(i, t);
    }
    op.priorBin(in.data(), eg.data(), prior.binData(t), aTilde.data());
    if (outActivities != nullptr) {
      for (std::size_t i = 0; i < n; ++i) (*outActivities)(i, t) = aTilde[i];
    }
  }
  return prior;
}

StableFEstimates EstimateStableFParameters(double f,
                                           const linalg::Vector& ingress,
                                           const linalg::Vector& egress) {
  const std::size_t n = ingress.size();
  ICTM_REQUIRE(n > 0, "empty marginals");
  ICTM_REQUIRE(egress.size() == n, "marginal size mismatch");
  const double denom = 2.0 * f - 1.0;
  ICTM_REQUIRE(std::fabs(denom) > 1e-6,
               "stable-f closed forms are singular at f = 1/2");

  StableFEstimates est;
  est.activity.resize(n);
  linalg::Vector rawPreference(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Eq. 11: Atilde_i = (f X_i* - (1-f) X_*i) / (2f - 1).
    est.activity[i] =
        std::max((f * ingress[i] - (1.0 - f) * egress[i]) / denom, 0.0);
    // Eq. 12 numerator (the sum_j A_j factor cancels on normalisation):
    // Ptilde_i  proportional to  (f X_*i - (1-f) X_i*) / (2f - 1).
    rawPreference[i] =
        std::max((f * egress[i] - (1.0 - f) * ingress[i]) / denom, 0.0);
  }
  est.preference = linalg::NormalizeNonNegative(rawPreference);
  return est;
}

traffic::TrafficMatrixSeries StableFPrior(double f,
                                          const MarginalSeries& marginals,
                                          double binSeconds) {
  marginals.validate();
  const std::size_t n = marginals.nodeCount();
  traffic::TrafficMatrixSeries prior(n, marginals.binCount(), binSeconds);
  for (std::size_t t = 0; t < marginals.binCount(); ++t) {
    const StableFEstimates est = EstimateStableFParameters(
        f, marginals.ingress.col(t), marginals.egress.col(t));
    IcParameters params{f, est.activity, est.preference};
    prior.setBin(t, EvaluateSimplifiedIc(params));
  }
  return prior;
}

}  // namespace ictm::core
