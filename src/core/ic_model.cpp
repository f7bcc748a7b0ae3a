#include "core/ic_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"

namespace ictm::core {

void IcParameters::validate() const {
  ICTM_REQUIRE(f > 0.0 && f < 1.0, "f must lie in (0,1)");
  ICTM_REQUIRE(!activity.empty(), "activity vector is empty");
  ICTM_REQUIRE(activity.size() == preference.size(),
               "activity/preference size mismatch");
  double prefSum = 0.0;
  for (double a : activity) ICTM_REQUIRE(a >= 0.0, "negative activity");
  for (double p : preference) {
    ICTM_REQUIRE(p >= 0.0, "negative preference");
    prefSum += p;
  }
  ICTM_REQUIRE(prefSum > 0.0, "all preferences are zero");
}

linalg::Matrix EvaluateSimplifiedIc(const IcParameters& params) {
  params.validate();
  const std::size_t n = params.nodeCount();
  const double prefSum = linalg::Sum(params.preference);
  linalg::Matrix tm(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double pnj = params.preference[j] / prefSum;
      const double pni = params.preference[i] / prefSum;
      tm(i, j) = params.f * params.activity[i] * pnj +
                 (1.0 - params.f) * params.activity[j] * pni;
    }
  }
  return tm;
}

linalg::Matrix EvaluateGeneralIc(const linalg::Matrix& forwardFractions,
                                 const linalg::Vector& activity,
                                 const linalg::Vector& preference) {
  const std::size_t n = activity.size();
  ICTM_REQUIRE(n > 0, "empty activity vector");
  ICTM_REQUIRE(preference.size() == n, "preference size mismatch");
  ICTM_REQUIRE(forwardFractions.rows() == n && forwardFractions.cols() == n,
               "forward-fraction matrix shape mismatch");
  double prefSum = 0.0;
  for (double p : preference) {
    ICTM_REQUIRE(p >= 0.0, "negative preference");
    prefSum += p;
  }
  ICTM_REQUIRE(prefSum > 0.0, "all preferences are zero");
  for (double a : activity) ICTM_REQUIRE(a >= 0.0, "negative activity");

  linalg::Matrix tm(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double fij = forwardFractions(i, j);
      const double fji = forwardFractions(j, i);
      ICTM_REQUIRE(fij >= 0.0 && fij <= 1.0, "f_ij out of [0,1]");
      // Eq. (1): forward share of i-initiated connections to j, plus
      // reverse share of j-initiated connections to i.
      tm(i, j) = fij * activity[i] * preference[j] / prefSum +
                 (1.0 - fji) * activity[j] * preference[i] / prefSum;
    }
  }
  return tm;
}

traffic::TrafficMatrixSeries EvaluateStableFP(
    double f, const linalg::Matrix& activitySeries,
    const linalg::Vector& preference, double binSeconds,
    std::size_t threads) {
  const std::size_t n = activitySeries.rows();
  const std::size_t bins = activitySeries.cols();
  ICTM_REQUIRE(preference.size() == n, "preference size mismatch");
  traffic::TrafficMatrixSeries series(n, bins, binSeconds);
  // Each bin writes only its own n x n block, so the fan-out is
  // bit-identical for every thread count.
  ParallelFor(0, bins, threads, [&](std::size_t t) {
    IcParameters params;
    params.f = f;
    params.activity = activitySeries.col(t);
    params.preference = preference;
    series.setBin(t, EvaluateSimplifiedIc(params));
  });
  return series;
}

linalg::Matrix BuildActivityOperator(double f,
                                     const linalg::Vector& preference) {
  ICTM_REQUIRE(f > 0.0 && f < 1.0, "f must lie in (0,1)");
  const std::size_t n = preference.size();
  ICTM_REQUIRE(n > 0, "empty preference vector");
  const double prefSum = linalg::Sum(preference);
  ICTM_REQUIRE(prefSum > 0.0, "all preferences are zero");

  linalg::Matrix phi(n * n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = i * n + j;
      // X_ij = f * Pn_j * A_i + (1-f) * Pn_i * A_j.
      phi(row, i) += f * preference[j] / prefSum;
      phi(row, j) += (1.0 - f) * preference[i] / prefSum;
    }
  }
  return phi;
}

IcOperator::IcOperator(double f, const linalg::Vector& preference)
    : f_(f), pn_(preference), pnSq_(0.0) {
  ICTM_REQUIRE(f > 0.0 && f < 1.0, "f must lie in (0,1)");
  ICTM_REQUIRE(!preference.empty(), "empty preference vector");
  double sum = 0.0;
  for (double p : preference) {
    ICTM_REQUIRE(std::isfinite(p) && p >= 0.0,
                 "preference entries must be finite and non-negative");
    sum += p;
  }
  ICTM_REQUIRE(std::isfinite(sum) && sum > 0.0,
               "preference sum must be finite and positive");
  for (double& p : pn_) {
    p /= sum;
    pnSq_ += p * p;
  }
}

void IcOperator::activities(const double* ingress, const double* egress,
                            double* activity) const {
  const std::size_t n = pn_.size();
  const double g = 1.0 - f_;
  const double a = f_ * f_ + g * g;
  const double fg2 = 2.0 * f_ * g;
  // r = (Q Phi)^T [in; eg] = f in + g eg + (g Pn.in + f Pn.eg) 1.
  double pnIn = 0.0, pnEg = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    pnIn += pn_[k] * ingress[k];
    pnEg += pn_[k] * egress[k];
  }
  const double shift = g * pnIn + f_ * pnEg;
  double sumR = 0.0, pnR = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double r = f_ * ingress[k] + g * egress[k] + shift;
    activity[k] = r;
    sumR += r;
    pnR += pn_[k] * r;
  }
  // (Q Phi)^T (Q Phi) = a I + U C U^T with U = [1, Pn] and
  // C = [[a ||Pn||^2, 2fg], [2fg, 0]].  For s = U^T A = (sum A, Pn.A),
  // (a I + U^T U C) s = U^T r, a 2 x 2 system whose determinant is
  // 1 + n ||Pn||^2 (2f - 1)^2 >= 1 (using a + 2fg = 1, sum Pn = 1).
  const double nq = static_cast<double>(n) * pnSq_;
  const double m00 = a * (1.0 + nq) + fg2;
  const double m01 = fg2 * static_cast<double>(n);
  const double det = m00 - m01 * pnSq_;
  const double sigma = (sumR - m01 * pnR) / det;
  const double pi = (m00 * pnR - pnSq_ * sumR) / det;
  // A = (r - U C s) / a.
  const double offset = a * pnSq_ * sigma + fg2 * pi;
  const double slope = fg2 * sigma;
  for (std::size_t k = 0; k < n; ++k) {
    activity[k] = (activity[k] - offset - slope * pn_[k]) / a;
  }
}

void IcOperator::priorBin(const double* ingress, const double* egress,
                          double* outBin, double* activity) const {
  const std::size_t n = pn_.size();
  linalg::Vector local;
  if (activity == nullptr) {
    local.resize(n);
    activity = local.data();
  }
  activities(ingress, egress, activity);
  const double g = 1.0 - f_;
  for (std::size_t i = 0; i < n; ++i) {
    const double fai = f_ * activity[i];
    const double gpi = g * pn_[i];
    double* row = outBin + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = std::max(fai * pn_[j] + activity[j] * gpi, 0.0);
    }
  }
}

linalg::Matrix IcOperator::gram() const {
  const std::size_t n = pn_.size();
  const double g = 1.0 - f_;
  const double fg2 = 2.0 * f_ * g;
  linalg::Matrix gram(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t l = 0; l < n; ++l) gram(k, l) = fg2 * pn_[k] * pn_[l];
    gram(k, k) += (f_ * f_ + g * g) * pnSq_;
  }
  return gram;
}

linalg::Vector IcOperator::transposeTimes(const double* tm) const {
  const std::size_t n = pn_.size();
  const double g = 1.0 - f_;
  linalg::Vector out(n, 0.0);
  linalg::Vector colPart(n, 0.0);  // (X^T Pn)_k = sum_i Pn_i X_ik
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = tm + i * n;
    double rowPart = 0.0;  // (X Pn)_i
    for (std::size_t j = 0; j < n; ++j) {
      rowPart += row[j] * pn_[j];
      colPart[j] += pn_[i] * row[j];
    }
    out[i] = f_ * rowPart;
  }
  for (std::size_t k = 0; k < n; ++k) out[k] += g * colPart[k];
  return out;
}

double ConditionalEgressProbability(const linalg::Matrix& tm,
                                    std::size_t ingress,
                                    std::size_t egress) {
  ICTM_REQUIRE(tm.rows() == tm.cols(), "TM must be square");
  ICTM_REQUIRE(ingress < tm.rows() && egress < tm.cols(),
               "node index out of range");
  double rowSum = 0.0;
  for (std::size_t j = 0; j < tm.cols(); ++j) rowSum += tm(ingress, j);
  ICTM_REQUIRE(rowSum > 0.0, "no traffic enters at the given node");
  return tm(ingress, egress) / rowSum;
}

double EgressProbability(const linalg::Matrix& tm, std::size_t egress) {
  ICTM_REQUIRE(tm.rows() == tm.cols(), "TM must be square");
  ICTM_REQUIRE(egress < tm.cols(), "node index out of range");
  double colSum = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < tm.rows(); ++i) {
    for (std::size_t j = 0; j < tm.cols(); ++j) {
      total += tm(i, j);
      if (j == egress) colSum += tm(i, j);
    }
  }
  ICTM_REQUIRE(total > 0.0, "empty traffic matrix");
  return colSum / total;
}

linalg::Matrix BuildFig2ExampleTm() {
  // Node volumes per connection direction: A: 100, B: 2, C: 1.
  // Each node initiates one connection to each of {A, B, C}; forward
  // and reverse volumes are equal (the example's simplifying
  // assumption), so a connection i->j adds v to X_ij and v to X_ji
  // (2v to X_ii when i == j).
  const linalg::Vector volume = {100.0, 2.0, 1.0};
  linalg::Matrix tm(3, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      tm(i, j) += volume[i];  // forward of i-initiated connection to j
      tm(j, i) += volume[i];  // its reverse traffic
    }
  }
  return tm;
}

}  // namespace ictm::core
