// Traffic-matrix time series: the central data object of the paper.
//
// A TrafficMatrixSeries holds X_ij(t) for i,j in [0,n) and t in [0,T):
// bytes entering at node i and leaving at node j during time bin t.
// Terminology follows the paper: X_i* = ingress at i (row sum),
// X_*j = egress at j (column sum), X_** = total.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace ictm::traffic {

/// A timeseries of n x n traffic matrices.
class TrafficMatrixSeries {
 public:
  /// Creates an all-zero series with n nodes and T time bins
  /// (binSeconds is metadata used by reports; must be positive).
  TrafficMatrixSeries(std::size_t nodes, std::size_t bins,
                      double binSeconds = 300.0);

  std::size_t nodeCount() const noexcept { return nodes_; }
  std::size_t binCount() const noexcept { return bins_; }
  double binSeconds() const noexcept { return binSeconds_; }

  /// Element access X_ij(t); bounds-checked variants throw.
  double& at(std::size_t t, std::size_t i, std::size_t j);
  double at(std::size_t t, std::size_t i, std::size_t j) const;
  double& operator()(std::size_t t, std::size_t i, std::size_t j) noexcept {
    return data_[(t * nodes_ + i) * nodes_ + j];
  }
  double operator()(std::size_t t, std::size_t i,
                    std::size_t j) const noexcept {
    return data_[(t * nodes_ + i) * nodes_ + j];
  }

  /// The n x n matrix for one bin (copy).
  linalg::Matrix bin(std::size_t t) const;
  /// Overwrites one bin; m must be n x n with non-negative entries.
  void setBin(std::size_t t, const linalg::Matrix& m);

  /// Raw view of one bin: n² contiguous doubles in row-major order —
  /// exactly the topology::FlattenTm layout (x[i*n+j] = X_ij), so the
  /// estimation hot path can feed bins to sparse kernels without
  /// copying.  Mutable access bypasses the setBin non-negativity
  /// check; callers must keep entries non-negative.
  const double* binData(std::size_t t) const;
  double* binData(std::size_t t);

  /// Ingress marginals X_i*(t) for one bin (length n).
  linalg::Vector ingress(std::size_t t) const;
  /// Egress marginals X_*j(t) for one bin (length n).
  linalg::Vector egress(std::size_t t) const;
  /// Total traffic X_**(t) in one bin.
  double total(std::size_t t) const;

  /// Mean over bins of the normalised egress share X_*i / X_**
  /// (used in Fig. 8 to gauge preference vs traffic volume).
  linalg::Vector meanNormalizedEgress() const;

  /// Time series of one OD pair (length T).
  linalg::Vector odSeries(std::size_t i, std::size_t j) const;

  /// Sum of all elements across all bins.
  double grandTotal() const;

  /// Extracts the sub-series of bins [first, first+count).
  TrafficMatrixSeries slice(std::size_t first, std::size_t count) const;

  /// Extracts every `stride`-th bin starting at bin 0 (stride >= 1);
  /// used to cheapen coarse parameter scans.
  TrafficMatrixSeries downsample(std::size_t stride) const;

  /// True when every element is >= 0 and finite.
  bool isValid() const;

 private:
  std::size_t nodes_;
  std::size_t bins_;
  double binSeconds_;
  std::vector<double> data_;  // [t][i][j] row-major
};

/// Builds the 0-1 matrix H (n x n^2) with H[i, col(i,j)] = 1: ingress
/// counts from flattened TMs (paper Sec. 6.2).  Column order matches
/// topology::FlattenTm (col = i*n + j).
linalg::Matrix BuildIngressOperator(std::size_t n);

/// Builds the 0-1 matrix G (n x n^2) with G[j, col(i,j)] = 1: egress
/// counts from flattened TMs.
linalg::Matrix BuildEgressOperator(std::size_t n);

/// Builds Q = [H; G] (2n x n^2), the stacked marginal operator of
/// Eq. 8 as a dense matrix — the test reference for the closed form in
/// core::IcOperator.
linalg::Matrix BuildMarginalOperator(std::size_t n);

}  // namespace ictm::traffic
