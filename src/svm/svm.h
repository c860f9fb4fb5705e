// Soft-margin SVM trained with a simplified Platt SMO, plus one-vs-one
// multiclass voting — the model class ForeCache's phase classifier uses
// (paper section 4.2.2: multi-class SVM with an RBF kernel).
//
// Both sides work over distinct feature vectors. The phase features (tile
// x/y/level and move flags) are discrete, so thousands of training rows
// hold only a few hundred distinct vectors. Training builds its kernel
// matrix over the distinct rows. The multiclass model keeps one pool of
// distinct support vectors shared by all pairwise machines, so a
// prediction evaluates the kernel once per pool row and each machine's
// decision value once. The sums run in the same order as the textbook
// per-support-vector form, so results are bit-identical to it.

#ifndef FORECACHE_SVM_SVM_H_
#define FORECACHE_SVM_SVM_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "svm/kernel.h"

namespace fc::svm {

struct SvmOptions {
  KernelParams kernel;
  double c = 1.0;            ///< Soft-margin penalty.
  double tolerance = 1e-3;   ///< KKT violation tolerance.
  std::size_t max_passes = 5;    ///< Consecutive no-change sweeps to converge.
  std::size_t max_iterations = 2000;  ///< Hard cap on full sweeps.
  std::uint64_t seed = 13;   ///< For SMO's randomized second-index choice.
};

/// Binary classifier with labels +1 / -1.
class BinarySvm {
 public:
  BinarySvm() = default;

  /// Trains on rows `x` with labels `y` in {-1, +1}. InvalidArgument on
  /// empty/ragged input, labels outside {-1,+1}, or single-class data.
  static Result<BinarySvm> Train(const std::vector<std::vector<double>>& x,
                                 const std::vector<int>& y, const SvmOptions& options);

  /// Signed decision value f(x) = sum alpha_i y_i K(x_i, x) + b.
  double DecisionValue(const std::vector<double>& x) const;

  /// +1 or -1.
  int Predict(const std::vector<double>& x) const {
    return DecisionValue(x) >= 0.0 ? 1 : -1;
  }

  std::size_t num_support_vectors() const { return support_vectors_.size(); }
  const std::vector<std::vector<double>>& support_vectors() const {
    return support_vectors_;
  }
  /// alpha_i * y_i, one per support vector, in support-vector order.
  const std::vector<double>& coefficients() const { return coefficients_; }
  double bias() const { return bias_; }
  const SvmOptions& options() const { return options_; }

 private:
  SvmOptions options_;
  std::vector<std::vector<double>> support_vectors_;
  std::vector<double> coefficients_;  // alpha_i * y_i per support vector
  double bias_ = 0.0;
};

/// One-vs-one multiclass wrapper. Labels are arbitrary ints.
class MulticlassSvm {
 public:
  MulticlassSvm() = default;

  /// Trains k*(k-1)/2 pairwise machines. InvalidArgument if fewer than 2
  /// classes are present.
  static Result<MulticlassSvm> Train(const std::vector<std::vector<double>>& x,
                                     const std::vector<int>& y,
                                     const SvmOptions& options);

  /// Majority vote across pairwise machines; ties break toward the class
  /// with the larger summed decision margin.
  int Predict(const std::vector<double>& x) const;

  /// Vote counts per class label.
  std::map<int, int> Votes(const std::vector<double>& x) const;

  /// Each pairwise machine's decision value f(x), in machine order: class
  /// pairs (a, b) with a < b in classes() order, a voting positive.
  std::vector<double> DecisionValues(const std::vector<double>& x) const;

  const std::vector<int>& classes() const { return classes_; }
  std::size_t num_machines() const { return machines_.size(); }
  /// Distinct support vectors across all machines (kernel evaluations per
  /// prediction).
  std::size_t num_distinct_support_vectors() const { return pool_.size(); }

 private:
  struct PairwiseMachine {
    int positive_class = 0;
    int negative_class = 0;
    double bias = 0.0;
    std::vector<double> coefficients;  // alpha_i * y_i, support-vector order
    std::vector<std::size_t> support;  // pool_ row of each support vector
  };

  std::map<int, int> CountVotes(const std::vector<double>& decisions) const;

  KernelParams kernel_;
  std::vector<std::vector<double>> pool_;  // distinct support vectors
  std::vector<int> classes_;
  std::vector<PairwiseMachine> machines_;
};

/// Fraction of predictions matching labels (0 for empty input).
double ClassificationAccuracy(const MulticlassSvm& model,
                              const std::vector<std::vector<double>>& x,
                              const std::vector<int>& y);

}  // namespace fc::svm

#endif  // FORECACHE_SVM_SVM_H_
