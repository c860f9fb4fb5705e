#include "svm/svm.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace fc::svm {

namespace {

// Interns rows by exact bit pattern: two rows share an id iff every
// element is bit-identical, so a row's id stands in for its value.
class DistinctRows {
 public:
  std::size_t Intern(const std::vector<double>& row) {
    auto [it, inserted] = ids_.try_emplace(row, rows_.size());
    if (inserted) rows_.push_back(row);
    return it->second;
  }

  /// The distinct rows, in first-seen order (row id = index).
  std::vector<std::vector<double>> Release() && { return std::move(rows_); }

 private:
  struct BitLess {
    bool operator()(const std::vector<double>& a,
                    const std::vector<double>& b) const {
      return std::lexicographical_compare(
          a.begin(), a.end(), b.begin(), b.end(), [](double u, double v) {
            return std::bit_cast<std::uint64_t>(u) < std::bit_cast<std::uint64_t>(v);
          });
    }
  };

  std::map<std::vector<double>, std::size_t, BitLess> ids_;
  std::vector<std::vector<double>> rows_;
};

// Kernel matrix over the distinct rows of a training set: K(x_i, x_j) is
// values[ids[i] * m + ids[j]]. Phase-feature training sets have thousands
// of rows but only a few hundred distinct ones; all-distinct rows make it
// the dense n x n matrix. The kernels are exactly symmetric, so every
// entry equals the dense matrix's bit for bit.
struct KernelMatrix {
  std::vector<std::size_t> ids;  // training row -> distinct row
  std::size_t m = 0;
  std::vector<double> values;

  KernelMatrix(const std::vector<std::vector<double>>& x, const KernelParams& kernel) {
    DistinctRows distinct;
    ids.reserve(x.size());
    for (const auto& row : x) ids.push_back(distinct.Intern(row));
    const auto d = std::move(distinct).Release();
    m = d.size();
    values.resize(m * m);
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = a; b < m; ++b) {
        double v = EvaluateKernel(kernel, d[a], d[b]);
        values[a * m + b] = v;
        values[b * m + a] = v;
      }
    }
  }

  /// Row of training row i, indexed by distinct id.
  const double* Row(std::size_t i) const { return &values[ids[i] * m]; }
  double operator()(std::size_t i, std::size_t j) const { return Row(i)[ids[j]]; }
};

}  // namespace

Result<BinarySvm> BinarySvm::Train(const std::vector<std::vector<double>>& x,
                                   const std::vector<int>& y,
                                   const SvmOptions& options) {
  if (x.empty()) return Status::InvalidArgument("svm: no training rows");
  if (x.size() != y.size()) {
    return Status::InvalidArgument("svm: rows and labels differ in size");
  }
  std::size_t dims = x[0].size();
  bool has_pos = false;
  bool has_neg = false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != dims) return Status::InvalidArgument("svm: ragged rows");
    if (y[i] == 1) has_pos = true;
    else if (y[i] == -1) has_neg = true;
    else return Status::InvalidArgument("svm: labels must be +1 or -1");
  }
  if (!has_pos || !has_neg) {
    return Status::InvalidArgument("svm: training data must contain both classes");
  }

  const std::size_t n = x.size();
  const double c = options.c;
  const double tol = options.tolerance;
  const KernelMatrix kmat(x, options.kernel);
  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  Rng rng(options.seed);

  // Cached decision values f[i] = sum_j alpha_j y_j K(j,i) + b, updated
  // incrementally on every alpha/b change (keeps each sweep O(n) amortized
  // per successful update instead of O(n) per decision evaluation).
  std::vector<double> f(n, 0.0);

  // Simplified Platt SMO (Ng's CS229 variant) with random second index.
  std::size_t passes = 0;
  std::size_t iterations = 0;
  while (passes < options.max_passes && iterations < options.max_iterations) {
    std::size_t num_changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      double ei = f[i] - y[i];
      bool violates = (y[i] * ei < -tol && alpha[i] < c) ||
                      (y[i] * ei > tol && alpha[i] > 0.0);
      if (!violates) continue;

      std::size_t j = rng.UniformUint32(static_cast<std::uint32_t>(n - 1));
      if (j >= i) ++j;
      double ej = f[j] - y[j];

      double ai_old = alpha[i];
      double aj_old = alpha[j];
      double lo;
      double hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;
      double eta = 2.0 * kmat(i, j) - kmat(i, i) - kmat(j, j);
      if (eta >= 0.0) continue;

      double aj = aj_old - y[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-5) continue;
      double ai = ai_old + y[i] * y[j] * (aj_old - aj);

      alpha[i] = ai;
      alpha[j] = aj;

      double b1 = b - ei - y[i] * (ai - ai_old) * kmat(i, i) -
                  y[j] * (aj - aj_old) * kmat(i, j);
      double b2 = b - ej - y[i] * (ai - ai_old) * kmat(i, j) -
                  y[j] * (aj - aj_old) * kmat(j, j);
      double b_new;
      if (ai > 0.0 && ai < c) b_new = b1;
      else if (aj > 0.0 && aj < c) b_new = b2;
      else b_new = 0.5 * (b1 + b2);

      double dai = (ai - ai_old) * y[i];
      double daj = (aj - aj_old) * y[j];
      double db = b_new - b;
      const double* ki = kmat.Row(i);
      const double* kj = kmat.Row(j);
      for (std::size_t kidx = 0; kidx < n; ++kidx) {
        std::size_t id = kmat.ids[kidx];
        f[kidx] += dai * ki[id] + daj * kj[id] + db;
      }
      b = b_new;

      ++num_changed;
    }
    ++iterations;
    passes = (num_changed == 0) ? passes + 1 : 0;
  }

  BinarySvm model;
  model.options_ = options;
  model.bias_ = b;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-9) {
      model.support_vectors_.push_back(x[i]);
      model.coefficients_.push_back(alpha[i] * y[i]);
    }
  }
  return model;
}

double BinarySvm::DecisionValue(const std::vector<double>& x) const {
  double f = bias_;
  for (std::size_t i = 0; i < support_vectors_.size(); ++i) {
    f += coefficients_[i] * EvaluateKernel(options_.kernel, support_vectors_[i], x);
  }
  return f;
}

Result<MulticlassSvm> MulticlassSvm::Train(const std::vector<std::vector<double>>& x,
                                           const std::vector<int>& y,
                                           const SvmOptions& options) {
  if (x.size() != y.size() || x.empty()) {
    return Status::InvalidArgument("multiclass svm: bad training input");
  }
  std::vector<int> classes = y;
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  if (classes.size() < 2) {
    return Status::InvalidArgument("multiclass svm: need >= 2 classes");
  }

  MulticlassSvm model;
  model.kernel_ = options.kernel;
  model.classes_ = classes;
  DistinctRows pool;
  for (std::size_t a = 0; a < classes.size(); ++a) {
    for (std::size_t bp = a + 1; bp < classes.size(); ++bp) {
      std::vector<std::vector<double>> xs;
      std::vector<int> ys;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (y[i] == classes[a]) {
          xs.push_back(x[i]);
          ys.push_back(1);
        } else if (y[i] == classes[bp]) {
          xs.push_back(x[i]);
          ys.push_back(-1);
        }
      }
      FC_ASSIGN_OR_RETURN(auto svm, BinarySvm::Train(xs, ys, options));
      PairwiseMachine machine{classes[a], classes[bp], svm.bias(),
                              svm.coefficients(), {}};
      machine.support.reserve(svm.num_support_vectors());
      for (const auto& sv : svm.support_vectors()) {
        machine.support.push_back(pool.Intern(sv));
      }
      model.machines_.push_back(std::move(machine));
    }
  }
  model.pool_ = std::move(pool).Release();
  return model;
}

std::vector<double> MulticlassSvm::DecisionValues(const std::vector<double>& x) const {
  std::vector<double> k(pool_.size());
  for (std::size_t p = 0; p < pool_.size(); ++p) {
    k[p] = EvaluateKernel(kernel_, pool_[p], x);
  }
  // Same terms in the same order as BinarySvm::DecisionValue.
  std::vector<double> decisions;
  decisions.reserve(machines_.size());
  for (const auto& m : machines_) {
    double f = m.bias;
    for (std::size_t i = 0; i < m.coefficients.size(); ++i) {
      f += m.coefficients[i] * k[m.support[i]];
    }
    decisions.push_back(f);
  }
  return decisions;
}

std::map<int, int> MulticlassSvm::CountVotes(const std::vector<double>& decisions) const {
  std::map<int, int> votes;
  for (int c : classes_) votes[c] = 0;
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    const auto& m = machines_[i];
    ++votes[decisions[i] >= 0.0 ? m.positive_class : m.negative_class];
  }
  return votes;
}

std::map<int, int> MulticlassSvm::Votes(const std::vector<double>& x) const {
  return CountVotes(DecisionValues(x));
}

int MulticlassSvm::Predict(const std::vector<double>& x) const {
  FC_CHECK_MSG(!machines_.empty(), "predict on untrained multiclass svm");
  auto decisions = DecisionValues(x);
  auto votes = CountVotes(decisions);
  // Tie-break by summed signed margins toward each class.
  std::map<int, double> margin;
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    margin[machines_[i].positive_class] += decisions[i];
    margin[machines_[i].negative_class] -= decisions[i];
  }
  int best = classes_[0];
  for (int c : classes_) {
    if (votes[c] > votes[best] ||
        (votes[c] == votes[best] && margin[c] > margin[best])) {
      best = c;
    }
  }
  return best;
}

double ClassificationAccuracy(const MulticlassSvm& model,
                              const std::vector<std::vector<double>>& x,
                              const std::vector<int>& y) {
  if (x.empty() || x.size() != y.size()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (model.Predict(x[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.size());
}

}  // namespace fc::svm
