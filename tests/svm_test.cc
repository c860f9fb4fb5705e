// Unit tests for the SVM substrate: kernels, scaler, SMO training,
// multiclass voting, and bit-identity of the shared support-vector pool
// against the textbook one-vs-one predictor.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/rng.h"
#include "svm/kernel.h"
#include "svm/scaler.h"
#include "svm/svm.h"

namespace fc::svm {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures for the bit-identity tests

KernelParams Kernel(KernelKind kind) {
  KernelParams params;
  params.kind = kind;
  if (kind == KernelKind::kPoly) {
    params.gamma = 0.5;
    params.coef0 = 1.0;
    params.degree = 3;
  }
  return params;
}

const std::vector<KernelKind> kAllKernels = {KernelKind::kRbf, KernelKind::kLinear,
                                              KernelKind::kPoly};

// Rows drawn from a small discrete grid, as the phase features are (tile
// x/y/level and move flags), so most rows repeat: 120 rows over at most 32
// distinct vectors. Labels follow a noisy rule so every pairwise machine
// keeps many support vectors.
void DuplicatedRows(int num_classes, std::uint64_t seed,
                    std::vector<std::vector<double>>* x, std::vector<int>* y) {
  Rng rng(seed);
  for (int i = 0; i < 120; ++i) {
    int gx = rng.UniformInt(0, 3);
    int gy = rng.UniformInt(0, 3);
    int flag = rng.UniformInt(0, 1);
    int noise = rng.Bernoulli(0.25) ? rng.UniformInt(0, num_classes - 1) : 0;
    x->push_back({static_cast<double>(gx), static_cast<double>(gy),
                  static_cast<double>(flag)});
    y->push_back((gx + gy + noise) % num_classes);
  }
}

// Every grid point plus off-grid points.
std::vector<std::vector<double>> Probes(std::uint64_t seed) {
  std::vector<std::vector<double>> probes;
  for (int gx = 0; gx < 4; ++gx) {
    for (int gy = 0; gy < 4; ++gy) {
      for (int flag = 0; flag < 2; ++flag) {
        probes.push_back({static_cast<double>(gx), static_cast<double>(gy),
                          static_cast<double>(flag)});
      }
    }
  }
  Rng rng(seed);
  for (int i = 0; i < 24; ++i) {
    probes.push_back({rng.UniformDouble(-1.0, 4.0), rng.UniformDouble(-1.0, 4.0),
                      rng.UniformDouble(0.0, 1.0)});
  }
  return probes;
}

std::uint64_t HashDouble(std::uint64_t h, double v) {
  h ^= std::bit_cast<std::uint64_t>(v);
  return h * 1099511628211ull;
}

// The textbook one-vs-one predictor: one BinarySvm per class pair (a, b)
// with a < b, each decision value summed support vector by support vector,
// then votes, then summed margins to break vote ties.
class ReferenceOneVsOne {
 public:
  ReferenceOneVsOne(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
                    const SvmOptions& options)
      : kernel_(options.kernel) {
    classes_ = y;
    std::sort(classes_.begin(), classes_.end());
    classes_.erase(std::unique(classes_.begin(), classes_.end()), classes_.end());
    for (std::size_t a = 0; a < classes_.size(); ++a) {
      for (std::size_t b = a + 1; b < classes_.size(); ++b) {
        std::vector<std::vector<double>> xs;
        std::vector<int> ys;
        for (std::size_t i = 0; i < x.size(); ++i) {
          if (y[i] == classes_[a] || y[i] == classes_[b]) {
            xs.push_back(x[i]);
            ys.push_back(y[i] == classes_[a] ? 1 : -1);
          }
        }
        auto svm = BinarySvm::Train(xs, ys, options);
        EXPECT_TRUE(svm.ok());
        machines_.push_back({classes_[a], classes_[b], std::move(*svm)});
      }
    }
  }

  std::vector<double> DecisionValues(const std::vector<double>& x) const {
    std::vector<double> out;
    for (const auto& m : machines_) {
      double f = m.svm.bias();
      for (std::size_t i = 0; i < m.svm.num_support_vectors(); ++i) {
        f += m.svm.coefficients()[i] * EvaluateKernel(kernel_, m.svm.support_vectors()[i], x);
      }
      out.push_back(f);
    }
    return out;
  }

  std::map<int, int> Votes(const std::vector<double>& x) const {
    std::map<int, int> votes;
    for (int c : classes_) votes[c] = 0;
    for (const auto& m : machines_) {
      ++votes[m.svm.Predict(x) == 1 ? m.positive : m.negative];
    }
    return votes;
  }

  int Predict(const std::vector<double>& x) const {
    auto votes = Votes(x);
    std::map<int, double> margin;
    for (const auto& m : machines_) {
      double d = m.svm.DecisionValue(x);
      margin[m.positive] += d;
      margin[m.negative] -= d;
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

  /// Each binary machine's own DecisionValue, in machine order.
  std::vector<double> BinaryDecisionValues(const std::vector<double>& x) const {
    std::vector<double> out;
    for (const auto& m : machines_) out.push_back(m.svm.DecisionValue(x));
    return out;
  }

  std::size_t total_support_vectors() const {
    std::size_t n = 0;
    for (const auto& m : machines_) n += m.svm.num_support_vectors();
    return n;
  }

 private:
  struct Machine {
    int positive;
    int negative;
    BinarySvm svm;
  };
  KernelParams kernel_;
  std::vector<int> classes_;
  std::vector<Machine> machines_;
};

// Exact equality on doubles throughout: the pool must not change a bit.
void ExpectMatchesReference(const MulticlassSvm& model, const ReferenceOneVsOne& ref,
                            const std::vector<double>& probe) {
  auto decisions = model.DecisionValues(probe);
  auto expected = ref.DecisionValues(probe);
  ASSERT_EQ(decisions.size(), expected.size());
  auto binary = ref.BinaryDecisionValues(probe);
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    EXPECT_EQ(decisions[i], expected[i]) << "machine " << i;
    EXPECT_EQ(decisions[i], binary[i]) << "machine " << i;
  }
  EXPECT_EQ(model.Votes(probe), ref.Votes(probe));
  EXPECT_EQ(model.Predict(probe), ref.Predict(probe));
}

// ---------------------------------------------------------------------------
// Kernels

TEST(KernelTest, Linear) {
  KernelParams params;
  params.kind = KernelKind::kLinear;
  EXPECT_DOUBLE_EQ(EvaluateKernel(params, {1, 2}, {3, 4}), 11.0);
}

TEST(KernelTest, RbfIdenticalIsOne) {
  KernelParams params;
  params.kind = KernelKind::kRbf;
  params.gamma = 0.5;
  EXPECT_DOUBLE_EQ(EvaluateKernel(params, {1, 2}, {1, 2}), 1.0);
  // Decays with distance.
  double near = EvaluateKernel(params, {0, 0}, {0.1, 0});
  double far = EvaluateKernel(params, {0, 0}, {3, 0});
  EXPECT_GT(near, far);
  EXPECT_NEAR(far, std::exp(-0.5 * 9.0), 1e-12);
}

TEST(KernelTest, Poly) {
  KernelParams params;
  params.kind = KernelKind::kPoly;
  params.gamma = 1.0;
  params.coef0 = 1.0;
  params.degree = 2;
  EXPECT_DOUBLE_EQ(EvaluateKernel(params, {1, 0}, {1, 0}), 4.0);  // (1+1)^2
}

// ---------------------------------------------------------------------------
// Scaler

TEST(ScalerTest, StandardizesColumns) {
  FeatureScaler scaler;
  ASSERT_TRUE(scaler.Fit({{0.0, 10.0}, {2.0, 10.0}, {4.0, 10.0}}).ok());
  auto t = scaler.Transform({2.0, 10.0});
  EXPECT_NEAR(t[0], 0.0, 1e-12);
  EXPECT_NEAR(t[1], 0.0, 1e-12);  // constant column -> 0
  auto hi = scaler.Transform({4.0, 10.0});
  EXPECT_GT(hi[0], 1.0);
}

TEST(ScalerTest, RejectsBadInput) {
  FeatureScaler scaler;
  EXPECT_FALSE(scaler.Fit({}).ok());
  EXPECT_FALSE(scaler.Fit({{1.0}, {1.0, 2.0}}).ok());
}

// ---------------------------------------------------------------------------
// BinarySvm

TEST(BinarySvmTest, ValidatesInput) {
  SvmOptions options;
  EXPECT_FALSE(BinarySvm::Train({}, {}, options).ok());
  EXPECT_FALSE(BinarySvm::Train({{1.0}}, {2}, options).ok());       // bad label
  EXPECT_FALSE(BinarySvm::Train({{1.0}}, {1}, options).ok());       // one class
  EXPECT_FALSE(BinarySvm::Train({{1.0}, {2.0}}, {1}, options).ok());  // sizes
}

TEST(BinarySvmTest, LinearlySeparable) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(41);
  for (int i = 0; i < 40; ++i) {
    x.push_back({rng.Gaussian(-2.0, 0.3), rng.Gaussian(-2.0, 0.3)});
    y.push_back(-1);
    x.push_back({rng.Gaussian(2.0, 0.3), rng.Gaussian(2.0, 0.3)});
    y.push_back(1);
  }
  // Linear kernel: the margin extends to arbitrarily far points (RBF decision
  // values decay back toward the bias away from the support vectors).
  SvmOptions options;
  options.kernel.kind = KernelKind::kLinear;
  auto model = BinarySvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->num_support_vectors(), 0u);
  int correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (model->Predict(x[i]) == y[i]) ++correct;
  }
  EXPECT_GE(correct, static_cast<int>(x.size()) - 2);
  // Far-away points classified confidently.
  EXPECT_EQ(model->Predict({-5.0, -5.0}), -1);
  EXPECT_EQ(model->Predict({5.0, 5.0}), 1);
  EXPECT_GT(model->DecisionValue({5.0, 5.0}), 0.5);
}

TEST(BinarySvmTest, RbfSolvesXor) {
  // XOR is not linearly separable; the RBF kernel must handle it.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(43);
  for (int i = 0; i < 30; ++i) {
    double jx = rng.Gaussian(0.0, 0.08);
    double jy = rng.Gaussian(0.0, 0.08);
    x.push_back({0.0 + jx, 0.0 + jy});
    y.push_back(1);
    x.push_back({1.0 + jx, 1.0 + jy});
    y.push_back(1);
    x.push_back({0.0 + jx, 1.0 + jy});
    y.push_back(-1);
    x.push_back({1.0 + jx, 0.0 + jy});
    y.push_back(-1);
  }
  SvmOptions options;
  options.kernel.gamma = 2.0;
  options.c = 10.0;
  auto model = BinarySvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Predict({0.0, 0.0}), 1);
  EXPECT_EQ(model->Predict({1.0, 1.0}), 1);
  EXPECT_EQ(model->Predict({0.0, 1.0}), -1);
  EXPECT_EQ(model->Predict({1.0, 0.0}), -1);
}

TEST(BinarySvmTest, DeterministicGivenSeed) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(47);
  for (int i = 0; i < 30; ++i) {
    x.push_back({rng.Gaussian(-1, 0.5)});
    y.push_back(-1);
    x.push_back({rng.Gaussian(1, 0.5)});
    y.push_back(1);
  }
  SvmOptions options;
  auto a = BinarySvm::Train(x, y, options);
  auto b = BinarySvm::Train(x, y, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->bias(), b->bias());
  EXPECT_EQ(a->num_support_vectors(), b->num_support_vectors());
  EXPECT_DOUBLE_EQ(a->DecisionValue({0.3}), b->DecisionValue({0.3}));
}

TEST(BinarySvmTest, TrainingMatchesDenseKernelGolden) {
  // Training works over distinct rows; bias, support vectors and
  // coefficients must equal those of the dense n x n kernel matrix. The
  // hashes cover the bias, the support-vector count and the decision value
  // at every probe, and were recorded with the dense matrix.
  const std::map<KernelKind, std::uint64_t> golden = {
      {KernelKind::kRbf, 3507719838295485619ull},
      {KernelKind::kLinear, 7046960774433531268ull},
      {KernelKind::kPoly, 14719420814558931045ull}};
  std::vector<std::vector<double>> x;
  std::vector<int> labels;
  DuplicatedRows(2, 7, &x, &labels);
  std::vector<int> y;
  for (int label : labels) y.push_back(label == 0 ? 1 : -1);
  for (KernelKind kind : kAllKernels) {
    SvmOptions options;
    options.kernel = Kernel(kind);
    auto model = BinarySvm::Train(x, y, options);
    ASSERT_TRUE(model.ok());
    std::uint64_t h = 1469598103934665603ull;
    h = HashDouble(h, model->bias());
    h = HashDouble(h, static_cast<double>(model->num_support_vectors()));
    for (const auto& probe : Probes(7)) h = HashDouble(h, model->DecisionValue(probe));
    EXPECT_EQ(h, golden.at(kind)) << KernelKindToString(kind);
  }
}

// ---------------------------------------------------------------------------
// MulticlassSvm

TEST(MulticlassSvmTest, ThreeGaussianBlobs) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(53);
  const std::vector<std::pair<double, double>> centers = {
      {0.0, 0.0}, {4.0, 0.0}, {2.0, 3.5}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 30; ++i) {
      x.push_back({rng.Gaussian(centers[c].first, 0.4),
                   rng.Gaussian(centers[c].second, 0.4)});
      y.push_back(c);
    }
  }
  SvmOptions options;
  options.kernel.gamma = 1.0;
  auto model = MulticlassSvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->classes().size(), 3u);
  EXPECT_EQ(model->num_machines(), 3u);  // 3 choose 2
  EXPECT_EQ(model->Predict({0.0, 0.0}), 0);
  EXPECT_EQ(model->Predict({4.0, 0.0}), 1);
  EXPECT_EQ(model->Predict({2.0, 3.5}), 2);
  EXPECT_GT(ClassificationAccuracy(*model, x, y), 0.95);
}

TEST(MulticlassSvmTest, ArbitraryLabelValues) {
  std::vector<std::vector<double>> x = {{0.0}, {0.1}, {5.0}, {5.1}};
  std::vector<int> y = {-7, -7, 42, 42};
  SvmOptions options;
  auto model = MulticlassSvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Predict({0.05}), -7);
  EXPECT_EQ(model->Predict({5.05}), 42);
}

TEST(MulticlassSvmTest, RequiresTwoClasses) {
  SvmOptions options;
  EXPECT_FALSE(MulticlassSvm::Train({{1.0}, {2.0}}, {3, 3}, options).ok());
}

TEST(MulticlassSvmTest, VotesExposed) {
  std::vector<std::vector<double>> x = {{0.0}, {0.2}, {5.0}, {5.2}, {10.0}, {10.2}};
  std::vector<int> y = {0, 0, 1, 1, 2, 2};
  SvmOptions options;
  auto model = MulticlassSvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  auto votes = model->Votes({0.1});
  int total = 0;
  for (const auto& [cls, count] : votes) total += count;
  EXPECT_EQ(total, 3);  // one vote per pairwise machine
  EXPECT_EQ(votes[0], 2);  // class 0 wins both of its pairings
}

TEST(MulticlassSvmTest, SharedPoolMatchesReferenceExactly) {
  for (KernelKind kind : kAllKernels) {
    for (int num_classes = 2; num_classes <= 4; ++num_classes) {
      for (std::uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE(std::string(KernelKindToString(kind)) + " classes=" +
                     std::to_string(num_classes) + " seed=" + std::to_string(seed));
        std::vector<std::vector<double>> x;
        std::vector<int> y;
        DuplicatedRows(num_classes, seed, &x, &y);
        SvmOptions options;
        options.kernel = Kernel(kind);
        auto model = MulticlassSvm::Train(x, y, options);
        ASSERT_TRUE(model.ok());
        ReferenceOneVsOne ref(x, y, options);
        // The pool holds each distinct support vector once across machines.
        EXPECT_LE(model->num_distinct_support_vectors(), 32u);
        EXPECT_LT(model->num_distinct_support_vectors(), ref.total_support_vectors());
        for (const auto& probe : Probes(seed)) ExpectMatchesReference(*model, ref, probe);
      }
    }
  }
}

TEST(MulticlassSvmTest, VoteTiesBreakByMarginExactly) {
  // Three overlapping classes under a linear kernel: the pairwise
  // half-planes do not meet in one point, so part of the plane has
  // intransitive (1-1-1) votes that only the summed margins can break.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(59);
  const std::vector<std::pair<double, double>> centers = {
      {0.0, 0.0}, {2.0, 0.3}, {0.8, 1.9}};
  for (int i = 0; i < 40; ++i) {
    for (int c = 0; c < 3; ++c) {
      double spread = 0.6 + 0.4 * c;
      x.push_back({rng.Gaussian(centers[c].first, spread),
                   rng.Gaussian(centers[c].second, spread)});
      y.push_back(c);
    }
  }
  SvmOptions options;
  options.kernel = Kernel(KernelKind::kLinear);
  auto model = MulticlassSvm::Train(x, y, options);
  ASSERT_TRUE(model.ok());
  ReferenceOneVsOne ref(x, y, options);
  int ties = 0;
  std::set<int> winners;
  for (int i = 0; i <= 60; ++i) {
    for (int j = 0; j <= 60; ++j) {
      std::vector<double> probe = {-1.0 + 0.05 * i, -1.0 + 0.05 * j};
      auto votes = model->Votes(probe);
      if (votes[0] != 1 || votes[1] != 1 || votes[2] != 1) continue;
      ++ties;
      winners.insert(model->Predict(probe));
      ExpectMatchesReference(*model, ref, probe);
    }
  }
  EXPECT_GT(ties, 0);
  // The margins, not the first class in order, decide the ties.
  EXPECT_GE(winners.size(), 2u) << ties << " ties";
}

TEST(MulticlassSvmTest, CopiesAndMovesPredictIdentically) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  DuplicatedRows(3, 5, &x, &y);
  auto model = MulticlassSvm::Train(x, y, SvmOptions{});
  ASSERT_TRUE(model.ok());
  MulticlassSvm copy = *model;
  MulticlassSvm source = *model;
  std::optional<MulticlassSvm> moved;
  moved.emplace(std::move(source));
  MulticlassSvm assigned;
  assigned = copy;
  for (const auto& probe : Probes(5)) {
    auto expected = model->DecisionValues(probe);
    for (const MulticlassSvm* other : {&copy, &*moved, &assigned}) {
      EXPECT_EQ(other->DecisionValues(probe), expected);
      EXPECT_EQ(other->Predict(probe), model->Predict(probe));
    }
  }
}

TEST(MulticlassSvmTest, ConcurrentPredictMatchesSerial) {
  // One model serves every session thread; Predict must be a pure read.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  DuplicatedRows(4, 11, &x, &y);
  auto model = MulticlassSvm::Train(x, y, SvmOptions{});
  ASSERT_TRUE(model.ok());
  const auto probes = Probes(11);
  std::vector<int> serial;
  for (const auto& probe : probes) serial.push_back(model->Predict(probe));

  constexpr int kThreads = 8;
  std::vector<std::vector<int>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        // Each thread walks the probes from a different offset.
        std::vector<int> labels(probes.size());
        for (std::size_t k = 0; k < probes.size(); ++k) {
          std::size_t i = (k + static_cast<std::size_t>(t) * 7) % probes.size();
          labels[i] = model->Predict(probes[i]);
        }
        results[t] = std::move(labels);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(results[t], serial) << "thread " << t;
}

TEST(MulticlassSvmTest, AccuracyHelperHandlesEmpty) {
  MulticlassSvm model;
  EXPECT_DOUBLE_EQ(ClassificationAccuracy(model, {}, {}), 0.0);
}

}  // namespace
}  // namespace fc::svm
