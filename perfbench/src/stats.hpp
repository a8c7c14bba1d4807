#pragma once

// Order statistics for the benchmark's reports, and the tally of checked
// operations that feeds `attempted` / `failed`.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Median; the mean of the two middle samples for an even count.
inline double median(std::vector<double> v) {
  if (v.empty())
    throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The n-1 cut points of Python's statistics.quantiles(data, n=n) with its
/// default 'exclusive' method, so spreads computed here agree with the
/// ones perfbench/spread.py reports. Needs at least two samples.
inline std::vector<double> quantiles(std::vector<double> v, int n) {
  if (n < 1 || v.size() < 2)
    throw std::invalid_argument("quantiles needs n >= 1 and two samples");
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> cuts;
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    cuts.push_back((v[static_cast<std::size_t>(j - 1)] *
                        static_cast<double>(n - delta) +
                    v[static_cast<std::size_t>(j)] *
                        static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

/// Regularized incomplete beta function I_x(a, b), by the continued
/// fraction of Numerical Recipes (betacf, modified Lentz).
inline double incompleteBeta(double a, double b, double x) {
  if (x <= 0.0)
    return 0.0;
  if (x >= 1.0)
    return 1.0;
  const double logFront = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  if (logFront < -745.0) // the front factor underflows: I is 0 or 1
    return x < a / (a + b) ? 0.0 : 1.0;
  auto fraction = [](double p, double q, double y) {
    constexpr double kTiny = 1e-300;
    auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
    double c = 1.0;
    double d = 1.0 / guard(1.0 - (p + q) * y / (p + 1.0));
    double h = d;
    for (int m = 1; m < 100000; ++m) {
      const double dm = m;
      double aa = dm * (q - dm) * y / ((p - 1.0 + 2 * dm) * (p + 2 * dm));
      d = 1.0 / guard(1.0 + aa * d);
      c = guard(1.0 + aa / c);
      h *= d * c;
      aa = -(p + dm) * (p + q + dm) * y / ((p + 2 * dm) * (p + 1.0 + 2 * dm));
      d = 1.0 / guard(1.0 + aa * d);
      c = guard(1.0 + aa / c);
      h *= d * c;
      if (std::abs(d * c - 1.0) < 1e-15)
        break;
    }
    return h;
  };
  const double front = std::exp(logFront);
  if (x < (a + 1.0) / (a + b + 2.0))
    return front * fraction(a, b, x) / a;
  return 1.0 - front * fraction(b, a, 1.0 - x) / b;
}

/// Harrell-Davis estimate of the p-quantile, 0 < p < 1: a Beta-weighted
/// mean of all order statistics. It moves smoothly with the data, so a
/// quantile that falls between two clusters of samples (programs of
/// different size in one mix) does not jump from one cluster's extreme to
/// the other's between runs, as a single order statistic would.
inline double harrellDavis(std::vector<double> v, double p) {
  if (v.empty() || !(p > 0.0 && p < 1.0))
    throw std::invalid_argument("harrellDavis needs samples and p in (0, 1)");
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p * (n + 1.0);
  const double b = (1.0 - p) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double upTo = incompleteBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upTo - below) * v[i];
    below = upTo;
  }
  return estimate;
}

/// Geometric mean of positive samples.
inline double geomean(const std::vector<double>& v) {
  if (v.empty())
    throw std::invalid_argument("geomean of no samples");
  double logSum = 0.0;
  for (double x : v)
    logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

/// Counts checked operations. An operation fails when it throws or returns
/// false, i.e. its result differs from its independent reference.
class Tally {
public:
  template <typename Op> bool run(const std::string& what, Op&& op) {
    ++attempted_;
    try {
      if (op())
        return true;
      note(what + ": result differs from its reference");
    } catch (const std::exception& e) {
      note(what + ": " + e.what());
    }
    ++failed_;
    return false;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The first few failure messages.
  const std::vector<std::string>& errors() const { return errors_; }

private:
  void note(std::string message) {
    if (errors_.size() < 8)
      errors_.push_back(std::move(message));
  }

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

} // namespace perfbench
