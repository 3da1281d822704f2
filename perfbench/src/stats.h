// Percentile, ratio and report helpers of the benchmark harness.
#ifndef UJOIN_PERFBENCH_STATS_H_
#define UJOIN_PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile together with the sample count it was read
/// from.  `ok` is false when fewer than kMinBeyond samples lie beyond the
/// percentile (p99 needs 1,000 samples, p50 needs 20); `value` is 0 then.
struct Percentile {
  double p = 0.0;
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
  bool ok = false;
  int64_t groups = 1;  // > 1: see MeanPercentile
};

inline constexpr int64_t kMinBeyond = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `values`.
Percentile ComputePercentile(std::vector<double> values, double p);

/// Percentile `p` read within each group, then averaged over the groups:
/// `samples` and `beyond` are the smallest group's, and `ok` needs every
/// group to have kMinBeyond samples beyond.
Percentile MeanPercentile(const std::vector<std::vector<double>>& groups,
                          double p);

/// Median of `values` (any count >= 1; 0 when empty).  Used for per-run
/// summaries over repetitions, where no tail is read.
double Median(std::vector<double> values);

/// A ratio with its base, so that a printed ratio always shows what it was
/// taken over.  A zero base gives the value 0.
struct Ratio {
  double num = 0.0;
  double base = 0.0;
  double value() const { return base != 0.0 ? num / base : 0.0; }
};

/// Collects the metrics of one run: prints each as a readable line when it
/// is added, and renders the final one-line JSON result.
class Report {
 public:
  /// Plain value (a time, rate, count or size).
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Percentile metric: the line carries the sample count.
  void AddPercentile(const std::string& name, const Percentile& pct,
                     const std::string& unit);
  /// Ratio metric: the line carries numerator and base.
  void AddRatio(const std::string& name, const Ratio& ratio);

  /// Counts one operation; `ok` false counts it as failed.
  void Attempt(bool ok);
  /// Records a wrong output; the operation itself is counted by Attempt.
  void Mismatch(const std::string& what);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
  std::string ResultJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t mismatches_reported_ = 0;
};

/// Checks ComputePercentile, Median and Ratio on known inputs; returns an
/// empty string on success, else a description of the first failure.
std::string SelfTest();

}  // namespace perfbench

#endif  // UJOIN_PERFBENCH_STATS_H_
