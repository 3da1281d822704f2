#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json_writer.h"

namespace perfbench {

Percentile ComputePercentile(std::vector<double> values, double p) {
  Percentile out;
  out.p = p;
  out.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return out;
  // Nearest rank, ceil(p/100 * n), in integer arithmetic so that p99 of
  // 1,000 samples is exactly rank 990 with 10 samples beyond it.
  const int64_t p_hundredths = std::llround(p * 100.0);
  const int64_t rank =
      std::max<int64_t>(1, (p_hundredths * out.samples + 9999) / 10000);
  out.beyond = out.samples - rank;
  if (out.beyond < kMinBeyond) return out;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[static_cast<size_t>(rank - 1)];
  out.ok = true;
  return out;
}

Percentile MeanPercentile(const std::vector<std::vector<double>>& groups,
                          double p) {
  Percentile out;
  out.p = p;
  out.groups = static_cast<int64_t>(groups.size());
  if (groups.empty()) return out;
  out.ok = true;
  out.samples = INT64_MAX;
  out.beyond = INT64_MAX;
  double sum = 0.0;
  for (const std::vector<double>& group : groups) {
    const Percentile pct = ComputePercentile(group, p);
    out.ok = out.ok && pct.ok;
    out.samples = std::min(out.samples, pct.samples);
    out.beyond = std::min(out.beyond, pct.beyond);
    sum += pct.value;
  }
  out.value = out.ok ? sum / static_cast<double>(groups.size()) : 0.0;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back(Metric{name, value, unit});
  std::printf("metric %-30s %14.6g %-6s%s%s\n", name.c_str(), value,
              unit.c_str(), note.empty() ? "" : "  ", note.c_str());
}

void Report::AddPercentile(const std::string& name, const Percentile& pct,
                           const std::string& unit) {
  char note[128];
  if (pct.ok && pct.groups > 1) {
    std::snprintf(note, sizeof(note),
                  "(mean over %lld groups of p%g, each of n>=%lld, >=%lld "
                  "beyond)",
                  static_cast<long long>(pct.groups), pct.p,
                  static_cast<long long>(pct.samples),
                  static_cast<long long>(pct.beyond));
  } else if (pct.ok) {
    std::snprintf(note, sizeof(note), "(p%g of n=%lld, %lld beyond)", pct.p,
                  static_cast<long long>(pct.samples),
                  static_cast<long long>(pct.beyond));
  } else {
    std::snprintf(note, sizeof(note),
                  "(p%g unavailable: n=%lld leaves %lld beyond, needs %lld)",
                  pct.p, static_cast<long long>(pct.samples),
                  static_cast<long long>(pct.beyond),
                  static_cast<long long>(kMinBeyond));
  }
  Add(name, pct.value, unit, note);
}

void Report::AddRatio(const std::string& name, const Ratio& ratio) {
  char note[96];
  std::snprintf(note, sizeof(note), "(%.6g of base %.6g)", ratio.num,
                ratio.base);
  Add(name, ratio.value(), "ratio", note);
}

void Report::Attempt(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  // The first few mismatches are enough to debug; the count is in `failed`.
  if (++mismatches_reported_ <= 5) {
    std::printf("MISMATCH %s\n", what.c_str());
  }
}

std::string Report::ResultJson() const {
  ujoin::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct_);
  w.Key("attempted");
  w.Int(attempted_);
  w.Key("failed");
  w.Int(failed_);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics_) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Double(std::isfinite(m.value) ? m.value : 0.0);
    w.Key("unit");
    w.String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string SelfTest() {
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(static_cast<double>(i));
  std::reverse(ramp.begin(), ramp.end());  // order must not matter
  const Percentile p99 = ComputePercentile(ramp, 99);
  if (!p99.ok || p99.value != 990.0 || p99.beyond != 10 || p99.samples != 1000) {
    return "p99 of 1..1000 must be 990 with 10 of 1000 samples beyond";
  }
  const Percentile p50 = ComputePercentile(ramp, 50);
  if (!p50.ok || p50.value != 500.0 || p50.beyond != 500) {
    return "p50 of 1..1000 must be 500 with 500 beyond";
  }
  ramp.pop_back();
  if (ComputePercentile(ramp, 99).ok) {
    return "p99 of 999 samples leaves 9 beyond and must be unavailable";
  }
  const std::vector<double> twenty(20, 3.5);
  const Percentile p50_small = ComputePercentile(twenty, 50);
  if (!p50_small.ok || p50_small.value != 3.5 || p50_small.beyond != 10) {
    return "p50 of 20 samples must be available with 10 beyond";
  }
  if (ComputePercentile(std::vector<double>(19, 1.0), 50).ok ||
      ComputePercentile({}, 50).ok) {
    return "p50 of fewer than 20 samples must be unavailable";
  }
  if (ComputePercentile(std::vector<double>(200, 1.0), 95).beyond != 10) {
    return "p95 of 200 samples must leave 10 beyond";
  }
  std::vector<double> lower, upper;
  for (int i = 1; i <= 1000; ++i) {
    lower.push_back(static_cast<double>(i));
    upper.push_back(static_cast<double>(1000 + i));
  }
  const Percentile mean99 = MeanPercentile({lower, upper}, 99);
  if (!mean99.ok || mean99.value != 1490.0 || mean99.groups != 2 ||
      mean99.samples != 1000 || mean99.beyond != 10) {
    return "mean p99 of 1..1000 and 1001..2000 must be (990 + 1990) / 2";
  }
  lower.pop_back();
  const Percentile short99 = MeanPercentile({lower, upper}, 99);
  if (short99.ok || short99.value != 0.0 || short99.samples != 999) {
    return "mean p99 with a group of 999 samples must be unavailable";
  }
  if (Median({4.0, 1.0, 3.0}) != 3.0 || Median({4.0, 1.0, 3.0, 2.0}) != 2.5 ||
      Median({}) != 0.0) {
    return "median of {4,1,3} is 3, of {4,1,3,2} is 2.5, of {} is 0";
  }
  if (Ratio{3.0, 4.0}.value() != 0.75 || Ratio{3.0, 0.0}.value() != 0.0) {
    return "ratio 3/4 is 0.75 and a zero base gives 0";
  }
  return "";
}

}  // namespace perfbench
