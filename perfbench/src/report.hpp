// Sample statistics and the result line the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100]; 0 if empty.
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// Process peak resident set size in MB (getrusage).
double peak_rss_mb();
/// Heap bytes currently allocated (mallinfo2).
double heap_mb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;  // printed in the result line
  std::vector<Metric> info;     // printed for people and the steadiness runner

  void fail(const std::string& what) {
    ++failed;
    correct = false;
    if (failures.size() < 20) failures.push_back(what);
  }

  /// Human-readable lines, then `PERFBENCH-INFO <json>`, then the result
  /// line (last line of standard output).
  void print() const;
};

}  // namespace perfbench
