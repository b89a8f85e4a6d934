#include "report.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

namespace {

void print_metric_json(const Metric& m, bool with_samples) {
  std::printf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"", m.name.c_str(),
              std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  if (with_samples) std::printf(", \"samples\": %zu", m.samples);
  std::printf("}");
}

void print_metrics_json(const std::vector<Metric>& ms, bool with_samples) {
  std::printf("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) std::printf(", ");
    print_metric_json(ms[i], with_samples);
  }
  std::printf("}");
}

}  // namespace

void Report::print() const {
  for (const Metric& m : info) {
    std::printf("  %-36s %16.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %16.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("operations attempted %llu failed %llu error_rate %.6g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0);
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("PERFBENCH-INFO ");
  print_metrics_json(info, true);
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_metrics_json(metrics, false);
  std::printf("}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
