#include "trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::vector<double> per_request_self_ns(
    const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
    std::string_view root, std::initializer_list<std::string_view> names) {
  std::unordered_map<std::uint64_t, std::size_t> slot;
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.parent < 0 && s.name == root) {
      slot.emplace(s.request, out.size());
      out.push_back(0);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::find(names.begin(), names.end(), spans[i].name) == names.end()) {
      continue;
    }
    const auto it = slot.find(spans[i].request);
    if (it != slot.end()) out[it->second] += static_cast<double>(self[i]);
  }
  return out;
}

std::vector<double> durations_ns(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> child_coverage(const std::vector<Span>& spans,
                                   const std::vector<std::int64_t>& self,
                                   std::string_view root) {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 || s.name != root || s.end_ns <= s.start_ns) continue;
    out.push_back(1.0 - static_cast<double>(self[i]) /
                            static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void write_spans_csv(std::ostream& out, const std::vector<Span>& spans,
                     const std::vector<std::int64_t>& self) {
  out << "id,parent,request,name,start_ns,end_ns,self_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << ',' << self[i] << '\n';
  }
}

}  // namespace perfbench
