// In-memory span recorder for the traced run. One span per call into a
// layer: name, start, end, parent span and request id. Spans are kept in
// memory while the run is timed and written out when it ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string_view name;  // a string literal
  std::uint64_t request = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Opens a span as a child of the innermost open span (a root if none).
  std::int32_t begin(std::string_view name, std::uint64_t request) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, request, parent, now_ns(), 0});
    open_.push_back(id);
    return id;
  }
  void end() {
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, std::uint64_t request) : t_(t) {
      t_.begin(name, request);
    }
    ~Scope() { t_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// For every request that has a root span named `root` (in order of the
/// root spans), the summed self time in ns of that request's spans whose
/// name is one of `names`.
std::vector<double> per_request_self_ns(
    const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
    std::string_view root, std::initializer_list<std::string_view> names);

/// Durations in ns of the spans named `name`.
std::vector<double> durations_ns(const std::vector<Span>& spans,
                                 std::string_view name);

/// For each root span named `root`: the share of its duration covered by
/// its children (1 - self / duration).
std::vector<double> child_coverage(const std::vector<Span>& spans,
                                   const std::vector<std::int64_t>& self,
                                   std::string_view root);

/// One CSV line per span: id,parent,request,name,start_ns,end_ns,self_ns.
void write_spans_csv(std::ostream& out, const std::vector<Span>& spans,
                     const std::vector<std::int64_t>& self);

}  // namespace perfbench
