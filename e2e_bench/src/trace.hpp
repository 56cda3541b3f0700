// In-memory span recorder for the benchmark's traced run. Spans nest by
// scope (one thread), are kept in memory while the run lasts, and are
// written out once at the end in Chrome trace-event form, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;
    int parent;  ///< index of the enclosing span, -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Opens a span as a child of the innermost open span; returns its index.
  int open(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);

  /// RAII span: open on construction, close on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double seconds(int id) const;
  /// Span duration minus the part its child spans cover.
  [[nodiscard]] std::vector<double> self_seconds() const;
  /// Self time summed per span name, and the number of spans per name.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_name() const;
  [[nodiscard]] std::map<std::string, std::size_t> count_by_name() const;
  /// Total duration of every span called `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// Checks the span tree: every span closed, every child inside its
  /// parent, siblings disjoint, and self times summing to the root spans'
  /// wall time within `rel_tol`. Returns an empty string when it holds,
  /// else what failed.
  [[nodiscard]] std::string check(double rel_tol) const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span).
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace e2e
