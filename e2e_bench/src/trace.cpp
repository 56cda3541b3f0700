#include "trace.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace e2e {

namespace {

double between(Tracer::Clock::time_point a, Tracer::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int Tracer::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, Clock::now(), {}});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    std::fprintf(stderr, "trace: span %d closed out of order\n", id);
    std::abort();
  }
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  stack_.pop_back();
}

double Tracer::seconds(int id) const {
  const auto& span = spans_[static_cast<std::size_t>(id)];
  return between(span.start, span.end);
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = seconds(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<std::size_t>(parent)] -= seconds(static_cast<int>(i));
    }
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds_by_name() const {
  const auto self = self_seconds();
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

std::map<std::string, std::size_t> Tracer::count_by_name() const {
  std::map<std::string, std::size_t> counts;
  for (const auto& span : spans_) ++counts[span.name];
  return counts;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) total += seconds(static_cast<int>(i));
  }
  return total;
}

std::string Tracer::check(double rel_tol) const {
  if (!stack_.empty()) return "a span is still open";
  // Spans are recorded in open order, so a parent's children appear in
  // time order; each must start after the previous sibling ended.
  std::vector<Clock::time_point> last_child_end(spans_.size());
  double roots = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    last_child_end[i] = span.start;
    if (span.end < span.start) return std::string(span.name) + " ends early";
    if (span.parent < 0) {
      roots += seconds(static_cast<int>(i));
      continue;
    }
    const auto p = static_cast<std::size_t>(span.parent);
    if (span.start < spans_[p].start || span.end > spans_[p].end) {
      return std::string(span.name) + " lies outside " + spans_[p].name;
    }
    if (span.start < last_child_end[p]) {
      return std::string(span.name) + " overlaps a sibling";
    }
    last_child_end[p] = span.end;
  }
  double self_total = 0.0;
  for (const double s : self_seconds()) self_total += s;
  if (std::abs(self_total - roots) > rel_tol * std::max(roots, 1e-9)) {
    return "self times sum to " + std::to_string(self_total) +
           " s, wall time is " + std::to_string(roots) + " s";
  }
  return {};
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto origin = spans_.empty() ? Clock::time_point{} : spans_[0].start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    // Category: the layer's module, the span name up to its first dot.
    const std::string name = span.name;
    const std::string category = name.substr(0, name.find('.'));
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}\n",
                 i == 0 ? "" : ",", span.name, category.c_str(), us(span.start),
                 us(span.end) - us(span.start), i, span.parent);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace e2e
