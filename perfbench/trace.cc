#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/// The innermost open span of this thread (-1: none).
thread_local int64_t tls_open_span = -1;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t query)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_parent_ = tls_open_span;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, NowNs(), 0, saved_parent_, query});
  tls_open_span = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const int64_t end = NowNs();
  tls_open_span = saved_parent_;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_[index_].end_ns = end;
}

std::map<std::string, std::vector<double>> Tracer::SelfMsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the child intervals.
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    for (const auto& [start, end] : kids) {
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    const int64_t self = spans_[i].end_ns - spans_[i].start_ns - covered;
    out[spans_[i].name].push_back(static_cast<double>(self) / 1e6);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"query\": %lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
