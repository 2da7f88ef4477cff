// In-memory span tracer for the benchmark's traced run.
//
// Spans are recorded around the benchmark's own calls into libgus (no span
// lives inside the library). Each span keeps its name, start, end, parent
// span and query id; spans stay in memory until the run ends, then are
// written out and reduced to per-layer self times. A layer's self time is
// its span minus the part of that interval its child spans cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock reading in nanoseconds.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the tracer's list; -1 for a root.
  int64_t parent = -1;
  int64_t query = -1;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// \brief Records one span for the lifetime of the scope; a null tracer
  /// records nothing. The enclosing scope on the same thread is the parent.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t query);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
    int64_t saved_parent_ = -1;
  };

  /// Self time in ms of every span, grouped by span name.
  std::map<std::string, std::vector<double>> SelfMsByName() const;

  /// Writes every span as one JSON object per line; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
