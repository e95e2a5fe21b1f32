// Spans the benchmark records around its calls into each layer, kept in
// memory and written out once as chrome://tracing JSON ("X" events whose
// args carry the span id, its parent's id, and the replay batch id).

#ifndef MCBENCH_TRACE_H_
#define MCBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mcbench {

class Tracer {
 public:
  /// Opens a span starting now under `parent` (0 = none); returns its id.
  uint32_t Begin(const char* name, uint32_t parent, int64_t batch = -1);
  void End(uint32_t id);
  /// Records a finished span; returns its id.
  uint32_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent, int64_t batch = -1);

  /// Writes the chrome-trace JSON; false if the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;  // A string literal.
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;
    int64_t batch;
  };
  std::vector<Span> spans_;  // Span id = index + 1.
};

}  // namespace mcbench

#endif  // MCBENCH_TRACE_H_
