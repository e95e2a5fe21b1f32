#include "benchmark/trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/obs/timing.h"

namespace mcbench {

uint32_t Tracer::Begin(const char* name, uint32_t parent, int64_t batch) {
  const uint64_t now = mccuckoo::NowNs();
  return Add(name, now, now, parent, batch);
}

void Tracer::End(uint32_t id) { spans_[id - 1].end_ns = mccuckoo::NowNs(); }

uint32_t Tracer::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                     uint32_t parent, int64_t batch) {
  spans_.push_back({name, start_ns, end_ns, parent, batch});
  return static_cast<uint32_t>(spans_.size());
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans_) t0 = s.start_ns < t0 ? s.start_ns : t0;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRIu32 ",\"batch\":%" PRId64 "}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                 s.parent, s.batch);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace mcbench
