#include "trace.h"

#include <cstdio>

namespace e2e {

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "text.tokenize",      "pipeline.match",     "simhash.fingerprint",
      "simhash.dedup",      "core.build",         "core.load",
      "pipeline.matcher_build", "stream.create",  "stream.subscribe",
      "stream.join",        "stream.unsubscribe", "stream.feed",
      "stream.finish",      "stream.derive",      "stream.checkpoint",
      "stream.restore",     "core.solve",         "core.solve_wait",
      "serve.parse",        "serve.format",
  };
  return kNames[layer];
}

bool Tracer::WriteJsonl(const std::string& path, double origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"busy_us\":%.3f,\"n\":%llu}\n",
                 s.id, s.parent, s.name, (s.start - origin) * 1e6,
                 (s.end - origin) * 1e6, s.busy * 1e6,
                 static_cast<unsigned long long>(s.n));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
