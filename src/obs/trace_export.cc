#include "obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace trendspeed {
namespace obs {

namespace {

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

/// Microseconds as %.3f, rebased to `base_ns`.
void AppendMicros(std::string* out, uint64_t ns, uint64_t base_ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns - base_ns) / 1000.0);
  out->append(buf);
}

}  // namespace

std::string ToChromeTraceJson(
    const std::vector<FlightEvent>& events,
    const std::vector<std::pair<uint32_t, std::string>>& threads) {
  std::vector<FlightEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              return a.index < b.index;
            });
  std::vector<std::pair<uint32_t, std::string>> meta = threads;
  std::sort(meta.begin(), meta.end());
  uint64_t base_ns = sorted.empty() ? 0 : sorted.front().start_ns;

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* sep = "\n";
  for (const auto& [tid, label] : meta) {
    out.append(sep);
    sep = ",\n";
    out.append("{\"ph\":\"M\",\"pid\":1,\"tid\":");
    out.append(std::to_string(tid));
    out.append(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    AppendEscaped(&out, label.c_str());
    out.append("\"}}");
  }
  for (const FlightEvent& e : sorted) {
    out.append(sep);
    sep = ",\n";
    out.append("{\"ph\":\"X\",\"pid\":1,\"tid\":");
    out.append(std::to_string(e.thread_id));
    out.append(",\"cat\":\"flight\",\"name\":\"");
    out.append(FlightStageName(e.stage));
    out.append("\",\"ts\":");
    AppendMicros(&out, e.start_ns, base_ns);
    out.append(",\"dur\":");
    AppendMicros(&out, e.duration_ns, 0);
    out.append(",\"args\":{\"slot\":");
    out.append(std::to_string(e.slot));
    out.append("}}");
  }
  out.append(sorted.empty() && meta.empty() ? "]}" : "\n]}");
  return out;
}

std::string ToChromeTraceJson(const FlightRecorder& recorder) {
  return ToChromeTraceJson(recorder.Collect(), recorder.ThreadLabels());
}

}  // namespace obs
}  // namespace trendspeed
