#include "obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

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

void AppendThreadMeta(std::string* out, uint32_t tid, const std::string& name,
                      bool* first) {
  if (!*first) out->append(",\n");
  *first = false;
  out->append("{\"ph\":\"M\",\"pid\":1,\"tid\":");
  out->append(std::to_string(tid));
  out->append(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
  AppendEscaped(out, name.c_str());
  out->append("\"}}");
}

void CloseTrace(std::string* out, bool empty) {
  out->append(empty ? "]}" : "\n]}");
}

constexpr const char kHeader[] = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

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

  std::string out = kHeader;
  bool first = true;
  if (!sorted.empty() || !meta.empty()) out.append("\n");
  for (const auto& t : meta) AppendThreadMeta(&out, t.first, t.second, &first);
  for (const FlightEvent& e : sorted) {
    if (!first) out.append(",\n");
    first = false;
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
    out.append(",\"seq\":");
    out.append(std::to_string(e.path_seq));
    out.append("}}");
  }
  CloseTrace(&out, first);
  return out;
}

std::string ToChromeTraceJson(const FlightRecorder& recorder) {
  return ToChromeTraceJson(recorder.Collect(), recorder.ThreadLabels());
}

std::string ToChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::vector<TraceEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              return a.seq < b.seq;
            });
  std::set<uint32_t> tids;
  for (const TraceEvent& e : sorted) tids.insert(e.thread_id);
  uint64_t base_ns = sorted.empty() ? 0 : sorted.front().start_ns;

  std::string out = kHeader;
  bool first = true;
  if (!sorted.empty()) out.append("\n");
  for (uint32_t tid : tids) {
    AppendThreadMeta(&out, tid, "thread-" + std::to_string(tid), &first);
  }
  for (const TraceEvent& e : sorted) {
    if (!first) out.append(",\n");
    first = false;
    out.append("{\"ph\":\"X\",\"pid\":1,\"tid\":");
    out.append(std::to_string(e.thread_id));
    out.append(",\"cat\":\"span\",\"name\":\"");
    AppendEscaped(&out, e.name);
    out.append("\",\"ts\":");
    AppendMicros(&out, e.start_ns, base_ns);
    out.append(",\"dur\":");
    AppendMicros(&out, e.duration_ns, 0);
    out.append(",\"args\":{\"depth\":");
    out.append(std::to_string(e.depth));
    out.append(",\"span\":");
    out.append(std::to_string(e.span_id));
    out.append(",\"parent\":");
    out.append(std::to_string(e.parent_id));
    out.append(",\"seq\":");
    out.append(std::to_string(e.seq));
    out.append("}}");
  }
  CloseTrace(&out, first);
  return out;
}

std::string ToChromeTraceJson(const TraceRecorder& recorder) {
  return ToChromeTraceJson(recorder.Events());
}

}  // namespace obs
}  // namespace trendspeed
