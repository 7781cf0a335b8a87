#include "obs/export.h"

#include <cmath>
#include <cstdio>

namespace trendspeed {
namespace obs {

namespace {

// Label sets arrive pre-formatted as `key="value",key="value"`. The 0.0.4
// exposition format requires backslash, double-quote, and newline escaped
// inside label values, but MetricDef authors write raw values — so rewrite
// just the quoted spans. A '"' followed by ',' or the end of the list
// closes a value; any other '"' belongs to it. Already-simple label sets
// (every committed catalog entry) pass through byte-identical, keeping the
// existing goldens stable.
std::string EscapeLabelValues(const std::string& labels) {
  std::string out;
  out.reserve(labels.size());
  bool in_value = false;
  for (size_t i = 0; i < labels.size(); ++i) {
    char c = labels[i];
    if (!in_value) {
      out.push_back(c);
      if (c == '"') in_value = true;
      continue;
    }
    if (c == '"' && (i + 1 == labels.size() || labels[i + 1] == ',')) {
      out.push_back('"');
      in_value = false;
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// HELP text: 0.0.4 requires '\\' and newline escaped (quotes are legal raw
// in HELP, unlike label values).
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// `name{labels}` or just `name`; extra ("le=...") is appended to the label
/// set when non-empty.
std::string Series(const std::string& name, const std::string& labels,
                   const std::string& extra = "") {
  std::string all = EscapeLabelValues(labels);
  if (!extra.empty()) {
    if (!all.empty()) all += ",";
    all += extra;
  }
  return all.empty() ? name : name + "{" + all + "}";
}

void AppendHeader(const MetricId& id, const char* type, std::string* out,
                  std::string* last_name) {
  if (id.name == *last_name) return;  // one HELP/TYPE per name
  *last_name = id.name;
  *out += "# HELP " + id.name + " " + EscapeHelp(id.help);
  if (!id.unit.empty() && id.unit != "1") *out += " (" + id.unit + ")";
  *out += "\n# TYPE " + id.name + " " + type + "\n";
}

}  // namespace

std::string FormatMetricValue(double v) {
  // %g renders non-finite doubles as "inf"/"-inf"/"nan", which the 0.0.4
  // exposition format does not accept; it wants "+Inf"/"-Inf"/"NaN".
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string ToPrometheusText(const RegistrySnapshot& snap) {
  std::string out;
  std::string last_name;
  for (const CounterSnapshot& c : snap.counters) {
    AppendHeader(c.id, "counter", &out, &last_name);
    out += Series(c.id.name, c.id.labels) + " " + std::to_string(c.value) +
           "\n";
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    AppendHeader(g.id, "gauge", &out, &last_name);
    out += Series(g.id.name, g.id.labels) + " " + FormatMetricValue(g.value) +
           "\n";
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    AppendHeader(h.id, "histogram", &out, &last_name);
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      std::string le = b < h.bounds.size() ? FormatMetricValue(h.bounds[b])
                                           : "+Inf";
      out += Series(h.id.name + "_bucket", h.id.labels, "le=\"" + le + "\"") +
             " " + std::to_string(cumulative) + "\n";
    }
    out += Series(h.id.name + "_sum", h.id.labels) + " " +
           FormatMetricValue(h.sum) + "\n";
    // 0.0.4 requires `_count` == `_bucket{le="+Inf"}`; derive it from the
    // cumulative total actually emitted above so the two lines can never
    // disagree, even for a snapshot whose count field was read mid-update.
    out += Series(h.id.name + "_count", h.id.labels) + " " +
           std::to_string(cumulative) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace trendspeed
