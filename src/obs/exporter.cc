#include "obs/exporter.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "util/string_util.h"

namespace mqd::obs {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Integral values print without a decimal point ("3", not "3.0");
/// everything else gets enough digits to round-trip a metric reading.
std::string JsonNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.007199254740992e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  if (!std::isfinite(value)) return "0";  // JSON has no Inf/NaN.
  return StrFormat("%.9g", value);
}

std::string JsonLabels(const LabelSet& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += JsonEscape(labels[i].first);
    out += "\":\"";
    out += JsonEscape(labels[i].second);
    out += '"';
  }
  out += "}";
  return out;
}

/// `{label="v",...}` or "" when unlabeled; `extra` appends one more
/// pair (used for `le`).
std::string PromLabels(const LabelSet& labels, std::string_view extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  if (!extra.empty()) {
    if (!labels.empty()) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"metrics\": [\n";
  for (size_t i = 0; i < snapshot.samples.size(); ++i) {
    const MetricSample& s = snapshot.samples[i];
    out += "  {\"name\": \"" + JsonEscape(s.name) + "\", \"type\": \"" +
           std::string(MetricTypeName(s.type)) + "\", \"labels\": " +
           JsonLabels(s.labels);
    switch (s.type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        out += ", \"value\": " + JsonNumber(s.value);
        break;
      case MetricType::kHistogram: {
        const double mean =
            s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count);
        out += ", \"count\": " + JsonNumber(static_cast<double>(s.count));
        out += ", \"sum\": " + JsonNumber(s.sum);
        out += ", \"min\": " + JsonNumber(s.min);
        out += ", \"max\": " + JsonNumber(s.max);
        out += ", \"mean\": " + JsonNumber(mean);
        out += ", \"buckets\": {\"lo\": " + JsonNumber(s.bucket_lo) +
               ", \"hi\": " + JsonNumber(s.bucket_hi) + ", \"counts\": [";
        for (size_t b = 0; b < s.bucket_counts.size(); ++b) {
          if (b > 0) out += ",";
          out += JsonNumber(static_cast<double>(s.bucket_counts[b]));
        }
        out += "]}";
        break;
      }
    }
    out += "}";
    if (i + 1 < snapshot.samples.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_typed_name;
  for (const MetricSample& s : snapshot.samples) {
    if (s.name != last_typed_name) {
      out += "# TYPE " + s.name + " " + std::string(MetricTypeName(s.type)) +
             "\n";
      last_typed_name = s.name;
    }
    switch (s.type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        out += s.name + PromLabels(s.labels) + " " + JsonNumber(s.value) +
               "\n";
        break;
      case MetricType::kHistogram: {
        // Cumulative buckets. The final bucket of the LinearBuckets
        // scheme saturates, so its true upper bound is +Inf.
        const size_t n = s.bucket_counts.size();
        const double width =
            n == 0 ? 0.0
                   : (s.bucket_hi - s.bucket_lo) / static_cast<double>(n);
        uint64_t cumulative = 0;
        for (size_t b = 0; b + 1 < n; ++b) {
          cumulative += s.bucket_counts[b];
          const double le =
              s.bucket_lo + static_cast<double>(b + 1) * width;
          out += s.name + "_bucket" +
                 PromLabels(s.labels,
                            "le=\"" + FormatDouble(le, 6) + "\"") +
                 " " + StrFormat("%llu",
                                 static_cast<unsigned long long>(
                                     cumulative)) +
                 "\n";
        }
        out += s.name + "_bucket" + PromLabels(s.labels, "le=\"+Inf\"") +
               " " +
               StrFormat("%llu", static_cast<unsigned long long>(s.count)) +
               "\n";
        out += s.name + "_sum" + PromLabels(s.labels) + " " +
               JsonNumber(s.sum) + "\n";
        out += s.name + "_count" + PromLabels(s.labels) + " " +
               StrFormat("%llu", static_cast<unsigned long long>(s.count)) +
               "\n";
        break;
      }
    }
  }
  return out;
}

Status WriteJsonFile(const MetricsSnapshot& snapshot, std::string_view path) {
  const std::string text = ToJson(snapshot);
  if (path == "-") {
    std::cout << text;
    return Status::OK();
  }
  std::ofstream file((std::string(path)));
  if (!file) {
    return Status::InvalidArgument("cannot open metrics file '" +
                                   std::string(path) + "' for writing");
  }
  file << text;
  file.close();
  if (!file) {
    return Status::Internal("failed writing metrics file '" +
                            std::string(path) + "'");
  }
  return Status::OK();
}

std::string TraceEventsToText(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) {
    out += StrFormat("[t%llu] %*s%s %s+%s\n",
                     static_cast<unsigned long long>(e.thread_id),
                     e.depth * 2, "", e.name.c_str(),
                     FormatDouble(e.start_seconds, 6).c_str(),
                     FormatDouble(e.duration_seconds, 6).c_str());
  }
  return out;
}

}  // namespace mqd::obs
