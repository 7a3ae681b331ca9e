#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace sbd::obs {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
        if (c == '\\') out += "\\\\";
        else if (c == '"') out += "\\\"";
        else if (c == '\n') out += "\\n";
        else out += c;
    }
    return out;
}

/// JSON string escaping (control chars, quote, backslash).
std::string escape_json(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string label_block(const Labels& labels, const char* extra_key = nullptr,
                        const std::string& extra_val = {}) {
    if (labels.empty() && extra_key == nullptr) return {};
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) out += ',';
        first = false;
        out += k + "=\"" + escape_label(v) + "\"";
    }
    if (extra_key != nullptr) {
        if (!first) out += ',';
        out += std::string(extra_key) + "=\"" + extra_val + "\"";
    }
    out += '}';
    return out;
}

std::string u64s(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

std::string i64s(std::int64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    return buf;
}

} // namespace

std::string to_prometheus(const Snapshot& snap) {
    std::string out;
    std::string prev_name;
    for (const Sample& s : snap.samples) {
        if (s.name != prev_name) {
            prev_name = s.name;
            if (!s.help.empty()) out += "# HELP " + s.name + " " + s.help + "\n";
            out += "# TYPE " + s.name + " " + to_string(s.kind) + "\n";
        }
        switch (s.kind) {
        case MetricKind::Counter:
            out += s.name + label_block(s.labels) + " " + u64s(s.value) + "\n";
            break;
        case MetricKind::Gauge:
            out += s.name + label_block(s.labels) + " " + i64s(s.gauge) + "\n";
            break;
        case MetricKind::Histogram: {
            std::uint64_t cum = 0;
            for (std::size_t b = 0; b < s.buckets.size(); ++b) {
                cum += s.buckets[b];
                const std::string le =
                    b < s.bounds.size() ? u64s(s.bounds[b]) : std::string("+Inf");
                out += s.name + "_bucket" + label_block(s.labels, "le", le) + " " +
                       u64s(cum) + "\n";
            }
            out += s.name + "_sum" + label_block(s.labels) + " " + u64s(s.sum) + "\n";
            out += s.name + "_count" + label_block(s.labels) + " " + u64s(s.value) + "\n";
            break;
        }
        }
    }
    return out;
}

std::string to_json(const Snapshot& snap) {
    std::string out = "{\"metrics\": [";
    for (std::size_t i = 0; i < snap.samples.size(); ++i) {
        const Sample& s = snap.samples[i];
        if (i > 0) out += ',';
        out += "\n  {\"name\": \"";
        out += escape_json(s.name);
        out += "\", \"kind\": \"";
        out += to_string(s.kind);
        out += "\", \"labels\": {";
        for (std::size_t l = 0; l < s.labels.size(); ++l) {
            if (l > 0) out += ", ";
            out += "\"";
            out += escape_json(s.labels[l].first);
            out += "\": \"";
            out += escape_json(s.labels[l].second);
            out += "\"";
        }
        out += "}";
        switch (s.kind) {
        case MetricKind::Counter: out += ", \"value\": " + u64s(s.value); break;
        case MetricKind::Gauge: out += ", \"value\": " + i64s(s.gauge); break;
        case MetricKind::Histogram: {
            out += ", \"count\": " + u64s(s.value) + ", \"sum\": " + u64s(s.sum) +
                   ", \"buckets\": [";
            for (std::size_t b = 0; b < s.buckets.size(); ++b) {
                if (b > 0) out += ", ";
                out += "{\"le\": \"";
                out += b < s.bounds.size() ? u64s(s.bounds[b]) : std::string("+Inf");
                out += "\", \"count\": " + u64s(s.buckets[b]) + "}";
            }
            out += "]";
            break;
        }
        }
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

std::string to_table(const Snapshot& snap) {
    std::string out;
    char line[512];
    std::snprintf(line, sizeof(line), "%-44s | %-9s | %s\n", "metric", "kind", "value");
    out += line;
    out += std::string(80, '-') + "\n";
    for (const Sample& s : snap.samples) {
        const std::string name = s.name + label_block(s.labels);
        std::string value;
        switch (s.kind) {
        case MetricKind::Counter: value = u64s(s.value); break;
        case MetricKind::Gauge: value = i64s(s.gauge); break;
        case MetricKind::Histogram: {
            const double mean =
                s.value == 0 ? 0.0
                             : static_cast<double>(s.sum) / static_cast<double>(s.value);
            char buf[96];
            std::snprintf(buf, sizeof(buf), "count=%" PRIu64 " sum=%" PRIu64 " mean=%.1f",
                          s.value, s.sum, mean);
            value = buf;
            break;
        }
        }
        std::snprintf(line, sizeof(line), "%-44s | %-9s | %s\n", name.c_str(),
                      to_string(s.kind), value.c_str());
        out += line;
    }
    return out;
}

std::string to_chrome_trace(const std::vector<SpanEvent>& events) {
    // Complete ("X") events; ts/dur in microseconds as required by the
    // Trace Event Format. pid is fixed (one process), tid is the dense
    // per-collector thread index.
    std::string out = "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const SpanEvent& e = events[i];
        if (i > 0) out += ',';
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                      escape_json(e.name).c_str(), escape_json(e.cat).c_str(),
                      static_cast<double>(e.start_ns) / 1000.0,
                      static_cast<double>(e.dur_ns) / 1000.0, e.tid);
        out += buf;
        out += ", \"args\": {\"depth\": " + u64s(e.depth);
        if (!e.detail.empty()) out += ", \"detail\": \"" + escape_json(e.detail) + "\"";
        out += "}}";
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

namespace {

bool write_all(const std::string& path, const char* data, std::size_t size) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return false;
    }
    f.write(data, static_cast<std::streamsize>(size));
    if (!f) {
        std::fprintf(stderr, "short write to '%s'\n", path.c_str());
        return false;
    }
    return true;
}

bool ends_with(const std::string& s, const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

} // namespace

bool write_metrics_file(const Snapshot& snap, const std::string& path,
                        const std::string& format) {
    std::string fmt = format;
    if (fmt.empty()) {
        if (ends_with(path, ".json")) fmt = "json";
        else if (ends_with(path, ".txt") || ends_with(path, ".tbl")) fmt = "table";
        else fmt = "prom";
    }
    std::string body;
    if (fmt == "json") body = to_json(snap);
    else if (fmt == "table") body = to_table(snap);
    else if (fmt == "prom") body = to_prometheus(snap);
    else {
        std::fprintf(stderr, "unknown metrics format '%s'\n", fmt.c_str());
        return false;
    }
    return write_all(path, body.data(), body.size());
}

bool write_trace_file(const std::vector<SpanEvent>& events, const std::string& path) {
    const std::string body = to_chrome_trace(events);
    return write_all(path, body.data(), body.size());
}

} // namespace sbd::obs
