// Span recorder, order statistics and metric tables.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include <sys/resource.h>

#include "common.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double windowed_quantile(const std::vector<double>& v, double q, std::size_t window) {
    if (window == 0 || v.size() < 2 * window) return quantile(v, q);
    std::vector<double> per_window;
    for (std::size_t b = 0; b + window <= v.size(); b += window)
        per_window.push_back(quantile({v.begin() + static_cast<std::ptrdiff_t>(b),
                                       v.begin() + static_cast<std::ptrdiff_t>(b + window)},
                                      q));
    return median(per_window);
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : items_)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    items_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
    for (const Metric& m : items_)
        if (m.name == name) return &m;
    return nullptr;
}

double Metrics::get(const std::string& name) const {
    const Metric* m = find(name);
    return m == nullptr ? 0 : m->value;
}

void Metrics::merge_missing(const Metrics& other) {
    for (const Metric& m : other.items_)
        if (find(m.name) == nullptr) items_.push_back(m);
}

double self_peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

namespace {

struct Span {
    std::uint32_t id;
    const char* name;
    std::uint64_t start_ns, end_ns;
    std::uint32_t parent;
    std::uint64_t corr;
    std::uint32_t tid;
};

struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint32_t> g_next_id{1};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers; ///< guarded by g_mu
thread_local Buffer* tl_buffer = nullptr;

Buffer& local_buffer() {
    if (tl_buffer == nullptr) {
        std::lock_guard lock(g_mu);
        g_buffers.push_back(std::make_unique<Buffer>());
        g_buffers.back()->tid = static_cast<std::uint32_t>(g_buffers.size());
        tl_buffer = g_buffers.back().get();
    }
    return *tl_buffer;
}

/// Every span of the run; call only after the recording threads ended.
std::vector<Span> all_spans() {
    std::lock_guard lock(g_mu);
    std::vector<Span> out;
    for (const auto& b : g_buffers) out.insert(out.end(), b->spans.begin(), b->spans.end());
    std::sort(out.begin(), out.end(),
              [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
    return out;
}

std::string layer_of(const char* name) {
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

} // namespace

void enable_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }
std::uint32_t reserve_span() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void record_span(std::uint32_t id, const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint32_t parent, std::uint64_t corr) {
    Buffer& b = local_buffer();
    b.spans.push_back({id, name, start_ns, end_ns, parent, corr, b.tid});
}

void summarize_spans(const char* root_name, std::uint32_t first_id, Metrics& out) {
    std::vector<Span> spans = all_spans();
    std::erase_if(spans, [&](const Span& s) { return s.id < first_id; });
    std::map<std::uint32_t, std::vector<const Span*>> children;
    for (const Span& s : spans)
        if (s.parent != 0) children[s.parent].push_back(&s);

    std::map<std::string, double> self_ns;
    double root_total = 0, root_uncovered = 0;
    for (const Span& s : spans) {
        // Union of the children's intervals, clipped to the parent (children
        // are start-sorted because `spans` is).
        std::uint64_t covered = 0, reach = s.start_ns;
        if (const auto it = children.find(s.id); it != children.end())
            for (const Span* c : it->second) {
                const std::uint64_t b = std::max(c->start_ns, reach);
                const std::uint64_t e = std::min(c->end_ns, s.end_ns);
                if (e > b) covered += e - b;
                reach = std::max(reach, e);
            }
        const double self = static_cast<double>(s.end_ns - s.start_ns - covered);
        self_ns[layer_of(s.name)] += self;
        if (std::string(s.name) == root_name) {
            root_total += static_cast<double>(s.end_ns - s.start_ns);
            root_uncovered += self;
        }
    }
    for (const auto& [layer, ns] : self_ns) out.set("trace.self_ms." + layer, ns / 1e6, "ms");
    out.set("trace.uncovered_share", root_total > 0 ? root_uncovered / root_total : 0, "share");
    out.set("trace.spans", static_cast<double>(spans.size()), "count");
}

bool write_chrome_trace(const std::string& path) {
    const std::vector<Span> spans = all_spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,\"corr\":%llu}}",
                     i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(), s.tid,
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                     static_cast<unsigned long long>(s.corr));
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
