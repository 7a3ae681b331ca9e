// Shared pieces of the benchmark harness: clocks, order statistics, the metric
// tables a workload fills, and the span recorder used by traced runs.
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
}

/// Linear-interpolated quantile of unsorted samples (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// p-quantile computed per consecutive window of `window` samples, then the
/// median over windows — steadier than one global tail when a run is long
/// enough to hold several windows; falls back to the global quantile.
double windowed_quantile(const std::vector<double>& v, double q, std::size_t window);

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Insertion-ordered metric table.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    /// nullptr when absent.
    const Metric* find(const std::string& name) const;
    /// 0 when absent.
    double get(const std::string& name) const;
    /// Copies every metric of `other` this table does not have yet.
    void merge_missing(const Metrics& other);
    const std::vector<Metric>& items() const { return items_; }

private:
    std::vector<Metric> items_;
};

struct RunOptions {
    std::uint64_t seed = 1;
    double seconds = 10;     ///< measured time of the workload's timed phases
    bool traced = false;     ///< record spans (per-layer run)
    bool probe = false;      ///< short run that only fills missing layer metrics
    std::string work_dir;    ///< scratch space inside the checkout
    std::string serve_bin;   ///< the sbd-serve daemon to spawn
};

/// What one workload run produced.
struct Outcome {
    Metrics e2e;                  ///< the end-to-end metrics of BENCHMARK.json
    Metrics named;                ///< end-to-end metrics under their row names
    Metrics layer;                ///< per-layer metrics (traced runs)
    std::uint64_t attempted = 0;  ///< operations the workload issued
    std::uint64_t failed = 0;     ///< coded rejections + transport errors among them
    std::vector<std::string> gate_failures; ///< failed correctness gates
};

// ---- span recorder (spans.cpp) --------------------------------------------

/// Turns recording on for the rest of the process (traced runs only).
void enable_tracing(bool on);
bool tracing();
/// Reserves a span id so children can name their parent before it ends.
std::uint32_t reserve_span();
/// Records a finished span. `corr` correlates the spans of one served tick,
/// compile or engine tick; 0 = none.
void record_span(std::uint32_t id, const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint32_t parent, std::uint64_t corr);
inline std::uint32_t span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                          std::uint32_t parent = 0, std::uint64_t corr = 0) {
    const std::uint32_t id = reserve_span();
    record_span(id, name, start_ns, end_ns, parent, corr);
    return id;
}

/// RAII span around a call into one layer; a no-op unless tracing().
class Scope {
public:
    Scope(const char* name, std::uint32_t parent = 0, std::uint64_t corr = 0)
        : name_(name), parent_(parent), corr_(corr) {
        if (tracing()) {
            id_ = reserve_span();
            start_ = now_ns();
        }
    }
    ~Scope() {
        if (id_ != 0) record_span(id_, name_, start_, now_ns(), parent_, corr_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const { return id_; }

private:
    const char* name_;
    std::uint32_t parent_;
    std::uint64_t corr_;
    std::uint32_t id_ = 0;
    std::uint64_t start_ = 0;
};

/// Per-layer self time (span duration minus the part its children cover),
/// keyed by the span name's prefix before the first '.', plus the share of
/// `root_name` spans not covered by any child, over the spans whose id is at
/// least `first_id`. Adds them to `out` as trace.self_ms.<layer>,
/// trace.uncovered_share and trace.spans.
void summarize_spans(const char* root_name, std::uint32_t first_id, Metrics& out);
/// Writes every recorded span as Chrome trace-event JSON; false on I/O error.
bool write_chrome_trace(const std::string& path);

// ---- workloads --------------------------------------------------------------

Outcome run_serve_native(const RunOptions& o);
Outcome run_serve_journal(const RunOptions& o);
Outcome run_fleet_interp(const RunOptions& o);
Outcome run_compile_deep(const RunOptions& o);

/// Peak resident set of this process, MB.
double self_peak_rss_mb();

} // namespace perfbench

#endif
