#ifndef SBD_OBS_EXPORT_HPP
#define SBD_OBS_EXPORT_HPP

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sbd::obs {

/// Prometheus text exposition format (version 0.0.4): one `# HELP` /
/// `# TYPE` pair per metric name, histograms as cumulative `_bucket{le=}` /
/// `_sum` / `_count` series. Deterministic: samples come pre-sorted from
/// Snapshot.
std::string to_prometheus(const Snapshot& snap);

/// Machine-readable JSON dump: {"metrics": [{name, kind, labels, ...}]}.
std::string to_json(const Snapshot& snap);

/// Human-readable aligned table (histograms as count/sum/mean).
std::string to_table(const Snapshot& snap);

/// Chrome `about:tracing` / Perfetto JSON: {"traceEvents": [...]} with one
/// complete ("ph":"X") event per span, timestamps in microseconds.
std::string to_chrome_trace(const std::vector<SpanEvent>& events);

/// File helpers used by the tools. The metrics format is chosen by
/// extension: ".json" => JSON, ".txt"/".tbl" => table, else Prometheus text
/// (an explicit `format` of "prom"/"json"/"table" overrides). Traces are
/// always Chrome trace JSON. Return false (with a message on stderr) on I/O
/// failure.
bool write_metrics_file(const Snapshot& snap, const std::string& path,
                        const std::string& format = {});
bool write_trace_file(const std::vector<SpanEvent>& events, const std::string& path);

} // namespace sbd::obs

#endif
