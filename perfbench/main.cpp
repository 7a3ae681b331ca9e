// Benchmark harness: runs one workload (or all of them), prints the end-to-end
// metrics under their row names as one table row per workload, and ends with one JSON line
// holding the BENCHMARK.json metrics: the end-to-end ones untraced, the
// per-layer ones with --trace 1. Exits 1 when a correctness gate fails.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include <sched.h>
#include <unistd.h>

#include "common.hpp"
#include "native/native.hpp"

namespace perfbench {
namespace {

struct Workload {
    const char* name;
    Outcome (*run)(const RunOptions&);
};

const Workload kWorkloads[] = {
    {"serve_native", run_serve_native},
    {"serve_journal", run_serve_journal},
    {"fleet_interp", run_fleet_interp},
    {"compile_deep", run_compile_deep},
};

/// The end-to-end metrics of BENCHMARK.json: the ones that stay steady
/// from run to run on every workload. The workloads' tails and rates swing
/// with the host on served workloads, so they are per-layer metrics
/// (bench.op_p99_us, bench.rate_per_s) without a bound.
const char* const kEndToEnd[] = {"setup_s", "op_p50_us", "peak_rss_mb"};

/// The per-layer metrics of BENCHMARK.json, in print order.
const char* const kPerLayer[] = {
    "bench.op_p99_us", "bench.rate_per_s",
    "sbd.parse_ms",
    "core.fingerprint_ms", "core.sdg_ms", "core.cluster_ms", "core.codegen_ms",
    "core.macro_compiles", "core.cache_hit_rate",
    "sat.iterations", "sat.conflicts", "sat.propagations", "sat.clauses",
    "compile.dynamic_s", "compile.sat_s",
    "codegen.generated_lines", "codegen.interface_functions", "codegen.replicated_nodes",
    "exec.step_ns",
    "runtime.tick_us", "runtime.sched_share",
    "native.build_ms", "native.tu_bytes", "native.so_bytes", "native.step_ns",
    "serve.post_rtt_us", "serve.tick_rtt_us", "serve.read_rtt_us", "serve.server_request_us",
    "serve.server_tick_us", "serve.outside_server_share",
    "durable.fsync_us", "durable.checkpoint_ms", "durable.checkpoints",
    "durable.journal_bytes_per_tick",
    "loadgen.open_p50_us", "loadgen.open_p99_us", "loadgen.lag_p99_us", "loadgen.sent",
    "loadgen.failed", "error_share",
    "trace.self_ms.bench", "trace.self_ms.loadgen", "trace.self_ms.sbd", "trace.self_ms.core",
    "trace.self_ms.exec", "trace.self_ms.native", "trace.self_ms.runtime", "trace.self_ms.serve",
    "trace.uncovered_share", "trace.spans",
    "trace.overhead_op_p50_us", "trace.overhead_op_p99_us", "trace.overhead_rate_share",
};

/// For layers a workload does not exercise, the workload whose short traced
/// probe measures them, keyed by a metric only that probe provides.
const std::pair<const char*, const char*> kProbes[] = {
    {"runtime.tick_us", "fleet_interp"},
    {"native.step_ns", "serve_native"},
    {"durable.checkpoints", "serve_journal"},
};

const Workload* find(const std::string& name) {
    for (const Workload& w : kWorkloads)
        if (name == w.name) return &w;
    return nullptr;
}

std::string first_line_of(const char* cmd) {
    std::string out;
    if (std::FILE* p = ::popen(cmd, "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p) != nullptr) out = buf;
        ::pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
    return out;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

void print_machine() {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int allowed = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
    std::printf("machine: nproc=%ld allowed_cpus=%d pinned=no build=%s cxx=\"%s\"\n",
                sysconf(_SC_NPROCESSORS_ONLN), allowed, PERFBENCH_BUILD_TYPE,
                first_line_of(PERFBENCH_CXX " --version 2>/dev/null").c_str());
}

void print_row(const char* workload, const Outcome& out) {
    std::printf("row %-13s", workload);
    for (const Metric& m : out.named.items())
        std::printf("  %s=%.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("  error_share=%.6g share\n",
                out.attempted == 0 ? 0.0
                                   : static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted));
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_native|serve_journal|fleet_interp|"
                 "compile_deep|all --seed N --seconds S --trace 0|1 --work-dir D "
                 "--serve-bin PATH [--trace-out FILE]\n");
    return 2;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    std::string workload = "all", trace_out;
    RunOptions o;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") workload = v;
        else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace") traced = v == "1";
        else if (k == "--work-dir") o.work_dir = v;
        else if (k == "--serve-bin") o.serve_bin = v;
        else if (k == "--trace-out") trace_out = v;
        else return usage();
    }
    if (argc % 2 == 0 || o.work_dir.empty() || o.serve_bin.empty() || o.seconds <= 0 ||
        (workload != "all" && find(workload) == nullptr))
        return usage();
    std::filesystem::create_directories(o.work_dir);
    sbd::native::install();
    print_machine();
    std::printf("seed=%llu seconds=%g trace=%d\n", static_cast<unsigned long long>(o.seed),
                o.seconds, traced ? 1 : 0);

    std::vector<const Workload*> selected;
    if (workload == "all")
        for (const Workload& w : kWorkloads) selected.push_back(&w);
    else
        selected.push_back(find(workload));

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    Metrics result;
    try {
        for (const Workload* w : selected) {
            const std::string prefix = selected.size() > 1 ? std::string(w->name) + "." : "";
            const auto publish = [&](const Metrics& from, const auto& names) {
                for (const char* name : names) {
                    const Metric* m = from.find(name);
                    if (m == nullptr)
                        throw std::runtime_error(std::string("metric missing: ") + name);
                    result.set(prefix + name, m->value, m->unit);
                }
            };
            Outcome out;
            if (!traced) {
                out = w->run(o);
                publish(out.e2e, kEndToEnd);
            } else {
                // Untraced and traced halves of the same run; the difference
                // of their end-to-end metrics is the tracing overhead.
                RunOptions half = o;
                half.seconds = o.seconds / 2;
                const Outcome base = w->run(half);
                const std::uint32_t first_span = reserve_span();
                enable_tracing(true);
                half.traced = true;
                out = w->run(half);
                const auto diff = [&](const char* m) { return out.e2e.get(m) - base.e2e.get(m); };
                const double base_rate = base.e2e.get("rate_per_s");
                out.layer.set("error_share",
                              out.attempted == 0 ? 0
                                                 : static_cast<double>(out.failed) /
                                                       static_cast<double>(out.attempted),
                              "share");
                out.layer.set("bench.op_p99_us", out.e2e.get("op_p99_us"), "us");
                out.layer.set("bench.rate_per_s", out.e2e.get("rate_per_s"), "1/s");
                out.layer.set("trace.overhead_op_p50_us", diff("op_p50_us"), "us");
                out.layer.set("trace.overhead_op_p99_us", diff("op_p99_us"), "us");
                out.layer.set("trace.overhead_rate_share",
                              base_rate > 0 ? diff("rate_per_s") / base_rate : 0, "share");
                for (const auto& [key, probe] : kProbes) {
                    if (out.layer.find(key) != nullptr) continue;
                    RunOptions p = half;
                    p.probe = true;
                    const Outcome po = find(probe)->run(p);
                    std::printf("probe %s: measures the layers %s does not reach\n", probe,
                                w->name);
                    out.layer.merge_missing(po.layer);
                    out.gate_failures.insert(out.gate_failures.end(), po.gate_failures.begin(),
                                             po.gate_failures.end());
                }
                summarize_spans("bench.served_tick", first_span, out.layer);
                enable_tracing(false);
                publish(out.layer, kPerLayer);
            }
            print_row(w->name, out);
            if (traced)
                for (const Metric& m : out.layer.items())
                    std::printf("layer %-13s %-32s %.6g %s\n", w->name, m.name.c_str(), m.value,
                                m.unit.c_str());
            for (const std::string& g : out.gate_failures)
                std::printf("GATE FAILED (%s): %s\n", w->name, g.c_str());
            correct = correct && out.gate_failures.empty();
            attempted += out.attempted;
            failed += out.failed;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (traced && !trace_out.empty()) {
        if (!write_chrome_trace(trace_out)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
            return 1;
        }
        std::printf("trace: %s\n", trace_out.c_str());
    }

    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < result.items().size(); ++i) {
        const Metric& m = result.items()[i];
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        json += (i == 0 ? "\"" : ", \"") + json_escape(m.name) + "\": {\"value\": " + num +
                ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
