// compile_deep: a seeded set of generated hierarchies, serialized to .sbd
// text, then parsed and compiled cold under the dynamic and the disjoint-SAT
// methods. The only workload where the sbd parser, the core pipeline and the
// SAT solver do most of the work.
#include <cstdio>
#include <random>
#include <stdexcept>

#include "compile_work.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace.hpp"
#include "sbd/text_format.hpp"
#include "suite/random_models.hpp"

namespace perfbench {

using sbd::codegen::Method;

namespace {

double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

} // namespace

CompileRun compile_cold(const std::string& source, Method method, std::uint64_t corr) {
    CompileRun r;
    const Scope root("bench.compile", 0, corr);
    const std::uint64_t t0 = now_ns();
    sbd::text::ParsedFile file;
    {
        const Scope s("sbd.parse", root.id(), corr);
        file = sbd::text::parse_sbd_string(source);
    }
    const std::uint64_t t1 = now_ns();
    sbd::codegen::PipelineOptions popts;
    popts.method = method;
    popts.threads = 1;
    sbd::codegen::Pipeline pipeline(popts);
    {
        const Scope s("core.compile", root.id(), corr);
        r.sys = pipeline.compile(file.root, &r.sat);
    }
    const std::uint64_t t2 = now_ns();
    r.parse_s = static_cast<double>(t1 - t0) / 1e9;
    r.compile_s = static_cast<double>(t2 - t1) / 1e9;
    r.stats = pipeline.stats();
    r.lines = r.sys.total_lines();
    r.functions = r.sys.total_functions();
    r.replicated = r.sys.total_replication();
    return r;
}

void CompileLayers::add(const CompileRun& r, Method method) {
    parse_s_ += r.parse_s;
    (method == Method::DisjointSat ? sat_s_ : dynamic_s_) += r.parse_s + r.compile_s;
    fingerprint_ns_ += static_cast<double>(r.stats.fingerprint_ns);
    sdg_ns_ += static_cast<double>(r.stats.sdg_ns);
    cluster_ns_ += static_cast<double>(r.stats.cluster_ns);
    codegen_ns_ += static_cast<double>(r.stats.codegen_ns);
    compiles_ += static_cast<double>(r.stats.macro_compiles);
    reuses_ += static_cast<double>(r.stats.macro_reuses);
    sat_iterations_ += static_cast<double>(r.sat.iterations);
    sat_conflicts_ += static_cast<double>(r.sat.conflicts);
    sat_propagations_ += static_cast<double>(r.sat.propagations);
    sat_clauses_ += static_cast<double>(r.sat.clauses);
    lines_ += static_cast<double>(r.lines);
    functions_ += static_cast<double>(r.functions);
    replicated_ += static_cast<double>(r.replicated);
}

void CompileLayers::report(Metrics& out) const {
    const double n = passes_ > 0 ? passes_ : 1;
    out.set("sbd.parse_ms", parse_s_ * 1e3 / n, "ms");
    out.set("core.fingerprint_ms", fingerprint_ns_ / 1e6 / n, "ms");
    out.set("core.sdg_ms", sdg_ns_ / 1e6 / n, "ms");
    out.set("core.cluster_ms", cluster_ns_ / 1e6 / n, "ms");
    out.set("core.codegen_ms", codegen_ns_ / 1e6 / n, "ms");
    out.set("core.macro_compiles", compiles_ / n, "count");
    out.set("core.cache_hit_rate", compiles_ + reuses_ > 0 ? reuses_ / (compiles_ + reuses_) : 0,
            "share");
    out.set("sat.iterations", sat_iterations_ / n, "count");
    out.set("sat.conflicts", sat_conflicts_ / n, "count");
    out.set("sat.propagations", sat_propagations_ / n, "count");
    out.set("sat.clauses", sat_clauses_ / n, "count");
    out.set("compile.dynamic_s", dynamic_s_ / n, "s");
    out.set("compile.sat_s", sat_s_ / n, "s");
    out.set("codegen.generated_lines", lines_ / n, "count");
    out.set("codegen.interface_functions", functions_ / n, "count");
    out.set("codegen.replicated_nodes", replicated_ / n, "count");
}

void add_compile_layers(const std::vector<std::string>& sources, int passes, Metrics& out) {
    CompileLayers acc;
    std::uint64_t corr = 0;
    for (int p = 0; p < passes; ++p) {
        for (const std::string& src : sources)
            for (const Method m : {Method::Dynamic, Method::DisjointSat})
                acc.add(compile_cold(src, m, ++corr), m);
        acc.end_pass();
    }
    acc.report(out);
}

namespace {

constexpr int kDeepModels = 6;
constexpr int kWideModels = 16;
constexpr std::size_t kVerifyInstants = 8;

struct Model {
    std::string name;
    std::string source;
};

/// The seeded model set: deep shared-type hierarchies with clones and
/// triggers, plus wider random diagrams whose SAT clustering dominates.
std::vector<Model> make_models(std::uint64_t seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
    std::vector<Model> out;
    for (int i = 0; i < kDeepModels; ++i) {
        sbd::suite::DeepModelParams p;
        p.levels = 4;
        p.types_per_level = 8;
        p.subs_per_macro = 16;
        p.clone_probability = 0.3;
        p.trigger_probability = 0.1;
        const auto m = sbd::suite::random_deep_model(rng, p);
        out.push_back({"deep-" + std::to_string(i), sbd::text::to_sbd(*m)});
    }
    for (int i = 0; i < kWideModels; ++i) {
        sbd::suite::RandomModelParams p;
        p.depth = 2;
        p.subs_per_level = 24;
        p.inputs = 6;
        p.outputs = 6;
        p.macro_probability = 0.2;
        p.trigger_probability = 0.1;
        const auto m = sbd::suite::random_model(rng, p);
        out.push_back({"wide-" + std::to_string(i), sbd::text::to_sbd(*m)});
    }
    return out;
}

/// Seeded input prefix and the reference simulator's outputs for it.
sbd::runtime::Trace reference_trace(const CompileRun& r, std::uint64_t seed) {
    const auto root = r.sys.root_block();
    sbd::runtime::Trace t;
    t.num_inputs = root->num_inputs();
    t.num_outputs = root->num_outputs();
    sbd::runtime::LcgInputSource src(seed);
    for (std::size_t k = 0; k < kVerifyInstants; ++k) {
        std::vector<double> row(t.num_inputs);
        src.fill(row);
        t.inputs.push_back(std::move(row));
    }
    return sbd::runtime::simulate_reference(dynamic_cast<const sbd::MacroBlock&>(*root), t);
}

} // namespace

Outcome run_compile_deep(const RunOptions& o) {
    Outcome out;
    // Set-up is the benchmark's own: generating and serializing the set.
    std::vector<double> setups;
    std::vector<Model> models;
    for (int k = 0; k < 3; ++k) {
        const std::uint64_t t0 = now_ns();
        models = make_models(o.seed);
        setups.push_back(seconds_since(t0));
    }
    std::size_t source_bytes = 0;
    for (const Model& m : models) source_bytes += m.source.size();

    struct Row {
        std::vector<double> dyn_s, sat_s, parse_s;
        std::size_t counts[2][3] = {};
        double sat_iterations = 0;
        sbd::runtime::Trace reference;
    };
    std::vector<Row> rows(models.size());
    std::vector<double> pass_s, pass_dyn_s, pass_sat_s;
    CompileLayers layers;
    std::uint64_t corr = 0;
    const std::uint64_t start = now_ns();
    const double budget = o.probe ? 0 : o.seconds;
    while (pass_s.size() < 2 || seconds_since(start) < budget) {
        double total = 0, dyn = 0, sat = 0;
        for (std::size_t i = 0; i < models.size(); ++i) {
            for (const Method m : {Method::Dynamic, Method::DisjointSat}) {
                ++out.attempted;
                CompileRun r;
                try {
                    r = compile_cold(models[i].source, m, ++corr);
                } catch (const std::exception& e) {
                    ++out.failed;
                    out.gate_failures.push_back(models[i].name + ": compile failed: " + e.what());
                    continue;
                }
                const double t = r.parse_s + r.compile_s;
                total += t;
                const int mi = m == Method::DisjointSat ? 1 : 0;
                (mi == 1 ? sat : dyn) += t;
                (mi == 1 ? rows[i].sat_s : rows[i].dyn_s).push_back(t);
                rows[i].parse_s.push_back(r.parse_s);
                const std::size_t counts[3] = {r.lines, r.functions, r.replicated};
                if (pass_s.empty()) {
                    // Gate: the compiled model steps like the simulator.
                    std::copy(counts, counts + 3, rows[i].counts[mi]);
                    rows[i].sat_iterations += static_cast<double>(r.sat.iterations);
                    if (rows[i].reference.instants() == 0)
                        rows[i].reference = reference_trace(r, o.seed + i);
                    if (!sbd::runtime::bit_equal(
                            sbd::runtime::replay(r.sys, r.sys.root_block(), rows[i].reference),
                            rows[i].reference))
                        out.gate_failures.push_back(models[i].name + " (" +
                                                    sbd::codegen::to_string(m) +
                                                    "): generated code differs from the simulator");
                } else if (!std::equal(counts, counts + 3, rows[i].counts[mi])) {
                    out.gate_failures.push_back(models[i].name + " (" +
                                                sbd::codegen::to_string(m) +
                                                "): code-size counts differ between compiles");
                }
                layers.add(r, m);
            }
        }
        layers.end_pass();
        pass_s.push_back(total);
        pass_dyn_s.push_back(dyn);
        pass_sat_s.push_back(sat);
    }

    std::printf("compile_deep: %zu models, %.1f KB of source, %zu passes\n", models.size(),
                static_cast<double>(source_bytes) / 1024.0, pass_s.size());
    std::printf("  %-8s %8s %9s %9s %9s | %7s %5s %5s | %7s %5s %6s\n", "model", "KB",
                "parse_ms", "dyn_ms", "sat_ms", "lines", "fns", "repl", "lines", "fns", "sat_it");
    std::size_t totals[2][3] = {};
    for (std::size_t i = 0; i < models.size(); ++i) {
        const Row& r = rows[i];
        std::printf("  %-8s %8.1f %9.2f %9.2f %9.2f | %7zu %5zu %5zu | %7zu %5zu %6.0f\n",
                    models[i].name.c_str(), static_cast<double>(models[i].source.size()) / 1024,
                    median(r.parse_s) * 1e3, median(r.dyn_s) * 1e3, median(r.sat_s) * 1e3,
                    r.counts[0][0], r.counts[0][1], r.counts[0][2], r.counts[1][0],
                    r.counts[1][1], r.sat_iterations);
        for (int m = 0; m < 2; ++m)
            for (int c = 0; c < 3; ++c) totals[m][c] += r.counts[m][c];
    }

    double elapsed = 0;
    for (const double t : pass_s) elapsed += t;
    out.e2e.set("setup_s", median(setups), "s");
    out.e2e.set("op_p50_us", median(pass_s) * 1e6, "us");
    out.e2e.set("op_p99_us", quantile(pass_s, 0.99) * 1e6, "us");
    out.e2e.set("rate_per_s", static_cast<double>(out.attempted) / elapsed, "1/s");
    out.e2e.set("peak_rss_mb", self_peak_rss_mb(), "MB");

    out.named.set("setup_s", median(setups), "s");
    out.named.set("compile_dynamic_s", median(pass_dyn_s), "s");
    out.named.set("compile_sat_s", median(pass_sat_s), "s");
    out.named.set("generated_lines", static_cast<double>(totals[0][0] + totals[1][0]), "lines");
    out.named.set("interface_functions", static_cast<double>(totals[0][1] + totals[1][1]),
                  "count");
    out.named.set("replicated_nodes", static_cast<double>(totals[0][2] + totals[1][2]), "count");
    out.named.set("peak_rss_mb", self_peak_rss_mb(), "MB");

    layers.report(out.layer);
    return out;
}

} // namespace perfbench
