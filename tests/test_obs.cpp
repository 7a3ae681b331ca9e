// Observability subsystem tests: metrics registry semantics (including the
// multi-threaded hot path), exporter formats (Prometheus golden file,
// Chrome-trace JSON schema), and the instrumentation
// contracts of the pipeline and the runtime engine — warm-vs-cold registry
// equality and bit-exact outputs with instrumentation disabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "core/emit_cpp.hpp"
#include "core/pipeline.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "suite/models.hpp"

namespace fs = std::filesystem;
using namespace sbd;
using namespace sbd::codegen;

namespace {

struct TempDir {
    fs::path path;
    TempDir() {
        path = fs::temp_directory_path() /
               ("sbd_obs_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

// ------------------------------------------------------- minimal JSON parser
//
// Just enough JSON to validate exporter output structurally: objects,
// arrays, strings (with the escapes our exporters emit), numbers, bools,
// null. Throws std::runtime_error on malformed input, which is itself part
// of what the schema tests assert against.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

    bool is_object() const { return std::holds_alternative<JsonObject>(v); }
    bool is_array() const { return std::holds_alternative<JsonArray>(v); }
    bool is_string() const { return std::holds_alternative<std::string>(v); }
    bool is_number() const { return std::holds_alternative<double>(v); }
    const JsonObject& obj() const { return std::get<JsonObject>(v); }
    const JsonArray& arr() const { return std::get<JsonArray>(v); }
    const std::string& str() const { return std::get<std::string>(v); }
    double num() const { return std::get<double>(v); }
    const JsonValue& at(const std::string& key) const { return obj().at(key); }
    bool has(const std::string& key) const { return is_object() && obj().count(key) != 0; }
};

struct JsonParser {
    const std::string& text;
    std::size_t pos = 0;

    [[noreturn]] void fail(const char* what) const {
        throw std::runtime_error("json: " + std::string(what) + " at offset " +
                                 std::to_string(pos));
    }
    void skip_ws() {
        while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
    }
    char peek() {
        if (pos >= text.size()) fail("unexpected end");
        return text[pos];
    }
    void expect(char c) {
        if (peek() != c) fail("unexpected character");
        ++pos;
    }

    JsonValue parse() {
        skip_ws();
        const JsonValue v = parse_value();
        skip_ws();
        if (pos != text.size()) fail("trailing content");
        return v;
    }

    JsonValue parse_value() {
        skip_ws();
        switch (peek()) {
        case '{': return parse_object();
        case '[': return parse_array();
        case '"': return JsonValue{parse_string()};
        case 't':
            if (text.compare(pos, 4, "true") != 0) fail("bad literal");
            pos += 4;
            return JsonValue{true};
        case 'f':
            if (text.compare(pos, 5, "false") != 0) fail("bad literal");
            pos += 5;
            return JsonValue{false};
        case 'n':
            if (text.compare(pos, 4, "null") != 0) fail("bad literal");
            pos += 4;
            return JsonValue{nullptr};
        default: return JsonValue{parse_number()};
        }
    }

    JsonValue parse_object() {
        expect('{');
        JsonObject out;
        skip_ws();
        if (peek() == '}') return ++pos, JsonValue{std::move(out)};
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            out.emplace(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return JsonValue{std::move(out)};
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonArray out;
        skip_ws();
        if (peek() == ']') return ++pos, JsonValue{std::move(out)};
        for (;;) {
            out.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return JsonValue{std::move(out)};
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos >= text.size()) fail("unterminated string");
            const char c = text[pos++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size()) fail("bad escape");
            const char e = text[pos++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos + 4 > text.size()) fail("bad \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
                    else fail("bad \\u digit");
                }
                out += cp < 0x80 ? static_cast<char>(cp) : '?'; // exporters only escape ASCII
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    double parse_number() {
        const std::size_t start = pos;
        if (peek() == '-') ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' || text[pos] == '-'))
            ++pos;
        if (pos == start) fail("expected number");
        return std::stod(text.substr(start, pos - start));
    }
};

JsonValue parse_json(const std::string& text) { return JsonParser{text}.parse(); }

std::uint64_t counter_value(const obs::Snapshot& snap, const std::string& name,
                            const obs::Labels& labels = {}) {
    const obs::Sample* s = snap.find(name, labels);
    return s == nullptr ? 0 : s->value;
}

std::int64_t gauge_value(const obs::Snapshot& snap, const std::string& name) {
    const obs::Sample* s = snap.find(name);
    return s == nullptr ? 0 : s->gauge;
}

} // namespace

// --------------------------------------------------------- registry semantics

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
    obs::MetricsRegistry reg;
    obs::Counter c = reg.counter("c_total", "help");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    obs::Gauge g = reg.gauge("g");
    g.set(7);
    g.add(-10);
    EXPECT_EQ(g.value(), -3);

    obs::Histogram h = reg.histogram("h_ns", {10, 100, 1000});
    h.observe(5);
    h.observe(50);
    h.observe(500);
    h.observe(5000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 5555u);

    const obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 3u);
    const obs::Sample* hs = snap.find("h_ns");
    ASSERT_NE(hs, nullptr);
    EXPECT_EQ(hs->buckets, (std::vector<std::uint64_t>{1, 1, 1, 1}));
    EXPECT_EQ(hs->value, 4u);
    EXPECT_EQ(hs->sum, 5555u);
}

TEST(MetricsRegistry, RegistrationIsIdempotentAndLabelOrderCanonical) {
    obs::MetricsRegistry reg;
    obs::Counter a = reg.counter("x_total", "", {{"b", "2"}, {"a", "1"}});
    obs::Counter b = reg.counter("x_total", "", {{"a", "1"}, {"b", "2"}});
    a.inc(3);
    b.inc(4);
    EXPECT_EQ(a.value(), 7u); // same cell
    EXPECT_EQ(reg.size(), 1u);

    // Distinct labels = distinct series under the same name.
    obs::Counter c = reg.counter("x_total", "", {{"a", "9"}});
    c.inc();
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(a.value(), 7u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
    obs::MetricsRegistry reg;
    (void)reg.counter("m");
    EXPECT_THROW((void)reg.gauge("m"), std::logic_error);
    EXPECT_THROW((void)reg.histogram("m", {1, 2}), std::logic_error);
}

TEST(MetricsRegistry, BadHistogramBoundsThrow) {
    obs::MetricsRegistry reg;
    EXPECT_THROW((void)reg.histogram("h1", {}), std::invalid_argument);
    EXPECT_THROW((void)reg.histogram("h2", {10, 10}), std::invalid_argument);
    EXPECT_THROW((void)reg.histogram("h3", {10, 5}), std::invalid_argument);
}

TEST(MetricsRegistry, DetachedHandlesAreNoOps) {
    obs::Counter c = obs::counter_in(nullptr, "nope");
    obs::Gauge g = obs::gauge_in(nullptr, "nope");
    obs::Histogram h = obs::histogram_in(nullptr, "nope", {1, 2});
    c.inc(5);
    g.set(5);
    h.observe(5);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_FALSE(static_cast<bool>(c));
    EXPECT_FALSE(static_cast<bool>(g));
    EXPECT_FALSE(static_cast<bool>(h));
}

TEST(MetricsRegistry, ExponentialBoundsShapeAndSaturation) {
    const auto b = obs::exponential_bounds(250, 4.0, 5);
    EXPECT_EQ(b, (std::vector<std::uint64_t>{250, 1000, 4000, 16000, 64000}));
    // Saturating growth stops instead of emitting non-increasing bounds.
    const auto s = obs::exponential_bounds(1ull << 62, 4.0, 8);
    EXPECT_LT(s.size(), 8u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_THROW((void)obs::exponential_bounds(0, 4.0, 3), std::invalid_argument);
}

/// The multi-threaded hot path: concurrent increments on shared handles,
/// concurrent registration of the same series, snapshots taken mid-flight.
/// Run under TSan in CI; the final counts also prove no increment is lost.
TEST(MetricsRegistry, ConcurrentIncrementsAndSnapshotsAreExact) {
    obs::MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 50000;
    std::vector<std::thread> team;
    team.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        team.emplace_back([&reg, t] {
            // Each thread registers its own handles — exercises the
            // idempotent find_or_create path under contention.
            obs::Counter c = reg.counter("stress_total");
            obs::Gauge g = reg.gauge("stress_depth");
            obs::Histogram h = reg.histogram("stress_ns", {100, 10000});
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                c.inc();
                h.observe(i % 200);
                if (i % 1024 == 0) g.set(static_cast<std::int64_t>(t));
                if (i % 8192 == 0) (void)reg.snapshot();
            }
        });
    for (auto& th : team) th.join();

    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(counter_value(snap, "stress_total"), kThreads * kPerThread);
    const obs::Sample* h = snap.find("stress_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->value, kThreads * kPerThread);
}

// ------------------------------------------------------------------ exporters

namespace {

/// The fixed registry behind the Prometheus golden file.
void fill_demo_registry(obs::MetricsRegistry& reg) {
    reg.counter("demo_requests_total", "requests served", {{"tool", "sbdc"}}).inc(3);
    reg.counter("demo_requests_total", "requests served", {{"tool", "sbd-run"}}).inc(5);
    reg.gauge("demo_queue_depth", "queue depth").set(-2);
    obs::Histogram h = reg.histogram("demo_latency_ns", {100, 1000, 10000}, "request latency");
    h.observe(50);
    h.observe(500);
    h.observe(5000);
    h.observe(50000);
}

} // namespace

TEST(Exporters, PrometheusMatchesGoldenFile) {
    obs::MetricsRegistry reg;
    fill_demo_registry(reg);
    const std::string got = obs::to_prometheus(reg.snapshot());

    std::ifstream f(std::string(SBD_OBS_DIR) + "/metrics_golden.prom", std::ios::binary);
    ASSERT_TRUE(f) << "golden file missing";
    std::stringstream want;
    want << f.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST(Exporters, JsonDumpParsesAndRoundTripsValues) {
    obs::MetricsRegistry reg;
    fill_demo_registry(reg);
    const JsonValue doc = parse_json(obs::to_json(reg.snapshot()));
    ASSERT_TRUE(doc.is_object());
    const JsonArray& metrics = doc.at("metrics").arr();
    ASSERT_EQ(metrics.size(), 4u); // histogram + gauge + 2 counter series
    for (const JsonValue& m : metrics) {
        ASSERT_TRUE(m.has("name"));
        ASSERT_TRUE(m.has("kind"));
        const std::string kind = m.at("kind").str();
        if (kind == "counter" || kind == "gauge") {
            EXPECT_TRUE(m.at("value").is_number());
        } else {
            ASSERT_EQ(kind, "histogram");
            EXPECT_EQ(m.at("count").num(), 4.0);
            EXPECT_EQ(m.at("sum").num(), 55550.0);
            EXPECT_EQ(m.at("buckets").arr().size(), 4u); // 3 bounds + Inf
        }
    }
}

TEST(Exporters, TableListsEverySeries) {
    obs::MetricsRegistry reg;
    fill_demo_registry(reg);
    const std::string table = obs::to_table(reg.snapshot());
    EXPECT_NE(table.find("demo_requests_total{tool=\"sbdc\"}"), std::string::npos);
    EXPECT_NE(table.find("demo_queue_depth"), std::string::npos);
    EXPECT_NE(table.find("count=4 sum=55550"), std::string::npos);
}

TEST(Exporters, MetricsFileFormatFollowsExtensionAndOverride) {
    TempDir dir;
    obs::MetricsRegistry reg;
    fill_demo_registry(reg);
    const obs::Snapshot snap = reg.snapshot();

    const auto read = [](const fs::path& p) {
        std::ifstream f(p, std::ios::binary);
        std::stringstream ss;
        ss << f.rdbuf();
        return ss.str();
    };
    ASSERT_TRUE(obs::write_metrics_file(snap, (dir.path / "m.json").string()));
    EXPECT_NO_THROW((void)parse_json(read(dir.path / "m.json")));
    ASSERT_TRUE(obs::write_metrics_file(snap, (dir.path / "m.prom").string()));
    EXPECT_NE(read(dir.path / "m.prom").find("# TYPE"), std::string::npos);
    // Explicit format wins over the extension.
    ASSERT_TRUE(obs::write_metrics_file(snap, (dir.path / "m2.json").string(), "table"));
    EXPECT_NE(read(dir.path / "m2.json").find("metric"), std::string::npos);
    EXPECT_FALSE(obs::write_metrics_file(snap, (dir.path / "m3").string(), "xml"));
}

// ----------------------------------------------------------------- trace spans

TEST(TraceSpans, NoCollectorMeansNoRecording) {
    ASSERT_EQ(obs::TraceCollector::active(), nullptr);
    { obs::TraceSpan span("orphan", "test"); } // must be a safe no-op
    obs::TraceCollector col;
    EXPECT_TRUE(col.drain().empty());
}

TEST(TraceSpans, NestedSpansRecordDepthAndOrder) {
    obs::TraceCollector col;
    col.install();
    {
        obs::TraceSpan outer("outer", "test", "o");
        obs::TraceSpan inner("inner", "test", "i");
    }
    col.uninstall();
    const std::vector<obs::SpanEvent> events = col.drain();
    ASSERT_EQ(events.size(), 2u);
    // Sorted by start time: outer opened first.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].depth, 0u);
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[1].depth, 1u);
    EXPECT_LE(events[0].start_ns, events[1].start_ns);
    EXPECT_GE(events[0].start_ns + events[0].dur_ns, events[1].start_ns + events[1].dur_ns);
}

TEST(TraceSpans, RingOverflowDropsAndCounts) {
    obs::TraceCollector col(8);
    col.install();
    for (int i = 0; i < 20; ++i) obs::TraceSpan span("s", "test");
    col.uninstall();
    EXPECT_EQ(col.dropped(), 12u);
    EXPECT_EQ(col.drain().size(), 8u);
}

TEST(TraceSpans, ThreadsGetDistinctRings) {
    obs::TraceCollector col;
    col.install();
    std::thread other([] { obs::TraceSpan span("worker", "test"); });
    other.join();
    { obs::TraceSpan span("main", "test"); }
    col.uninstall();
    const auto events = col.drain();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceSpans, ChromeTraceJsonValidatesAgainstSchema) {
    obs::TraceCollector col;
    col.install();
    {
        obs::TraceSpan a("phase-a", "compile", "Block\"quoted\"");
        obs::TraceSpan b("phase-b", "compile");
    }
    col.uninstall();
    const std::string json = obs::to_chrome_trace(col.drain());

    const JsonValue doc = parse_json(json);
    ASSERT_TRUE(doc.is_object());
    ASSERT_TRUE(doc.has("traceEvents"));
    EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
    const JsonArray& events = doc.at("traceEvents").arr();
    ASSERT_EQ(events.size(), 2u);
    for (const JsonValue& e : events) {
        // Trace Event Format: complete events need name/cat/ph/ts/dur/pid/tid.
        EXPECT_TRUE(e.at("name").is_string());
        EXPECT_TRUE(e.at("cat").is_string());
        EXPECT_EQ(e.at("ph").str(), "X");
        EXPECT_TRUE(e.at("ts").is_number());
        EXPECT_TRUE(e.at("dur").is_number());
        EXPECT_GE(e.at("dur").num(), 0.0);
        EXPECT_TRUE(e.at("pid").is_number());
        EXPECT_TRUE(e.at("tid").is_number());
        EXPECT_TRUE(e.at("args").is_object());
        EXPECT_TRUE(e.at("args").has("depth"));
    }
    EXPECT_EQ(events[0].at("args").at("detail").str(), "Block\"quoted\"");
}

// --------------------------------------------- pipeline + cache instrumentation

TEST(PipelineObs, StatsViewEqualsRegistrySeries) {
    obs::MetricsRegistry reg;
    PipelineOptions popts;
    popts.method = Method::Dynamic;
    popts.metrics = &reg;
    Pipeline pipeline(popts);
    (void)pipeline.compile(suite::fuel_controller());

    const PipelineStats stats = pipeline.stats();
    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(stats.macro_compiles, counter_value(snap, "sbd_pipeline_macro_compiles_total"));
    EXPECT_EQ(stats.macro_reuses, counter_value(snap, "sbd_pipeline_macro_reuses_total"));
    EXPECT_EQ(stats.atomic_profiles, counter_value(snap, "sbd_pipeline_atomic_profiles_total"));
    EXPECT_EQ(stats.mem_misses, counter_value(snap, "sbd_cache_mem_misses_total"));
    EXPECT_EQ(stats.total_ns,
              counter_value(snap, "sbd_pipeline_phase_ns_total", {{"phase", "total"}}));
    EXPECT_GT(stats.macro_compiles, 0u);
    EXPECT_GT(stats.total_ns, 0u);
    // Per-block task latency histogram saw every macro task.
    const obs::Sample* task = snap.find("sbd_pipeline_task_ns");
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->value, stats.macro_compiles + stats.macro_reuses);
}

TEST(PipelineObs, OwnedRegistryKeepsStatsWorkingWithoutInjection) {
    Pipeline pipeline{PipelineOptions{}};
    (void)pipeline.compile(suite::thermostat());
    EXPECT_GT(pipeline.stats().macro_compiles, 0u);
    ASSERT_NE(pipeline.metrics(), nullptr);
    EXPECT_GT(pipeline.metrics()->snapshot().samples.size(), 0u);
}

/// The SAT-stats replay invariant, observed through the registry: a warm
/// (fully cached) compile must report byte-identical SAT counters and
/// gauges to the cold compile that populated the cache.
TEST(PipelineObs, WarmRunReportsIdenticalSatSeriesToColdRun) {
    TempDir dir;
    const auto root = suite::fuel_controller();

    const auto run = [&](obs::MetricsRegistry& reg) {
        PipelineOptions popts;
        popts.method = Method::DisjointSat; // does real SAT work
        popts.cache_dir = (dir.path / "cache").string();
        popts.metrics = &reg;
        Pipeline p(popts);
        (void)p.compile(root);
        return p.stats();
    };

    obs::MetricsRegistry cold_reg, warm_reg;
    const PipelineStats cold = run(cold_reg);
    const PipelineStats warm = run(warm_reg);
    ASSERT_GT(cold.macro_compiles, 0u);
    ASSERT_EQ(warm.macro_compiles, 0u); // fully warm
    EXPECT_EQ(warm.macro_reuses, cold.macro_compiles + cold.macro_reuses);

    const obs::Snapshot cs = cold_reg.snapshot();
    const obs::Snapshot ws = warm_reg.snapshot();
    ASSERT_GT(counter_value(cs, "sbd_sat_iterations_total"), 0u);
    for (const char* name : {"sbd_sat_iterations_total", "sbd_sat_conflicts_total",
                             "sbd_sat_decisions_total", "sbd_sat_propagations_total"})
        EXPECT_EQ(counter_value(ws, name), counter_value(cs, name)) << name;
    for (const char* name : {"sbd_sat_first_k", "sbd_sat_final_k", "sbd_sat_vars",
                             "sbd_sat_clauses"})
        EXPECT_EQ(gauge_value(ws, name), gauge_value(cs, name)) << name;
}

TEST(PipelineObs, InstrumentedCompileIsBitExactToUninstrumented) {
    const auto root = suite::fuel_controller();
    obs::MetricsRegistry reg;
    obs::TraceCollector col;
    col.install();
    PipelineOptions with;
    with.method = Method::Dynamic;
    with.metrics = &reg;
    const std::string instrumented = emit_cpp(Pipeline(with).compile(root));
    col.uninstall();
    const std::string plain = emit_cpp(Pipeline(PipelineOptions{}).compile(root));
    EXPECT_EQ(instrumented, plain);
    EXPECT_FALSE(col.drain().empty());
}

TEST(CacheObs, DiskCountersRecordStoreLoadAndCorruptionRecovery) {
    TempDir dir;
    const auto root = suite::thermostat();
    const std::string cache_dir = (dir.path / "cache").string();

    const auto compile_once = [&](obs::MetricsRegistry& reg) {
        PipelineOptions popts;
        popts.cache_dir = cache_dir;
        popts.metrics = &reg;
        (void)Pipeline(popts).compile(root);
    };

    obs::MetricsRegistry cold;
    compile_once(cold);
    const obs::Snapshot cs = cold.snapshot();
    EXPECT_GT(counter_value(cs, "sbd_cache_disk_stores_total"), 0u);
    EXPECT_GT(counter_value(cs, "sbd_cache_disk_ns_total"), 0u);

    obs::MetricsRegistry warm;
    compile_once(warm);
    EXPECT_GT(counter_value(warm.snapshot(), "sbd_cache_disk_hits_total"), 0u);

    // Corrupt every record: the next run must count a reject per file and
    // still succeed (recovery = recompute + re-store).
    std::size_t corrupted = 0;
    for (const auto& entry : fs::directory_iterator(cache_dir)) {
        std::ofstream f(entry.path(), std::ios::binary | std::ios::trunc);
        f << "garbage";
        ++corrupted;
    }
    ASSERT_GT(corrupted, 0u);
    obs::MetricsRegistry healed;
    compile_once(healed);
    const obs::Snapshot hs = healed.snapshot();
    EXPECT_EQ(counter_value(hs, "sbd_cache_disk_rejects_total"), corrupted);
    EXPECT_EQ(counter_value(hs, "sbd_cache_disk_stores_total"), corrupted);
}

// ----------------------------------------------------- engine instrumentation

TEST(EngineObs, TickAndStepSeriesMatchWorkDone) {
    const auto root = suite::thermostat();
    const CompiledSystem sys = Pipeline(PipelineOptions{}).compile(root);

    obs::MetricsRegistry reg;
    runtime::EngineConfig cfg;
    cfg.capacity = 64;
    cfg.threads = 2;
    cfg.metrics = &reg;
    cfg.step_sample = 4;
    runtime::Engine engine(sys, root, cfg);
    const auto ids = engine.create(48);
    ASSERT_EQ(ids.size(), 48u);
    engine.tick(10);

    const obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(counter_value(snap, "sbd_engine_ticks_total"), 10u);
    EXPECT_EQ(counter_value(snap, "sbd_engine_steps_total"), 480u);
    EXPECT_EQ(gauge_value(snap, "sbd_engine_pool_live"), 48);
    EXPECT_EQ(gauge_value(snap, "sbd_engine_pool_capacity"), 64);
    const obs::Sample* tick_ns = snap.find("sbd_engine_tick_ns");
    ASSERT_NE(tick_ns, nullptr);
    EXPECT_EQ(tick_ns->value, 10u);
    // 1-in-4 sampling over 48 live slots = 12 samples per tick, by index,
    // independent of how chunks were distributed across the two threads.
    const obs::Sample* step_ns = snap.find("sbd_engine_step_ns");
    ASSERT_NE(step_ns, nullptr);
    EXPECT_EQ(step_ns->value, 120u);
}

TEST(EngineObs, DisabledMetricsAreBitExactAndUnregistered) {
    const auto root = suite::fuel_controller();
    const CompiledSystem sys = Pipeline(PipelineOptions{}).compile(root);

    const auto run = [&](obs::MetricsRegistry* reg) {
        runtime::EngineConfig cfg;
        cfg.capacity = 16;
        cfg.threads = 2;
        cfg.metrics = reg;
        runtime::Engine engine(sys, root, cfg);
        const auto ids = engine.create(16);
        std::vector<runtime::LcgInputSource> sources;
        for (std::size_t i = 0; i < ids.size(); ++i) sources.emplace_back(7 + i);
        std::vector<double> out;
        for (int t = 0; t < 25; ++t) {
            for (std::size_t i = 0; i < ids.size(); ++i)
                sources[i].fill(engine.pool().inputs(ids[i]));
            engine.tick();
            for (const auto id : ids)
                for (const double v : engine.pool().outputs(id)) out.push_back(v);
        }
        return out;
    };

    obs::MetricsRegistry reg;
    const std::vector<double> with = run(&reg);
    const std::vector<double> without = run(nullptr);
    ASSERT_EQ(with.size(), without.size());
    for (std::size_t i = 0; i < with.size(); ++i) {
        // Bit-exact, not approximately equal.
        EXPECT_EQ(std::memcmp(&with[i], &without[i], sizeof(double)), 0) << "at " << i;
    }
    EXPECT_GT(counter_value(reg.snapshot(), "sbd_engine_ticks_total"), 0u);
}
