// fleet_interp: an in-process Engine stepping 1000 fuel_controller instances
// on the interpreter with 2 threads, closed loop. No socket and no compile on
// the clock: all time is runtime scheduling and the core interpreter.
#include <cstdio>

#include "compile_work.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace.hpp"
#include "sbd/text_format.hpp"
#include "suite/models.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kInstances = 1000;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kVerifyInstants = 64;

struct Fleet {
    sbd::codegen::CompiledSystem sys;
    std::unique_ptr<sbd::runtime::Engine> engine;
    std::vector<sbd::runtime::InstanceId> ids;
};

void build(Fleet& f, const sbd::BlockPtr& root) {
    {
        const Scope s("core.compile");
        sbd::codegen::Pipeline pipeline;
        f.sys = pipeline.compile(root);
    }
    const Scope s("runtime.create");
    sbd::runtime::EngineConfig cfg;
    cfg.capacity = kInstances;
    cfg.threads = kThreads;
    f.engine = std::make_unique<sbd::runtime::Engine>(f.sys, root, cfg);
    f.ids = f.engine->create(kInstances);
}

} // namespace

Outcome run_fleet_interp(const RunOptions& o) {
    Outcome out;
    const auto model = sbd::suite::fuel_controller();
    // The engine gets the model the way users hand it over: as .sbd text.
    const std::string source = sbd::text::to_sbd(*model);
    const auto root = sbd::text::parse_sbd_string(source).root;

    // The fleet is rebuilt (and its set-up timed) before every slice of the
    // timed loop, so the set-up median samples the whole run and not one
    // moment of the host.
    std::vector<double> setups;
    std::unique_ptr<Fleet> fleet;
    const auto rebuild = [&] {
        fleet.reset();
        const std::uint64_t t0 = now_ns();
        fleet = std::make_unique<Fleet>();
        build(*fleet, root);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    };
    rebuild();
    const auto pool = [&]() -> sbd::runtime::InstancePool& { return fleet->engine->pool(); };

    std::vector<sbd::runtime::LcgInputSource> sources;
    for (std::size_t i = 0; i < kInstances; ++i) sources.emplace_back(o.seed * 1'000'003 + i);
    const auto refill = [&] {
        const Scope s("bench.refill");
        for (std::size_t i = 0; i < kInstances; ++i) sources[i].fill(pool().inputs(fleet->ids[i]));
    };

    // Gate: sampled instances must match the flattened reference simulator.
    const std::size_t samples[] = {0, 333, 667, kInstances - 1};
    std::vector<sbd::runtime::TraceRecorder> recs(
        std::size(samples),
        sbd::runtime::TraceRecorder(pool().num_inputs(), pool().num_outputs()));
    for (std::size_t k = 0; k < kVerifyInstants; ++k) {
        refill();
        fleet->engine->tick();
        for (std::size_t s = 0; s < std::size(samples); ++s)
            recs[s].record(pool().inputs(fleet->ids[samples[s]]),
                           pool().outputs(fleet->ids[samples[s]]));
    }
    for (std::size_t s = 0; s < std::size(samples); ++s)
        if (!sbd::runtime::bit_equal(recs[s].trace(),
                                     sbd::runtime::simulate_reference(*model, recs[s].trace())))
            out.gate_failures.push_back("fleet instance " + std::to_string(samples[s]) +
                                        " differs from simulate_reference");

    // Closed loop: refill (not timed), one Engine::tick over the pool (timed),
    // in slices of about one second of ticking each.
    std::vector<double> tick_s;
    const double budget = o.probe ? std::min(o.seconds, 1.0) : o.seconds;
    const int slices = o.probe ? 1 : std::max(1, static_cast<int>(budget));
    double busy = 0;
    std::uint64_t corr = 0;
    for (int slice = 0; slice < slices; ++slice) {
        if (slice > 0) rebuild();
        while (busy < budget * (slice + 1) / slices) {
            refill();
            const std::uint64_t t0 = now_ns();
            fleet->engine->tick();
            const std::uint64_t t1 = now_ns();
            if (tracing()) span("runtime.tick", t0, t1, 0, ++corr);
            tick_s.push_back(static_cast<double>(t1 - t0) / 1e9);
            busy += tick_s.back();
            out.attempted += 1;
        }
    }

    double sum = 0;
    for (const double t : tick_s) sum += t;
    const double rate = static_cast<double>(kInstances) * static_cast<double>(tick_s.size()) / sum;
    const double p50 = windowed_quantile(tick_s, 0.5, 1000) * 1e6;
    const double p99 = windowed_quantile(tick_s, 0.99, 1000) * 1e6;
    std::printf("fleet_interp: %zu instances x %zu ticks in %d slices, %zu engine threads\n",
                kInstances, tick_s.size(), slices, fleet->engine->threads());

    out.e2e.set("setup_s", median(setups), "s");
    out.e2e.set("op_p50_us", p50, "us");
    out.e2e.set("op_p99_us", p99, "us");
    out.e2e.set("rate_per_s", rate, "1/s");
    out.e2e.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    out.named.set("setup_s", median(setups), "s");
    out.named.set("tick_p50_us", p50, "us");
    out.named.set("tick_p99_us", p99, "us");
    out.named.set("instant_rate_mps", rate / 1e6, "M/s");
    out.named.set("peak_rss_mb", self_peak_rss_mb(), "MB");

    if (o.traced) {
        // Scheduling share: engine thread-time per tick not spent stepping,
        // against the same instances stepped directly on one thread.
        std::vector<double> direct_s;
        sbd::runtime::InstancePool& p = pool();
        for (int rep = 0; rep < 20; ++rep) {
            refill();
            const Scope s("exec.direct_steps");
            const std::uint64_t t0 = now_ns();
            for (const auto id : fleet->ids)
                p.instance(id).step_instant_into(p.inputs(id), p.outputs(id));
            direct_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        }
        const double direct = median(direct_s);
        const double tick = median(tick_s);
        out.layer.set("runtime.tick_us", tick * 1e6, "us");
        out.layer.set("runtime.sched_share",
                      1.0 - direct / (tick * static_cast<double>(fleet->engine->threads())), "share");
        out.layer.set("exec.step_ns", direct / static_cast<double>(kInstances) * 1e9, "ns");
        add_compile_layers({source}, 5, out.layer);
    }
    return out;
}

} // namespace perfbench
