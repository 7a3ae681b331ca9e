// Tests of the concurrent runtime engine (src/runtime): instance pools with
// slot reuse, batched multi-threaded stepping, and trace record/replay.
//
// The load-bearing property throughout: everything the engine computes is
// bit-identical to the single-instance interpreter and to the reference
// simulator on the flattened diagram, for every clustering method and every
// thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "core/compiler.hpp"
#include "helpers.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace.hpp"
#include "sbd/text_format.hpp"
#include "suite/figures.hpp"
#include "suite/models.hpp"

namespace {

using namespace sbd;
using namespace sbd::codegen;
using namespace sbd::runtime;

constexpr Method kAllMethods[] = {Method::Monolithic,     Method::StepGet,
                                  Method::Dynamic,        Method::DisjointSat,
                                  Method::DisjointGreedy, Method::Singletons};

/// Runs `instances` engine-hosted copies of `root` for `instants` ticks,
/// refilling every instance's inputs each tick from its own seeded stream,
/// and returns all recorded traces in instance order.
std::vector<Trace> engine_traces(const CompiledSystem& sys,
                                 const std::shared_ptr<const MacroBlock>& root,
                                 std::size_t instances, std::size_t instants,
                                 std::size_t threads, std::size_t chunk = 64) {
    EngineConfig cfg;
    cfg.capacity = instances;
    cfg.threads = threads;
    cfg.chunk = chunk;
    Engine engine(sys, root, cfg);
    const auto ids = engine.create(instances);
    std::vector<LcgInputSource> sources;
    std::vector<TraceRecorder> recorders;
    for (std::size_t i = 0; i < instances; ++i) {
        sources.emplace_back(1 + i);
        recorders.emplace_back(root->num_inputs(), root->num_outputs());
    }
    for (std::size_t t = 0; t < instants; ++t) {
        for (std::size_t i = 0; i < instances; ++i)
            sources[i].fill(engine.pool().inputs(ids[i]));
        engine.tick();
        for (std::size_t i = 0; i < instances; ++i)
            recorders[i].record(engine.pool().inputs(ids[i]), engine.pool().outputs(ids[i]));
    }
    EXPECT_EQ(engine.instants(), instants);
    std::vector<Trace> traces;
    for (auto& r : recorders) traces.push_back(r.take());
    return traces;
}

// ---------------------------------------------------------------------------
// Engine vs. reference simulator: every clustering method, every shipped
// model, bit-exact.
// ---------------------------------------------------------------------------

TEST(EngineEquivalence, AllShippedModelsAllMethods) {
    std::size_t checked = 0;
    for (const auto& entry : std::filesystem::directory_iterator(SBD_MODELS_DIR)) {
        if (entry.path().extension() != ".sbd") continue;
        const auto file = text::parse_sbd_file(entry.path().string());
        for (const Method method : kAllMethods) {
            CompiledSystem sys;
            try {
                sys = compile_hierarchy(file.root, method);
            } catch (const SdgCycleError&) {
                continue; // the paper's rejection case; not executable
            }
            std::vector<Trace> traces;
            try {
                traces = engine_traces(sys, file.root, 4, 40, 2);
            } catch (const std::logic_error&) {
                continue; // opaque (interface-only) blocks are not executable
            }
            for (const Trace& t : traces) {
                ASSERT_TRUE(bit_equal(simulate_reference(*file.root, t), t))
                    << entry.path().filename() << " method=" << to_string(method);
                ++checked;
            }
        }
    }
    EXPECT_GE(checked, 4u * 4u); // at least 4 models actually executed
}

TEST(EngineEquivalence, SuiteModelsAllMethods) {
    const std::vector<std::shared_ptr<const MacroBlock>> blocks = {
        suite::fuel_controller(), suite::figure3_p(), suite::shared_chain_sensor(8)};
    for (const auto& block : blocks) {
        for (const Method method : kAllMethods) {
            CompiledSystem sys;
            try {
                sys = compile_hierarchy(block, method);
            } catch (const SdgCycleError&) {
                continue;
            }
            for (const Trace& t : engine_traces(sys, block, 3, 30, 2))
                ASSERT_TRUE(bit_equal(simulate_reference(*block, t), t))
                    << block->type_name() << " method=" << to_string(method);
        }
    }
}

// ---------------------------------------------------------------------------
// Determinism across thread counts.
// ---------------------------------------------------------------------------

TEST(EngineDeterminism, SameSeedOneVsManyThreadsBitIdentical) {
    const auto block = suite::fuel_controller();
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    // 257 instances with a chunk of 7: the live list does not divide evenly,
    // so the chunked scheduler's boundary handling is exercised too.
    const auto single = engine_traces(sys, block, 257, 20, 1, 7);
    const auto multi = engine_traces(sys, block, 257, 20, 5, 7);
    ASSERT_EQ(single.size(), multi.size());
    for (std::size_t i = 0; i < single.size(); ++i)
        ASSERT_TRUE(bit_equal(single[i], multi[i])) << "instance " << i;
}

TEST(EngineDeterminism, WorkerExceptionPropagatesToTick) {
    // An atomic block that faults when its input exceeds a threshold.
    auto boom = std::make_shared<AtomicBlock>(
        "Boom", std::vector<std::string>{"u"}, std::vector<std::string>{"y"},
        BlockClass::Combinational, std::vector<double>{},
        [](std::span<const double>, std::span<const double> in, std::span<double> out) {
            if (in[0] > 0.5) throw std::runtime_error("boom");
            out[0] = in[0];
        },
        nullptr);
    auto m = std::make_shared<MacroBlock>("M", std::vector<std::string>{"x"},
                                          std::vector<std::string>{"y"});
    m->add_sub("B", boom);
    m->connect("x", "B.u");
    m->connect("B.y", "y");
    const auto sys = compile_hierarchy(m, Method::Dynamic);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        EngineConfig cfg;
        cfg.capacity = 8;
        cfg.threads = threads;
        cfg.chunk = 2;
        Engine engine(sys, m, cfg);
        const auto ids = engine.create(8);
        engine.tick(); // all inputs 0.0: fine
        engine.pool().inputs(ids[5])[0] = 1.0;
        EXPECT_THROW(engine.tick(), std::runtime_error) << threads << " threads";
        // The engine stays usable after a failed tick.
        engine.pool().inputs(ids[5])[0] = 0.0;
        engine.tick();
    }
}

// ---------------------------------------------------------------------------
// Pool slot reuse and handle safety.
// ---------------------------------------------------------------------------

TEST(InstancePool, DestroyAndRecreateKeepsOtherInstancesIntact) {
    const auto block = suite::figure3_p(); // contains a unit delay: stateful
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    EngineConfig cfg;
    cfg.capacity = 3;
    Engine engine(sys, block, cfg);
    const InstanceId a = engine.create();
    const InstanceId b = engine.create();
    const InstanceId c = engine.create();

    // Mirror every pooled instance with a hand-stepped one on the same
    // input stream.
    InterpInstance ma(sys, block), mb(sys, block), mc(sys, block);
    LcgInputSource sa(11), sb(22), sc(33);
    std::vector<double> in(block->num_inputs()), out(block->num_outputs());

    using Mirror = std::pair<Instance*, LcgInputSource*>;
    const auto run_ticks = [&](std::size_t n, std::vector<std::pair<InstanceId, Mirror>> live) {
        for (std::size_t t = 0; t < n; ++t) {
            for (auto& [id, mirror] : live) mirror.second->fill(engine.pool().inputs(id));
            engine.tick();
            for (auto& [id, mirror] : live) {
                const auto ein = engine.pool().inputs(id);
                in.assign(ein.begin(), ein.end());
                mirror.first->step_instant_into(in, out);
                const auto eout = engine.pool().outputs(id);
                for (std::size_t o = 0; o < out.size(); ++o)
                    ASSERT_EQ(eout[o], out[o]) << "t=" << t << " o=" << o;
            }
        }
    };

    run_ticks(10, {{a, {&ma, &sa}}, {b, {&mb, &sb}}, {c, {&mc, &sc}}});

    // Destroy the middle instance; its slot is recycled by the next create.
    engine.destroy(b);
    EXPECT_FALSE(engine.pool().alive(b));
    EXPECT_THROW(engine.pool().inputs(b), std::invalid_argument);
    const InstanceId d = engine.create();
    EXPECT_EQ(d.slot, b.slot);   // contiguous reuse of the freed slot
    EXPECT_NE(d.generation, b.generation);
    EXPECT_FALSE(engine.pool().alive(b)); // the stale handle stays stale

    // The recycled slot starts from pristine state, and the surviving
    // instances' state is untouched by destroy/create.
    InterpInstance md(sys, block);
    LcgInputSource sd(44);
    run_ticks(10, {{a, {&ma, &sa}}, {c, {&mc, &sc}}, {d, {&md, &sd}}});
}

TEST(InstancePool, CapacityIsEnforcedAndRecycledSlotsComeBack) {
    const auto block = suite::figure3_p();
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    InstancePool pool(sys, block, 4);
    std::vector<InstanceId> ids;
    for (int i = 0; i < 4; ++i) ids.push_back(pool.create());
    EXPECT_EQ(pool.size(), 4u);
    EXPECT_THROW(pool.create(), std::length_error);
    pool.destroy(ids[1]);
    pool.destroy(ids[3]);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_NO_THROW(pool.create());
    EXPECT_NO_THROW(pool.create());
    EXPECT_THROW(pool.create(), std::length_error);
}

TEST(InstancePool, ResetRestoresInitialStateAndClearsBuffers) {
    const auto block = suite::figure3_p();
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    InstancePool pool(sys, block, 1);
    const InstanceId id = pool.create();
    LcgInputSource src(7);
    for (int t = 0; t < 5; ++t) {
        src.fill(pool.inputs(id));
        pool.step_slot(id.slot);
    }
    pool.reset(id);
    for (const double v : pool.inputs(id)) EXPECT_EQ(v, 0.0);
    for (const double v : pool.outputs(id)) EXPECT_EQ(v, 0.0);
    // After reset the instance behaves like a fresh one.
    InterpInstance fresh(sys, block);
    LcgInputSource src2(9);
    std::vector<double> in(block->num_inputs()), out(block->num_outputs());
    for (int t = 0; t < 5; ++t) {
        src2.fill(pool.inputs(id));
        const auto pin = pool.inputs(id);
        in.assign(pin.begin(), pin.end());
        pool.step_slot(id.slot);
        fresh.step_instant_into(in, out);
        const auto pout = pool.outputs(id);
        for (std::size_t o = 0; o < out.size(); ++o) ASSERT_EQ(pout[o], out[o]);
    }
}

// ---------------------------------------------------------------------------
// Non-allocating step API.
// ---------------------------------------------------------------------------

TEST(StepInto, MatchesAllocatingStepInstant) {
    const auto block = suite::fuel_controller();
    for (const Method method : {Method::Dynamic, Method::DisjointSat, Method::Singletons}) {
        const auto sys = compile_hierarchy(block, method);
        InterpInstance a(sys, block), b(sys, block);
        LcgInputSource src(3);
        std::vector<double> in(block->num_inputs()), out(block->num_outputs());
        for (int t = 0; t < 25; ++t) {
            src.fill(in);
            const auto expected = a.step_instant(in);
            b.step_instant_into(in, out);
            ASSERT_EQ(expected.size(), out.size());
            for (std::size_t o = 0; o < out.size(); ++o) ASSERT_EQ(expected[o], out[o]);
        }
    }
}

TEST(StepInto, ValidatesSpanSizes) {
    const auto block = suite::figure3_p();
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    InterpInstance inst(sys, block);
    std::vector<double> in(block->num_inputs() + 1), out(block->num_outputs());
    EXPECT_THROW(inst.step_instant_into(in, out), std::invalid_argument);
    in.resize(block->num_inputs());
    out.resize(block->num_outputs() + 1);
    EXPECT_THROW(inst.step_instant_into(in, out), std::invalid_argument);
    EXPECT_EQ(inst.results_size(0), inst.profile().functions[0].writes.size());
}

// ---------------------------------------------------------------------------
// Trace record / save / load / replay.
// ---------------------------------------------------------------------------

class TraceRoundtrip : public ::testing::Test {
protected:
    std::string tmp_path(const std::string& name) {
        return (std::filesystem::path(::testing::TempDir()) / name).string();
    }
};

TEST_F(TraceRoundtrip, BinaryAndCsvAreBitExact) {
    const auto block = suite::fuel_controller();
    const auto sys = compile_hierarchy(block, Method::DisjointSat);
    const Trace t = engine_traces(sys, block, 1, 50, 1).front();

    const std::string bin = tmp_path("trace_roundtrip.sbdt");
    save_trace(t, bin);
    EXPECT_TRUE(bit_equal(load_trace(bin), t));

    const std::string csv = tmp_path("trace_roundtrip.csv");
    save_trace(t, csv);
    EXPECT_TRUE(bit_equal(load_trace(csv), t));

    std::filesystem::remove(bin);
    std::filesystem::remove(csv);
}

TEST_F(TraceRoundtrip, BinaryLayoutMatchesGolden) {
    // SBDT is an on-disk format: magic, u32 version, u64 inputs, u64
    // outputs, u64 instants, then raw little-endian doubles row by row.
    Trace t;
    t.num_inputs = 2;
    t.num_outputs = 1;
    t.inputs = {{0.0, -0.0}, {std::numeric_limits<double>::infinity(), 5e-324}, {1.0 / 3.0, -7.5}};
    t.outputs = {{1.5}, {std::numeric_limits<double>::quiet_NaN()}, {-1e300}};
    const std::string bin = tmp_path("trace_golden.sbdt");
    save_trace(t, bin);
    sbd::testing::expect_matches_golden(SBD_GOLDEN_DIR, "trace.sbdt.bin",
                                        sbd::testing::read_bytes(bin));
    EXPECT_TRUE(bit_equal(load_trace(std::string(SBD_GOLDEN_DIR) + "/trace.sbdt.bin"), t));
    std::filesystem::remove(bin);
}

TEST_F(TraceRoundtrip, ReplayReproducesRecordedOutputs) {
    const auto block = suite::fuel_controller();
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    const Trace t = engine_traces(sys, block, 1, 40, 1).front();
    EXPECT_TRUE(bit_equal(replay(sys, block, t), t));
    EXPECT_TRUE(bit_equal(simulate_reference(*block, t), t));
    // A different clustering method replays the same inputs to the same
    // outputs: the trace is a method-independent regression artifact.
    const auto sys2 = compile_hierarchy(block, Method::Singletons);
    EXPECT_TRUE(bit_equal(replay(sys2, block, t), t));
}

// ---------------------------------------------------------------------------
// Handle-churn edge cases: generational ids under heavy slot recycling, and
// the generation-exhaustion path — a slot whose generation counter reaches
// UINT32_MAX is retired rather than wrapped to 0, so a handle minted 2^32
// destroys ago can never validate against a fresh occupant (no ABA, ever).

TEST(PoolChurn, StaleHandlesNeverAliasUnderHeavyRecycling) {
    const auto block = suite::thermostat();
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    InstancePool pool(sys, block, 4);
    std::vector<InstanceId> stale;
    for (int round = 0; round < 256; ++round) {
        const InstanceId a = pool.create();
        const InstanceId b = pool.create();
        pool.destroy(a);
        pool.destroy(b);
        stale.push_back(a);
        stale.push_back(b);
    }
    // Every handle ever destroyed is dead forever, even though its slot has
    // been recycled hundreds of times since.
    const InstanceId live = pool.create();
    for (const InstanceId id : stale) {
        EXPECT_FALSE(pool.alive(id));
        EXPECT_THROW(pool.inputs(id), std::invalid_argument);
        EXPECT_THROW(pool.destroy(id), std::invalid_argument);
    }
    EXPECT_TRUE(pool.alive(live));
    EXPECT_EQ(pool.retired(), 0u);
}

TEST(PoolChurn, GenerationExhaustionRetiresTheSlot) {
    const auto block = suite::thermostat();
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    InstancePool pool(sys, block, 2);
    // Age one slot to the brink of wraparound (the testing hook stands in
    // for 2^32 - 2 real destroys).
    const InstanceId first = pool.create();
    const std::uint32_t slot = first.slot;
    pool.destroy(first);
    pool.debug_set_generation(slot, UINT32_MAX - 1);
    const InstanceId last = pool.create();
    EXPECT_EQ(last.slot, slot);
    EXPECT_EQ(last.generation, UINT32_MAX - 1);
    pool.destroy(last); // generation hits UINT32_MAX: the slot is retired
    EXPECT_EQ(pool.retired(), 1u);
    EXPECT_FALSE(pool.alive(last));
    // Neither the pre-retirement handle nor a hypothetical wrapped one can
    // ever validate again.
    EXPECT_FALSE(pool.alive({slot, 0}));
    EXPECT_FALSE(pool.alive({slot, UINT32_MAX}));
    // The retired slot is out of circulation: the remaining capacity is one
    // slot, and filling it reports a full pool, not a recycled zombie.
    const InstanceId a = pool.create();
    EXPECT_NE(a.slot, slot);
    EXPECT_THROW(pool.create(), std::length_error);
    pool.destroy(a);
    // The hook rejects nonsense: live slots, retired slots, bad indices.
    const InstanceId live = pool.create();
    EXPECT_THROW(pool.debug_set_generation(live.slot, 7), std::invalid_argument);
    EXPECT_THROW(pool.debug_set_generation(slot, 7), std::invalid_argument);
    EXPECT_THROW(pool.debug_set_generation(99, 7), std::invalid_argument);
}

TEST(PoolChurn, SnapshotRestoreRoundTripsBitExact) {
    const auto block = suite::fuel_controller();
    const auto sys = compile_hierarchy(block, Method::Dynamic);
    EngineConfig cfg;
    cfg.capacity = 2;
    Engine engine(sys, block, cfg);
    const InstanceId src = engine.create();
    LcgInputSource in(77);
    for (int t = 0; t < 25; ++t) {
        in.fill(engine.pool().inputs(src));
        engine.tick();
    }
    const std::vector<double> blob = engine.pool().snapshot_state(src);
    EXPECT_EQ(blob.size(), engine.pool().state_size(src));

    // Restore into a brand-new instance and step both in lockstep: the
    // clone must be bit-identical from the restore point onward.
    const InstanceId dst = engine.create();
    engine.pool().restore_state(dst, blob);
    LcgInputSource in2(12345);
    for (int t = 0; t < 25; ++t) {
        in2.fill(engine.pool().inputs(src));
        std::copy_n(engine.pool().inputs(src).data(), block->num_inputs(),
                    engine.pool().inputs(dst).data());
        engine.tick();
        const auto a = engine.pool().outputs(src);
        const auto b = engine.pool().outputs(dst);
        for (std::size_t o = 0; o < a.size(); ++o) {
            std::uint64_t ba, bb;
            std::memcpy(&ba, &a[o], 8);
            std::memcpy(&bb, &b[o], 8);
            ASSERT_EQ(ba, bb) << "tick " << t << " output " << o;
        }
    }
    // A wrong-sized blob is rejected before touching anything.
    std::vector<double> bad = blob;
    bad.pop_back();
    EXPECT_THROW(engine.pool().restore_state(dst, bad), std::invalid_argument);
}

TEST_F(TraceRoundtrip, LoadRejectsGarbage) {
    const std::string path = tmp_path("trace_garbage.sbdt");
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely,not,a,trace\n1,2,3,4\n", f);
    std::fclose(f);
    EXPECT_THROW(load_trace(path), std::runtime_error);
    std::filesystem::remove(path);
    EXPECT_THROW(load_trace(tmp_path("no_such_trace.sbdt")), std::runtime_error);
}

} // namespace
