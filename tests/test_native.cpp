// The native AOT backend's gate: everything the interpreter can run, the
// compiled-and-dlopen'ed module must run bit-identically.
//
//  - Demo suite x all 6 clustering methods x 64 instants, default flags
//    (exactly what ships).
//  - 500 seeded fuzzed hierarchies (random, deep-shared-with-clones,
//    triggered), sharded so ctest -j spreads the compiles.
//  - The state-layout contract: snapshots restore across backends.
//  - Error parity: validation messages are identical by construction;
//    opaque models are rejected by both backends with their own codes.
//  - Artifact-store healing: a corrupted .so is rebuilt, never fatal.
//  - Byte-pinned emit_cpp goldens for two shipped models, so emitter
//    drift fails loudly here instead of surfacing as a miscompile.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "core/compiler.hpp"
#include "core/emit_cpp.hpp"
#include "core/exec.hpp"
#include "native/native.hpp"
#include "sbd/library.hpp"
#include "sbd/text_format.hpp"
#include "suite/models.hpp"
#include "suite/random_models.hpp"

namespace {

using namespace sbd;
using namespace sbd::codegen;

constexpr Method kAllMethods[] = {Method::Monolithic,  Method::StepGet,
                                  Method::Dynamic,     Method::DisjointSat,
                                  Method::DisjointGreedy, Method::Singletons};

std::string method_id(Method m) {
    std::string s = to_string(m);
    for (char& c : s)
        if (c == '-') c = '_';
    return s;
}

/// Shared artifact store for the whole test binary; stable across runs so a
/// warm cache skips every compile (what CI's warm pass measures).
const std::string& store_dir() {
    static const std::string dir = [] {
        const auto d = std::filesystem::temp_directory_path() / "sbd-native-test";
        std::filesystem::create_directories(d);
        return d.string();
    }();
    return dir;
}

std::shared_ptr<const Executable> build_native(const CompiledSystem& sys, BlockPtr root,
                                               Method method,
                                               const std::string& extra_flags = "",
                                               const std::string& cache_dir = "") {
    BackendConfig cfg;
    cfg.backend = Backend::Native;
    cfg.method = method;
    cfg.cache_dir = cache_dir.empty() ? store_dir() : cache_dir;
    cfg.extra_flags = extra_flags;
    return native::make_native_executable(sys, root, cfg);
}

void expect_rows_bit_equal(std::span<const double> a, std::span<const double> b,
                           const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    if (!a.empty())
        ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
            << what << ": outputs diverge bitwise";
}

/// The differential core: drive interpreter and native module with the same
/// deterministic inputs and require bitwise-identical outputs every instant,
/// plus bitwise-identical state snapshots at a few checkpoints.
void expect_native_matches_interp(const std::shared_ptr<const MacroBlock>& block,
                                  Method method, std::size_t instants, std::uint64_t seed,
                                  const std::string& extra_flags = "") {
    const CompiledSystem sys = compile_hierarchy(block, method);
    InterpInstance interp(sys, block);
    const auto exe = build_native(sys, block, method, extra_flags);
    const std::unique_ptr<Instance> nat = exe->instantiate();
    ASSERT_STREQ(exe->backend_name(), "native");
    ASSERT_EQ(interp.state_size(), nat->state_size())
        << block->type_name() << ": state-layout contract broken";

    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-4.0, 4.0);
    std::vector<double> in(block->num_inputs());
    std::vector<double> out_i(block->num_outputs()), out_n(block->num_outputs());
    for (std::size_t t = 0; t < instants; ++t) {
        for (double& v : in) v = dist(rng);
        interp.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        const std::string ctx = block->type_name() + " method=" + to_string(method) +
                                " seed=" + std::to_string(seed) + " t=" + std::to_string(t);
        expect_rows_bit_equal(out_i, out_n, ctx);
        if (t % 16 == 7) {
            std::vector<double> si, sn;
            interp.save_state(si);
            nat->save_state(sn);
            expect_rows_bit_equal(si, sn, ctx + " (state snapshot)");
        }
    }
}

// ------------------------------------------- demo suite, all six methods

class DemoSuiteDifferential : public ::testing::TestWithParam<Method> {};

TEST_P(DemoSuiteDifferential, NativeBitExactOverDemoSuite) {
    const Method method = GetParam();
    for (const auto& model : suite::demo_suite()) {
        const auto m = std::static_pointer_cast<const MacroBlock>(model.block);
        try {
            expect_native_matches_interp(m, method, 64, 0xD1FF + m->num_inputs());
        } catch (const SdgCycleError&) {
            // Rejection happens in compile_hierarchy, before either backend
            // exists — parity on this path is structural.
            EXPECT_TRUE(method == Method::Monolithic || method == Method::StepGet)
                << model.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DemoSuiteDifferential, ::testing::ValuesIn(kAllMethods),
                         [](const auto& info) { return method_id(info.param); });

// ------------------------------------------------- fuzzed hierarchies
//
// 500 seeded diagrams total, compiled -O0 to keep the host compiler fast.
// Sharded by TEST_P index so gtest_discover_tests turns every shard into
// its own ctest entry and `ctest -j` spreads the compiles.

constexpr std::size_t kFuzzPerShard = 50;

class FuzzRandom : public ::testing::TestWithParam<std::size_t> {};

/// 300 random hierarchies; the method rotates with the seed so every method
/// sees structural variety.
TEST_P(FuzzRandom, NativeBitExactOnRandomHierarchies) {
    const std::size_t base = GetParam() * kFuzzPerShard;
    for (std::size_t i = 0; i < kFuzzPerShard; ++i) {
        const std::uint64_t seed = 1000 + base + i;
        std::mt19937_64 rng(seed);
        suite::RandomModelParams p;
        p.depth = 2;
        p.subs_per_level = 3;
        p.macro_probability = 0.4;
        const auto m = suite::random_model(rng, p);
        const Method method = kAllMethods[(base + i) % 6];
        try {
            expect_native_matches_interp(m, method, 16, seed, "-O0");
        } catch (const SdgCycleError&) {
            EXPECT_TRUE(method == Method::Monolithic || method == Method::StepGet)
                << "seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FuzzRandom, ::testing::Range<std::size_t>(0, 6));

class FuzzDeepShared : public ::testing::TestWithParam<std::size_t> {};

/// 100 deep shared-type hierarchies with structural clones: exponential
/// instance trees over few distinct compilations, the artifact-store and
/// sub-instance-layout stress shape.
TEST_P(FuzzDeepShared, NativeBitExactOnDeepSharedHierarchies) {
    const std::size_t base = GetParam() * kFuzzPerShard;
    for (std::size_t i = 0; i < kFuzzPerShard; ++i) {
        const std::uint64_t seed = 7000 + base + i;
        std::mt19937_64 rng(seed);
        suite::DeepModelParams p;
        p.levels = 4;
        p.types_per_level = 2;
        p.subs_per_macro = 3;
        p.clone_probability = 0.3;
        const auto m = suite::random_deep_model(rng, p);
        const Method method = kAllMethods[2 + (base + i) % 4]; // never-rejected methods
        expect_native_matches_interp(m, method, 16, seed, "-O0");
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FuzzDeepShared, ::testing::Range<std::size_t>(0, 2));

class FuzzTriggered : public ::testing::TestWithParam<std::size_t> {};

/// 100 hierarchies with triggered sub-blocks (fire iff trigger >= 0.5, hold
/// otherwise): the guard-counter and held-output state must agree bitwise.
TEST_P(FuzzTriggered, NativeBitExactOnTriggeredHierarchies) {
    const std::size_t base = GetParam() * kFuzzPerShard;
    for (std::size_t i = 0; i < kFuzzPerShard; ++i) {
        const std::uint64_t seed = 9000 + base + i;
        std::mt19937_64 rng(seed);
        suite::RandomModelParams p;
        p.depth = 2;
        p.subs_per_level = 3;
        p.trigger_probability = 0.5;
        const auto m = suite::random_model(rng, p);
        const Method method = kAllMethods[2 + (base + i) % 4];
        expect_native_matches_interp(m, method, 16, seed, "-O0");
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FuzzTriggered, ::testing::Range<std::size_t>(0, 2));

// ------------------------------------------------ state-layout contract

TEST(StateContract, SnapshotsRestoreAcrossBackends) {
    const auto m = suite::fuel_controller();
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);
    InterpInstance interp(sys, m);
    const auto exe = build_native(sys, m, Method::Dynamic);
    const std::unique_ptr<Instance> nat = exe->instantiate();

    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> dist(-4.0, 4.0);
    std::vector<double> in(m->num_inputs());
    std::vector<double> out_i(m->num_outputs()), out_n(m->num_outputs());

    // Warm up only the interpreter, snapshot it into the native instance,
    // then require both to continue bit-identically — and symmetrically.
    for (std::size_t t = 0; t < 20; ++t) {
        for (double& v : in) v = dist(rng);
        interp.step_instant_into(in, out_i);
    }
    std::vector<double> blob;
    interp.save_state(blob);
    ASSERT_EQ(nat->restore_state(blob), blob.size());
    for (std::size_t t = 0; t < 20; ++t) {
        for (double& v : in) v = dist(rng);
        interp.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        expect_rows_bit_equal(out_i, out_n, "interp->native restore t=" + std::to_string(t));
    }

    blob.clear();
    nat->save_state(blob);
    InterpInstance fresh(sys, m);
    ASSERT_EQ(fresh.restore_state(blob), blob.size());
    for (std::size_t t = 0; t < 20; ++t) {
        for (double& v : in) v = dist(rng);
        fresh.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        expect_rows_bit_equal(out_i, out_n, "native->interp restore t=" + std::to_string(t));
    }
}

/// Under the dynamic method, a Gain read by `n` Sums (one per output) is
/// shared by n clusters, so its guard counter counts modulo n. The macro
/// sits behind a UnitDelay in an outer macro, so the counter lives in a
/// sub-instance at a nonzero state offset.
std::shared_ptr<const MacroBlock> shared_gain(std::size_t n) {
    std::vector<std::string> ins{"z"}, outs;
    for (std::size_t i = 0; i < n; ++i) {
        ins.push_back("a" + std::to_string(i));
        outs.push_back("y" + std::to_string(i));
    }
    auto fan = std::make_shared<MacroBlock>("Fan", ins, outs);
    fan->add_sub("S", lib::gain(2.0));
    fan->connect("z", "S.u");
    for (std::size_t i = 0; i < n; ++i) {
        const std::string sum = "A" + std::to_string(i);
        fan->add_sub(sum, lib::sum("++"));
        fan->connect(ins[i + 1], sum + ".u1");
        fan->connect("S.y", sum + ".u2");
        fan->connect(sum + ".y", outs[i]);
    }
    std::vector<std::string> outer_outs = outs;
    outer_outs.push_back("d");
    auto outer = std::make_shared<MacroBlock>("Outer", ins, outer_outs);
    outer->add_sub("D", lib::unit_delay(0.0));
    outer->add_sub("F", fan);
    outer->connect("z", "D.u");
    outer->connect("D.y", "d");
    for (const std::string& in : ins) outer->connect(in, "F." + in);
    for (const std::string& out : outs) outer->connect("F." + out, out);
    return outer;
}

/// Index in the state blob of the shared_gain counter, and its modulus.
std::pair<std::size_t, std::int32_t> shared_gain_counter(const CompiledSystem& sys,
                                                         const MacroBlock& outer) {
    const CodeUnit& code = *sys.root().code;
    const CodeUnit& fan = *sys.at(*outer.sub(1).type).code;
    const std::size_t at = code.num_slots + code.counter_mods.size() +
                           sys.at(*outer.sub(0).type).state_size + fan.num_slots;
    return {at, fan.counter_mods.at(0)};
}

TEST(StateContract, OutOfRangeGuardCountersAreRejectedByBothBackends) {
    const auto m = shared_gain(3);
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);
    const auto [at, mod] = shared_gain_counter(sys, *m);
    ASSERT_EQ(mod, 3);
    InterpInstance interp(sys, m);
    const auto exe = build_native(sys, m, Method::Dynamic);
    const std::unique_ptr<Instance> nat = exe->instantiate();

    std::vector<double> good;
    interp.save_state(good);
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), 2.5, -1.0, double(mod), 1e30}) {
        std::vector<double> blob = good;
        blob[at] = bad;
        for (Instance* inst : {static_cast<Instance*>(&interp), nat.get()}) {
            EXPECT_THROW((void)inst->restore_state(blob), std::invalid_argument)
                << inst->state_size() << " doubles, counter " << bad;
            std::vector<double> after;
            inst->save_state(after);
            EXPECT_EQ(after, good) << "a rejected blob changed the state";
        }
    }
}

TEST(StateContract, EveryGuardCounterValueStepsAlikeOnBothBackends) {
    // The interpreter keeps guard counters as doubles, the emitted code as
    // ints computing (c + 1) % mod. From every legal value, one interface
    // call (one bump) and one full instant must agree bit for bit.
    const auto m = shared_gain(5);
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);
    const auto [at, mod] = shared_gain_counter(sys, *m);
    ASSERT_EQ(mod, 5);
    InterpInstance interp(sys, m);
    const auto exe = build_native(sys, m, Method::Dynamic);
    const std::unique_ptr<Instance> nat = exe->instantiate();
    std::vector<double> in(m->num_inputs());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0.25 + static_cast<double>(i);
    std::vector<double> out_i(m->num_outputs()), out_n(m->num_outputs());
    interp.step_instant_into(in, out_i);
    std::vector<double> base;
    interp.save_state(base);
    const std::vector<double> args(interp.profile().functions[0].reads.size(), 0.75);
    for (std::int32_t c = 0; c < mod; ++c) {
        std::vector<double> blob = base;
        blob[at] = c;
        const std::string ctx = "counter " + std::to_string(c);
        std::vector<double> si, sn;
        interp.restore_state(blob);
        nat->restore_state(blob);
        expect_rows_bit_equal(interp.call(0, args), nat->call(0, args), ctx + " (one call)");
        interp.save_state(si);
        nat->save_state(sn);
        expect_rows_bit_equal(si, sn, ctx + " (state after one call)");
        EXPECT_EQ(si[at], (c + 1) % mod) << ctx;

        interp.restore_state(blob);
        nat->restore_state(blob);
        interp.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        expect_rows_bit_equal(out_i, out_n, ctx + " (one instant)");
        si.clear();
        sn.clear();
        interp.save_state(si);
        nat->save_state(sn);
        expect_rows_bit_equal(si, sn, ctx + " (state after one instant)");
    }
}

// ------------------------------------------------------- error parity

template <typename F> std::string thrown_what(F&& f) {
    try {
        f();
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

TEST(ErrorParity, ValidationMessagesAreIdenticalAcrossBackends) {
    const auto m = suite::counter_limited();
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);
    InterpInstance interp(sys, m);
    const auto exe = build_native(sys, m, Method::Dynamic);
    const std::unique_ptr<Instance> nat = exe->instantiate();

    const std::vector<double> junk(16, 0.0);
    const auto wrong_args = [&](Instance& inst) {
        return thrown_what([&] {
            inst.call(0, std::span<const double>(junk.data(),
                                                 inst.profile().functions[0].reads.size() + 1));
        });
    };
    const auto wrong_inputs = [&](Instance& inst) {
        return thrown_what(
            [&] { inst.step_instant(std::span<const double>(junk.data(), m->num_inputs() + 3)); });
    };
    const auto short_blob = [&](Instance& inst) {
        return thrown_what(
            [&] { inst.restore_state(std::span<const double>(junk.data(), 0)); });
    };

    EXPECT_FALSE(wrong_args(interp).empty());
    EXPECT_EQ(wrong_args(interp), wrong_args(*nat));
    EXPECT_FALSE(wrong_inputs(interp).empty());
    EXPECT_EQ(wrong_inputs(interp), wrong_inputs(*nat));
    EXPECT_FALSE(short_blob(interp).empty());
    EXPECT_EQ(short_blob(interp), short_blob(*nat));
}

TEST(ErrorParity, OpaqueModelsRejectedByBothBackends) {
    const auto file = text::parse_sbd_file(std::string(SBD_MODELS_DIR) +
                                           "/vendor_integration.sbd");
    const CompiledSystem sys = compile_hierarchy(file.root, Method::Dynamic);
    // Interpreter: rejected when the instance is constructed.
    EXPECT_THROW(InterpInstance(sys, file.root), std::logic_error);
    // Native: rejected when the module is emitted, with the coded error the
    // tools map to exit 9.
    try {
        build_native(sys, file.root, Method::Dynamic);
        FAIL() << "opaque model must not build natively";
    } catch (const BackendError& e) {
        EXPECT_EQ(e.code(), BackendError::Code::EmitFailed);
    }
}

TEST(ErrorParity, MissingCompilerIsACodedError) {
    const auto m = suite::counter_limited();
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);
    BackendConfig cfg;
    cfg.backend = Backend::Native;
    cfg.cache_dir = store_dir();
    cfg.compiler = "/nonexistent/definitely-not-a-compiler";
    try {
        native::make_native_executable(sys, m, cfg);
        FAIL() << "missing compiler must not succeed";
    } catch (const BackendError& e) {
        EXPECT_EQ(e.code(), BackendError::Code::NoCompiler);
    }
}

// ----------------------------------------------- artifact-store healing

TEST(ArtifactStore, CorruptedArtifactIsRebuiltNotFatal) {
    namespace fs = std::filesystem;
    const auto m = suite::thermostat();
    const CompiledSystem sys = compile_hierarchy(m, Method::Dynamic);

    const fs::path dir_a = fs::temp_directory_path() / "sbd-native-test-corrupt-a";
    const fs::path dir_b = fs::temp_directory_path() / "sbd-native-test-corrupt-b";
    fs::remove_all(dir_a);
    fs::remove_all(dir_b);
    fs::create_directories(dir_b);

    const auto exe_a = build_native(sys, m, Method::Dynamic, "", dir_a.string());
    const native::BuildInfo* info = native::build_info(*exe_a);
    ASSERT_NE(info, nullptr);
    ASSERT_TRUE(fs::exists(info->artifact_path));

    // Plant a corrupted artifact at the exact path the store will probe
    // (same content key, different directory — so the in-process build memo
    // cannot mask the reload).
    const fs::path corrupted = dir_b / fs::path(info->artifact_path).filename();
    std::ofstream(corrupted, std::ios::binary) << "this is not a shared object";

    const auto exe_b = build_native(sys, m, Method::Dynamic, "", dir_b.string());
    const native::BuildInfo* info_b = native::build_info(*exe_b);
    ASSERT_NE(info_b, nullptr);
    EXPECT_FALSE(info_b->cache_hit);

    // And the healed module still matches the interpreter.
    InterpInstance interp(sys, m);
    const std::unique_ptr<Instance> nat = exe_b->instantiate();
    std::vector<double> in(m->num_inputs(), 1.0);
    std::vector<double> out_i(m->num_outputs()), out_n(m->num_outputs());
    for (std::size_t t = 0; t < 8; ++t) {
        interp.step_instant_into(in, out_i);
        nat->step_instant_into(in, out_n);
        expect_rows_bit_equal(out_i, out_n, "healed artifact t=" + std::to_string(t));
    }
    fs::remove_all(dir_a);
    fs::remove_all(dir_b);
}

TEST(ArtifactStore, SecondBuildIsACacheHit) {
    namespace fs = std::filesystem;
    const auto m = suite::gear_logic();
    const CompiledSystem sys = compile_hierarchy(m, Method::Singletons);
    const fs::path dir = fs::temp_directory_path() / "sbd-native-test-warm";
    fs::remove_all(dir);

    const auto cold = build_native(sys, m, Method::Singletons, "-O1", dir.string());
    const native::BuildInfo* cold_info = native::build_info(*cold);
    ASSERT_NE(cold_info, nullptr);
    EXPECT_FALSE(cold_info->cache_hit);
    EXPECT_GT(cold_info->tu_bytes, 0u);
    EXPECT_GT(cold_info->so_bytes, 0u);

    // Same key from the same process: served from the build memo.
    const auto warm = build_native(sys, m, Method::Singletons, "-O1", dir.string());
    const native::BuildInfo* warm_info = native::build_info(*warm);
    ASSERT_NE(warm_info, nullptr);
    EXPECT_TRUE(warm_info->cache_hit);
    EXPECT_EQ(warm_info->artifact_path, cold_info->artifact_path);
    fs::remove_all(dir);
}

// ------------------------------------------------- emit_cpp golden files

std::string read_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << "missing golden file " << path
                             << " (regenerate with sbdc --emit cpp)";
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void expect_matches_golden(const std::string& model_file, Method method,
                           const std::string& golden_file) {
    const auto file = text::parse_sbd_file(std::string(SBD_MODELS_DIR) + "/" + model_file);
    const CompiledSystem sys = compile_hierarchy(file.root, method);
    const std::string emitted = emit_cpp(sys);
    const std::string golden = read_file(std::string(SBD_NATIVE_DIR) + "/" + golden_file);
    // Byte-pinned on purpose: any emitter change must consciously touch the
    // golden, because silent drift here is a silent native-backend change.
    EXPECT_EQ(emitted, golden) << "emit_cpp drifted from " << golden_file;
}

TEST(EmitCppGolden, Figure3Dynamic) {
    expect_matches_golden("figure3.sbd", Method::Dynamic, "figure3_dynamic.golden.cpp");
}

TEST(EmitCppGolden, ThermostatDisjointGreedy) {
    expect_matches_golden("thermostat.sbd", Method::DisjointGreedy,
                          "thermostat_disjoint_greedy.golden.cpp");
}

} // namespace
