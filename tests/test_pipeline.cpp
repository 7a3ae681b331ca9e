// Differential test harness for the memoized parallel compilation pipeline.
//
// The oracle below reimplements the original serial bottom-up recursion
// (pre-pipeline compile_hierarchy) from the public building blocks; every
// pipeline configuration — serial, warm in-memory, warm from disk, parallel
// — must produce bit-identical artifacts (profiles, SDGs, clusterings,
// pseudocode, emitted C++, simulation traces, SAT statistics) and identical
// rejections. The adversary tests then attack the cache itself: key
// sensitivity, on-disk corruption, and same-key races.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "analysis/lint.hpp"
#include "core/emit_cpp.hpp"
#include "core/exec.hpp"
#include "core/pipeline.hpp"
#include "helpers.hpp"
#include "sbd/library.hpp"
#include "sbd/opaque.hpp"
#include "sbd/text_format.hpp"
#include "suite/random_models.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sbd;
using namespace sbd::codegen;

// --------------------------------------------------------------- rendering

void render_block(std::string& out, const std::string& name, const Profile& profile,
                  const std::optional<Sdg>& sdg, const std::optional<Clustering>& clustering,
                  const std::optional<CodeUnit>& code) {
    out += "=== " + name + " ===\n";
    out += profile.to_string();
    if (sdg) out += sdg->graph.to_dot(sdg->labels());
    if (clustering) {
        out += "clusters(" + std::string(to_string(clustering->method)) + "):";
        for (const auto& cl : clustering->clusters) {
            out += " {";
            for (const auto v : cl) out += std::to_string(v) + ",";
            out += "}";
        }
        out += "\n";
    }
    if (code) out += code->to_pseudocode();
}

/// Deterministic stand-in for emit_cpp on models it rejects (interface-only
/// opaque blocks have no implementation to emit): the error text itself
/// becomes the compared artifact.
std::string emitted_or_error(const CompiledSystem& sys) {
    try {
        return emit_cpp(sys);
    } catch (const std::exception& e) {
        return std::string("<emit_cpp rejected: ") + e.what() + ">";
    }
}

/// Canonical rendering of everything a compilation produces. Two compiles
/// are "bit-identical" for this harness iff their renderings match and
/// their emitted C++ matches.
std::string render(const CompiledSystem& sys) {
    std::string out;
    for (const Block* b : sys.order()) {
        const auto& cb = sys.at(*b);
        render_block(out, b->type_name(), cb.profile, cb.sdg, cb.clustering, cb.code);
    }
    out += "---- emitted ----\n";
    out += emitted_or_error(sys);
    return out;
}

std::string render_sat(const SatClusterStats& s) {
    return std::to_string(s.iterations) + "/" + std::to_string(s.first_k) + "/" +
           std::to_string(s.final_k) + "/" + std::to_string(s.vars) + "/" +
           std::to_string(s.clauses) + "/" + std::to_string(s.conflicts) + "/" +
           std::to_string(s.decisions) + "/" + std::to_string(s.propagations);
}

// ------------------------------------------------------------------ oracle

/// The seed compiler: a line-for-line reimplementation of the original
/// serial recursion over the public API, rendering as it goes. Kept
/// independent of CompiledSystem/Pipeline on purpose — if the pipeline and
/// this ever disagree, the pipeline is wrong.
struct Oracle {
    Method method;
    ClusterOptions opts;
    std::unordered_map<const Block*, Profile> done;
    std::string rendering;
    SatClusterStats sat;

    const Profile& compile(const BlockPtr& block) {
        const auto it = done.find(block.get());
        if (it != done.end()) return it->second;
        if (block->is_atomic()) {
            Profile p = block->is_opaque()
                            ? opaque_profile(static_cast<const OpaqueBlock&>(*block))
                            : atomic_profile(static_cast<const AtomicBlock&>(*block));
            render_block(rendering, block->type_name(), p, std::nullopt, std::nullopt,
                         std::nullopt);
            return done.emplace(block.get(), std::move(p)).first->second;
        }
        const auto& macro = static_cast<const MacroBlock&>(*block);
        for (std::size_t s = 0; s < macro.num_subs(); ++s) compile(macro.sub(s).type);
        std::vector<const Profile*> subs;
        for (std::size_t s = 0; s < macro.num_subs(); ++s)
            subs.push_back(&done.at(macro.sub(s).type.get()));
        const Sdg sdg = build_sdg(macro, subs);
        const Clustering clustering = cluster(sdg, method, opts, &sat);
        auto gen = generate_code(macro, subs, sdg, clustering);
        render_block(rendering, macro.type_name(), gen.profile, sdg, clustering, gen.code);
        return done.emplace(block.get(), std::move(gen.profile)).first->second;
    }
};

/// The oracle's rendering of a whole hierarchy (without the emitted-C++
/// tail, which needs a CompiledSystem); throws exactly like the seed.
std::string oracle_render(const BlockPtr& root, Method method, const ClusterOptions& opts,
                          SatClusterStats* sat = nullptr) {
    Oracle oracle{method, opts, {}, {}, {}};
    oracle.compile(root);
    if (sat != nullptr) *sat = oracle.sat;
    return oracle.rendering;
}

std::string render_without_emitted(const CompiledSystem& sys) {
    std::string out;
    for (const Block* b : sys.order()) {
        const auto& cb = sys.at(*b);
        render_block(out, b->type_name(), cb.profile, cb.sdg, cb.clustering, cb.code);
    }
    return out;
}

/// Exact (==, not nearly-equal) output trace of the generated code; models
/// that cannot execute (interface-only externs) contribute the error text.
std::pair<std::vector<std::vector<double>>, std::string>
exact_trace(const CompiledSystem& sys, const std::shared_ptr<const MacroBlock>& root,
            std::size_t steps) {
    std::vector<std::vector<double>> out;
    try {
        InterpInstance inst(sys, root);
        const auto inputs = sbd::testing::random_trace(root->num_inputs(), steps, 99);
        for (const auto& row : inputs) out.push_back(inst.step_instant(row));
    } catch (const std::exception& e) {
        return {std::move(out), e.what()};
    }
    return {std::move(out), ""};
}

constexpr Method kAllMethods[] = {Method::Monolithic,     Method::StepGet,
                                  Method::Dynamic,        Method::DisjointSat,
                                  Method::DisjointGreedy, Method::Singletons};

struct TempDir {
    fs::path path;
    TempDir() {
        path = fs::temp_directory_path() /
               ("sbd_pipeline_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/// Compiles `root` under every pipeline configuration and asserts all of
/// them equal each other and the oracle. Returns false if the method
/// rejects the model (and then asserts every configuration rejects it with
/// the same message).
bool expect_all_paths_identical(const std::shared_ptr<const MacroBlock>& root, Method method,
                                const ClusterOptions& copts = {}) {
    std::string expected;
    SatClusterStats oracle_sat;
    std::string oracle_error;
    try {
        expected = oracle_render(root, method, copts, &oracle_sat);
    } catch (const std::exception& e) {
        oracle_error = e.what();
        if (oracle_error.empty()) oracle_error = "<empty>";
    }

    TempDir dir;
    const auto run = [&](PipelineOptions popts, std::shared_ptr<ProfileCache> cache,
                         const char* label) -> std::optional<CompiledSystem> {
        popts.method = method;
        popts.cluster = copts;
        Pipeline p = cache ? Pipeline(popts, cache) : Pipeline(popts);
        SatClusterStats sat;
        try {
            CompiledSystem sys = p.compile(root, &sat);
            EXPECT_EQ(oracle_error, "") << label << ": pipeline accepted, oracle rejected";
            EXPECT_EQ(render_without_emitted(sys), expected) << label;
            EXPECT_EQ(render_sat(sat), render_sat(oracle_sat)) << label;
            return sys;
        } catch (const std::exception& e) {
            EXPECT_EQ(oracle_error, std::string(e.what())) << label;
            return std::nullopt;
        }
    };

    PipelineOptions serial_opts;
    const auto serial = run(serial_opts, nullptr, "serial");

    // Warm: same cache, second compile must be all hits and still identical.
    auto shared = std::make_shared<ProfileCache>();
    run(serial_opts, shared, "cold-shared");
    const auto warm = run(serial_opts, shared, "warm");

    PipelineOptions par_opts;
    par_opts.threads = 4;
    const auto parallel = run(par_opts, nullptr, "parallel");

    PipelineOptions disk_opts;
    disk_opts.cache_dir = (dir.path / "cache").string();
    run(disk_opts, nullptr, "disk-cold");
    const auto disk_warm = run(disk_opts, nullptr, "disk-warm"); // fresh memory, warm disk

    PipelineOptions par_disk_opts = disk_opts;
    par_disk_opts.threads = 4;
    const auto par_disk = run(par_disk_opts, nullptr, "parallel-disk-warm");

    if (!serial.has_value()) return false;
    if (!warm || !parallel || !disk_warm || !par_disk) return true; // EXPECTs already failed

    // Emitted C++ and exact simulation traces across all configurations.
    const std::string cpp = emitted_or_error(*serial);
    const auto trace = exact_trace(*serial, root, 20);
    for (const CompiledSystem* sys : {&*warm, &*parallel, &*disk_warm, &*par_disk}) {
        EXPECT_EQ(emitted_or_error(*sys), cpp);
        EXPECT_EQ(exact_trace(*sys, root, 20), trace);
    }
    return true;
}

// ------------------------------------------------- differential: shipped

TEST(PipelineDifferential, ShippedModels) {
    for (const auto& entry : fs::directory_iterator(SBD_MODELS_DIR)) {
        if (entry.path().extension() != ".sbd") continue;
        const auto file = text::parse_sbd_file(entry.path().string());
        for (const Method method : kAllMethods)
            expect_all_paths_identical(file.root, method);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "first failing model: " << entry.path();
            return;
        }
    }
}

TEST(PipelineDifferential, ShippedModelsWithContracts) {
    ClusterOptions copts;
    copts.verify_contracts = true;
    for (const auto& entry : fs::directory_iterator(SBD_MODELS_DIR)) {
        if (entry.path().extension() != ".sbd") continue;
        const auto file = text::parse_sbd_file(entry.path().string());
        expect_all_paths_identical(file.root, Method::Dynamic, copts);
    }
}

// -------------------------------------------------- differential: fuzzed

class PipelineFuzz : public ::testing::TestWithParam<Method> {};

TEST_P(PipelineFuzz, FuzzedDiagramsAllPathsIdentical) {
    const Method method = GetParam();
    std::mt19937_64 rng(7000 + static_cast<std::uint64_t>(method));
    int accepted = 0, rejected = 0;
    for (int iter = 0; iter < 200; ++iter) {
        suite::RandomModelParams params;
        params.depth = 1 + iter % 2;
        params.subs_per_level = 3 + iter % 3;
        const auto m = suite::random_model(rng, params);
        (expect_all_paths_identical(m, method) ? accepted : rejected)++;
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "first failing iteration: " << iter;
            return;
        }
    }
    // Maximal-reusability methods never reject the generator's output.
    if (method == Method::Dynamic || method == Method::DisjointSat ||
        method == Method::DisjointGreedy || method == Method::Singletons)
        EXPECT_EQ(rejected, 0);
    EXPECT_GT(accepted, 0);
}

std::string method_name(const ::testing::TestParamInfo<Method>& info) {
    std::string s = to_string(info.param);
    for (char& c : s)
        if (c == '-') c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllMethods, PipelineFuzz, ::testing::ValuesIn(kAllMethods),
                         method_name);

// ------------------------------------------------ differential: hierarchy

TEST(PipelineDifferential, DeepSharedHierarchyHighHitRate) {
    std::mt19937_64 rng(8101);
    suite::DeepModelParams params;
    params.levels = 6;
    params.clone_probability = 0.3;
    const auto m = suite::random_deep_model(rng, params);

    PipelineOptions popts;
    Pipeline serial(popts);
    const auto sys = serial.compile(m);

    // Shared types: far more macro instances exist than distinct compiles.
    const auto stats = serial.stats();
    EXPECT_GT(stats.macro_reuses, 0u);
    std::printf("deep hierarchy: %llu compiles, %llu reuses (hit rate %.2f)\n",
                static_cast<unsigned long long>(stats.macro_compiles),
                static_cast<unsigned long long>(stats.macro_reuses), stats.hit_rate());

    // Clones are distinct objects with identical structure: the pointer-level
    // order() contains them separately, but the cache compiled each distinct
    // structure once. Parallel + oracle equivalence on the same model:
    expect_all_paths_identical(m, Method::Dynamic);
}

TEST(PipelineDifferential, CloneFingerprintsIdentically) {
    std::mt19937_64 rng(8202);
    suite::RandomModelParams params;
    params.depth = 2;
    const auto m = suite::random_model(rng, params);
    const auto c = suite::clone_macro(*m);
    ASSERT_NE(static_cast<const Block*>(m.get()), static_cast<const Block*>(c.get()));
    const Fingerprint fm = fingerprint_block(*m);
    const Fingerprint fc = fingerprint_block(*c);
    EXPECT_EQ(fm.hex(), fc.hex());

    // A hierarchy containing both the original and the clone compiles the
    // shared structure once.
    auto parent = std::make_shared<MacroBlock>("Both", std::vector<std::string>{"i0", "i1"},
                                               std::vector<std::string>{"o0", "o1"});
    parent->add_sub("a", m);
    parent->add_sub("b", c);
    for (int s = 0; s < 2; ++s)
        for (std::size_t i = 0; i < m->num_inputs(); ++i)
            parent->connect(Endpoint{Endpoint::Kind::MacroInput, -1,
                                     static_cast<std::int32_t>(i % parent->num_inputs())},
                            Endpoint{Endpoint::Kind::SubInput, s, static_cast<std::int32_t>(i)});
    parent->connect(Endpoint{Endpoint::Kind::SubOutput, 0, 0},
                    Endpoint{Endpoint::Kind::MacroOutput, -1, 0});
    parent->connect(Endpoint{Endpoint::Kind::SubOutput, 1, 0},
                    Endpoint{Endpoint::Kind::MacroOutput, -1, 1});
    parent->validate();

    Pipeline p{PipelineOptions{}};
    (void)p.compile(parent);
    const auto stats = p.stats();
    EXPECT_GE(stats.macro_reuses, 1u) << "clone should hit the cache, not recompile";
    expect_all_paths_identical(parent, Method::Dynamic);
}

// -------------------------------------------------- adversary: fingerprint

TEST(CacheAdversary, FingerprintSensitivity) {
    // Base diagram rebuilt from scratch by a parameterized builder: any
    // single structural mutation must change the fingerprint.
    struct Cfg {
        std::string name = "M";
        std::string in0 = "a", in1 = "b", out0 = "y";
        std::string sub0 = "g", sub1 = "d";
        double gain = 2.0, init = 0.5;
        bool swap_connection_order = false;
        bool rewire_to_delay = false;
        bool extra_sub = false;
        bool trigger = false;
    };
    const auto build = [](const Cfg& c) {
        auto m = std::make_shared<MacroBlock>(c.name, std::vector<std::string>{c.in0, c.in1},
                                              std::vector<std::string>{c.out0});
        m->add_sub(c.sub0, lib::gain(c.gain));
        m->add_sub(c.sub1, lib::unit_delay(c.init));
        if (c.extra_sub) m->add_sub("extra", lib::abs_block());
        if (c.trigger)
            m->set_trigger(1, Endpoint{Endpoint::Kind::MacroInput, -1, 1});
        const Endpoint gain_in{Endpoint::Kind::SubInput, 0, 0};
        const Endpoint delay_in{Endpoint::Kind::SubInput, 1, 0};
        const Endpoint src0{Endpoint::Kind::MacroInput, -1, 0};
        const Endpoint src1{Endpoint::Kind::MacroInput, -1, 1};
        std::vector<std::pair<Endpoint, Endpoint>> wires;
        wires.emplace_back(src0, gain_in);
        wires.emplace_back(c.rewire_to_delay ? src0 : src1, delay_in);
        if (c.extra_sub)
            wires.emplace_back(src1, Endpoint{Endpoint::Kind::SubInput, 2, 0});
        if (c.swap_connection_order) std::swap(wires[0], wires[1]);
        for (const auto& [s, d] : wires) m->connect(s, d);
        m->connect(Endpoint{Endpoint::Kind::SubOutput, 0, 0},
                   Endpoint{Endpoint::Kind::MacroOutput, -1, 0});
        m->validate();
        return m;
    };

    const Cfg base;
    const std::string base_fp = fingerprint_block(*build(base)).hex();
    // Determinism first: rebuilding the identical structure re-fingerprints
    // identically.
    EXPECT_EQ(base_fp, fingerprint_block(*build(base)).hex());

    const auto mutated = [&](const char* what, const Cfg& c) {
        EXPECT_NE(base_fp, fingerprint_block(*build(c)).hex()) << what;
    };
    {
        Cfg c; c.name = "N"; mutated("type name", c);
    }
    {
        Cfg c; c.in0 = "a2"; mutated("input port name", c);
    }
    {
        Cfg c; c.out0 = "z"; mutated("output port name", c);
    }
    {
        Cfg c; c.sub0 = "g2"; mutated("sub instance name", c);
    }
    {
        Cfg c; c.gain = 2.5; mutated("atomic parameter", c);
    }
    {
        Cfg c; c.init = 0.25; mutated("initial state", c);
    }
    {
        Cfg c; c.swap_connection_order = true; mutated("connection order", c);
    }
    {
        Cfg c; c.rewire_to_delay = true; mutated("connection endpoint", c);
    }
    {
        Cfg c; c.extra_sub = true; mutated("added sub-block", c);
    }
    {
        Cfg c; c.trigger = true; mutated("trigger", c);
    }
}

TEST(CacheAdversary, CompileKeySeparatesMethodsAndOptions) {
    const Fingerprint fp = fingerprint_block(*lib::gain(1.0));
    std::vector<std::string> keys;
    for (const Method m : kAllMethods) keys.push_back(compile_key(fp, m, {}).hex());
    for (std::size_t a = 0; a < keys.size(); ++a)
        for (std::size_t b = a + 1; b < keys.size(); ++b) EXPECT_NE(keys[a], keys[b]);

    // Every ClusterOptions field must flow into both canonical_options and
    // the compile key (the add-a-field tripwire's runtime half).
    const ClusterOptions base;
    const auto differs = [&](const char* what, const ClusterOptions& opts) {
        EXPECT_NE(canonical_options(base), canonical_options(opts)) << what;
        EXPECT_NE(compile_key(fp, Method::Dynamic, base).hex(),
                  compile_key(fp, Method::Dynamic, opts).hex())
            << what;
    };
    {
        ClusterOptions o; o.fold_update_into_get = false; differs("fold_update_into_get", o);
    }
    {
        ClusterOptions o; o.sat_start_k = 3; differs("sat_start_k", o);
    }
    {
        ClusterOptions o; o.sat_symmetry_breaking = false; differs("sat_symmetry_breaking", o);
    }
    {
        ClusterOptions o; o.sat_conflict_budget = 1000; differs("sat_conflict_budget", o);
    }
    {
        ClusterOptions o; o.verify_contracts = true; differs("verify_contracts", o);
    }
    {
        ClusterOptions o; o.sat_budget_degrade = true; differs("sat_budget_degrade", o);
    }
}

// ------------------------------------------------------ adversary: disk

TEST(CacheAdversary, DiskTamperingDegradesToRecompute) {
    std::mt19937_64 rng(9001);
    suite::RandomModelParams params;
    params.depth = 2;
    const auto m = suite::random_model(rng, params);

    TempDir dir;
    const std::string cache = (dir.path / "cache").string();
    PipelineOptions popts;
    popts.cache_dir = cache;
    std::string expected;
    {
        Pipeline p(popts);
        expected = render(p.compile(m));
    }
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(cache)) files.push_back(e.path());
    ASSERT_FALSE(files.empty());

    const auto recompile_expect_identical = [&](const char* what, std::uint64_t min_rejects) {
        Pipeline p(popts);
        EXPECT_EQ(render(p.compile(m)), expected) << what;
        EXPECT_GE(p.stats().disk_rejects, min_rejects) << what;
    };

    const auto reload = [&](const fs::path& f) {
        std::ifstream in(f, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>());
    };
    const auto rewrite = [&](const fs::path& f, const std::vector<char>& bytes) {
        std::ofstream out(f, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };

    // 1. Flip one byte in the middle of every record (payload corruption).
    std::vector<std::vector<char>> originals;
    for (const auto& f : files) originals.push_back(reload(f));
    for (std::size_t i = 0; i < files.size(); ++i) {
        auto bytes = originals[i];
        bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
        rewrite(files[i], bytes);
    }
    recompile_expect_identical("byte flip", files.size());

    // 2. Truncate to every interesting prefix length.
    {
        Pipeline warmup(popts); // restore good files
        (void)warmup.compile(m);
    }
    for (std::size_t i = 0; i < files.size(); ++i) {
        auto bytes = originals[i];
        bytes.resize(bytes.size() / 3);
        rewrite(files[i], bytes);
    }
    recompile_expect_identical("truncation", files.size());

    // 3. Garbage and empty files.
    {
        Pipeline warmup(popts);
        (void)warmup.compile(m);
    }
    for (std::size_t i = 0; i < files.size(); ++i)
        rewrite(files[i], std::vector<char>(i % 2 == 0 ? 0 : 100, 'x'));
    recompile_expect_identical("garbage", files.size());

    // 4. Header key mismatch: a valid record under the wrong file name.
    {
        Pipeline warmup(popts);
        (void)warmup.compile(m);
        ASSERT_GE(files.size(), 1u);
        auto bytes = reload(files[0]);
        // Flip a key byte inside the header (offset 8 = first key byte).
        bytes[9] = static_cast<char>(bytes[9] ^ 0xff);
        rewrite(files[0], bytes);
    }
    recompile_expect_identical("key mismatch", 1);

    // Rejected files are deleted, then rewritten by the recompute: the
    // cache heals itself.
    Pipeline p(popts);
    EXPECT_EQ(render(p.compile(m)), expected);
    EXPECT_EQ(p.stats().disk_rejects, 0u);
    EXPECT_EQ(p.stats().macro_compiles, 0u);
}

TEST(CacheAdversary, Figure3RootRecordMatchesGolden) {
    // The on-disk cache record (SBDP header, serialized entry, Hasher
    // trailer) of figure3's root block under the default options.
    const auto root = text::parse_sbd_file(std::string(SBD_MODELS_DIR) + "/figure3.sbd").root;
    TempDir dir;
    PipelineOptions popts;
    popts.cache_dir = (dir.path / "cache").string();
    {
        Pipeline p(popts);
        (void)p.compile(root);
    }
    const Fingerprint key = compile_key(fingerprint_block(*root), popts.method, popts.cluster);
    const fs::path record = dir.path / "cache" / (key.hex() + ".sbdp");
    ASSERT_TRUE(fs::exists(record));
    sbd::testing::expect_matches_golden(SBD_GOLDEN_DIR, "figure3_root.sbdp.bin",
                                        sbd::testing::read_bytes(record));
}

TEST(CacheAdversary, EntryRoundTripAndTruncationSafety) {
    std::mt19937_64 rng(9102);
    suite::RandomModelParams params;
    params.depth = 1;
    const auto m = suite::random_model(rng, params);
    Pipeline p{PipelineOptions{}};
    const auto sys = p.compile(m);
    const auto& cb = sys.root();

    CacheEntry entry;
    entry.profile = cb.profile;
    entry.sdg = cb.sdg;
    entry.clustering = cb.clustering;
    entry.code = cb.code;
    entry.sat_delta.iterations = 3;
    entry.sat_delta.conflicts = 41;

    const auto bytes = serialize_entry(entry);
    const auto back = deserialize_entry(bytes);
    ASSERT_TRUE(back.has_value());
    // Round trip is exact: re-serialization is byte-identical, and the
    // reconstructed artifacts render identically.
    EXPECT_EQ(serialize_entry(*back), bytes);
    std::string a, b;
    render_block(a, "x", entry.profile, entry.sdg, entry.clustering, entry.code);
    render_block(b, "x", back->profile, back->sdg, back->clustering, back->code);
    EXPECT_EQ(a, b);
    EXPECT_EQ(back->sat_delta.conflicts, 41u);

    // No prefix, corruption or extension may crash; a parse that
    // "succeeds" must never reproduce the original entry from different
    // bytes.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const auto r = deserialize_entry(std::span<const std::uint8_t>(bytes.data(), len));
        if (r) EXPECT_NE(serialize_entry(*r), bytes) << "prefix length " << len;
    }
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(deserialize_entry(extended).has_value());
    std::mt19937_64 fuzz(424242);
    for (int iter = 0; iter < 200; ++iter) {
        auto mutated = bytes;
        const std::size_t at = fuzz() % mutated.size();
        mutated[at] = static_cast<std::uint8_t>(fuzz());
        (void)deserialize_entry(mutated); // must not crash or hang
    }
}

// --------------------------------------------------- adversary: same key

TEST(CacheAdversary, ConcurrentSameKeyCompilesProduceOneEntry) {
    std::mt19937_64 rng(9203);
    suite::RandomModelParams params;
    params.depth = 2;
    params.subs_per_level = 5;
    const auto m = suite::random_model(rng, params);

    const std::string expected = [&] {
        Pipeline p{PipelineOptions{}};
        return render(p.compile(m));
    }();

    auto cache = std::make_shared<ProfileCache>();
    std::vector<std::string> renderings(8);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < renderings.size(); ++t)
            threads.emplace_back([&, t] {
                PipelineOptions popts;
                popts.threads = 1 + t % 4;
                Pipeline p(popts, cache);
                renderings[t] = render(p.compile(m));
            });
        for (auto& th : threads) th.join();
    }
    for (const auto& r : renderings) EXPECT_EQ(r, expected);

    // One entry per distinct (sub-diagram, method, options) — racing
    // compilers never duplicate or split an entry.
    std::size_t distinct_macros = 0;
    {
        Pipeline counter{PipelineOptions{}};
        const auto sys = counter.compile(m);
        for (const Block* b : sys.order())
            if (!b->is_atomic()) ++distinct_macros;
    }
    EXPECT_EQ(cache->size(), distinct_macros);
}

// --------------------------------------------------------- stats & cache

TEST(ProfileCache, LruEvictionAtCapacity) {
    std::mt19937_64 rng(9304);
    auto cache = std::make_shared<ProfileCache>(1); // capacity one entry
    suite::RandomModelParams params;
    params.depth = 1;
    PipelineOptions popts;
    for (int iter = 0; iter < 4; ++iter) {
        const auto m = suite::random_model(rng, params);
        Pipeline p(popts, cache);
        (void)p.compile(m);
    }
    EXPECT_EQ(cache->size(), 1u);
    EXPECT_GE(cache->stats().evictions, 3u);
}

TEST(ProfileCache, StatsJsonWellFormedAndConsistent) {
    std::mt19937_64 rng(9405);
    suite::RandomModelParams params;
    params.depth = 2;
    const auto m = suite::random_model(rng, params);
    PipelineOptions popts;
    Pipeline p(popts);
    (void)p.compile(m);
    (void)p.compile(m); // second run: all reuses (same Block*, same cache)
    const auto stats = p.stats();
    EXPECT_EQ(stats.mem_hits + stats.mem_misses,
              stats.macro_compiles + stats.macro_reuses);
    EXPECT_GT(stats.macro_reuses, 0u);
    const std::string json = stats.to_json();
    for (const char* key : {"\"mem_hits\"", "\"disk_rejects\"", "\"hit_rate\"",
                            "\"fingerprint\"", "\"total\""})
        EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
}

TEST(Pipeline, LintSharedCacheMakesProbesIncremental) {
    // The SBD013 which-methods-accept probe compiles the model under all
    // six methods; with a shared cache, linting the same file twice does
    // no new compilation work.
    const std::string model = std::string(SBD_MODELS_DIR) + "/thermostat.sbd";
    analysis::LintOptions lopts;
    lopts.method = Method::Monolithic; // forces the false-cycle probe
    lopts.cache = std::make_shared<ProfileCache>();
    const auto first = analysis::lint_file(model, lopts);
    const auto baseline = lopts.cache->stats();
    const auto second = analysis::lint_file(model, lopts);
    const auto after = lopts.cache->stats();
    EXPECT_EQ(analysis::render_json(first), analysis::render_json(second));
    EXPECT_GT(after.mem_hits, baseline.mem_hits);
}

} // namespace
