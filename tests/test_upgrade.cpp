// Live model upgrades: the structural diff, the migration planner, the
// incremental recompile, and the hot-swap machinery — gated by the PR's
// central differential: an upgrade applied in place to a running engine
// must be bit-identical, from the swap instant onward, to stopping,
// recompiling the new version from scratch, migrating saved snapshots and
// restarting. The gate runs over the demo suite under every clustering
// method, over both backends, and over seeded fuzzed version pairs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "native/native.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault.hpp"
#include "runtime/engine.hpp"
#include "sbd/library.hpp"
#include "sbd/text_format.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite/models.hpp"
#include "suite/random_models.hpp"
#include "upgrade/upgrade.hpp"

namespace {

using namespace sbd;
using codegen::Method;

std::uint64_t bits_of(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, 8);
    return b;
}

constexpr Method kAllMethods[] = {Method::Monolithic,  Method::StepGet,
                                  Method::Dynamic,     Method::DisjointSat,
                                  Method::DisjointGreedy, Method::Singletons};

/// Shared native artifact store: stable across runs so warm CI passes skip
/// the external compiler (same policy as test_native).
const std::string& native_store() {
    static const std::string dir = [] {
        const auto d = std::filesystem::temp_directory_path() / "sbd-upgrade-native-test";
        std::filesystem::create_directories(d);
        return d.string();
    }();
    return dir;
}

// ---------------------------------------------------------------------------
// Version mutators: each takes a model and produces a plausible "v2" with
// the same root port interface (so live migration applies). They rebuild
// along the changed path only — siblings share the original sub objects,
// exactly like an editor touching one subsystem.

std::shared_ptr<MacroBlock> shell_of(const MacroBlock& m) {
    std::vector<std::string> ins, outs;
    for (std::size_t i = 0; i < m.num_inputs(); ++i) ins.push_back(m.input_name(i));
    for (std::size_t o = 0; o < m.num_outputs(); ++o) outs.push_back(m.output_name(o));
    return std::make_shared<MacroBlock>(m.type_name(), std::move(ins), std::move(outs));
}

std::shared_ptr<MacroBlock> rebuild(const MacroBlock& m) {
    auto c = shell_of(m);
    for (std::size_t s = 0; s < m.num_subs(); ++s) {
        const auto& sub = m.sub(s);
        const auto id = c->add_sub(sub.name, sub.type);
        if (sub.trigger) c->set_trigger(id, *sub.trigger);
    }
    for (const Connection& conn : m.connections()) c->connect(conn.src, conn.dst);
    return c;
}

/// Appends a state-bearing sub fed from the first macro input (outputs may
/// dangle, inputs may not — so this is always well-formed) to the macro at
/// the end of `path`, rebuilding the spine above it.
BlockPtr with_added_state(const MacroBlock& m, double init) {
    auto c = rebuild(m);
    c->add_sub("UpgAdded", lib::unit_delay(init));
    c->connect(m.input_name(0), "UpgAdded.u");
    c->validate();
    return c;
}

/// Replaces the sub at `index` (which must be a macro) with a freshly built
/// Moore stand-in of the same port interface: every output is an integrator
/// of one input, so the replacement can never create an algebraic loop in
/// the parent no matter what the original's dependency structure was.
BlockPtr with_replaced_subtree(const MacroBlock& m, std::size_t index, double seed_val) {
    const auto& victim = static_cast<const MacroBlock&>(*m.sub(index).type);
    auto stand_in = shell_of(victim);
    for (std::size_t o = 0; o < victim.num_outputs(); ++o) {
        const std::string inst = "Upg" + std::to_string(o);
        stand_in->add_sub(inst, lib::integrator(0.1 + 0.05 * static_cast<double>(o),
                                                seed_val + static_cast<double>(o)));
        stand_in->connect(victim.input_name(o % victim.num_inputs()), inst + ".u");
        stand_in->connect(inst + ".y", victim.output_name(o));
    }
    stand_in->validate();

    auto c = shell_of(m);
    for (std::size_t s = 0; s < m.num_subs(); ++s) {
        const auto& sub = m.sub(s);
        const auto id = c->add_sub(sub.name, s == index ? BlockPtr(stand_in) : sub.type);
        if (sub.trigger) c->set_trigger(id, *sub.trigger);
    }
    for (const Connection& conn : m.connections()) c->connect(conn.src, conn.dst);
    c->validate();
    return c;
}

/// Index of the first macro sub with at least one input and output, or
/// npos. Mutating a nested macro (not the root) is what exercises partial
/// subtree reuse.
std::size_t first_macro_sub(const MacroBlock& m) {
    for (std::size_t s = 0; s < m.num_subs(); ++s) {
        if (m.sub(s).type->is_atomic()) continue;
        const auto& sub = static_cast<const MacroBlock&>(*m.sub(s).type);
        if (sub.num_inputs() > 0 && sub.num_outputs() > 0) return s;
    }
    return static_cast<std::size_t>(-1);
}

/// The default "v2" of any model: replace one nested macro subtree if one
/// exists, otherwise add a state-bearing sub at the root.
BlockPtr mutate_model(const BlockPtr& root, double seed_val = 2.5) {
    const auto& m = static_cast<const MacroBlock&>(*root);
    const std::size_t idx = first_macro_sub(m);
    if (idx != static_cast<std::size_t>(-1))
        return with_replaced_subtree(m, idx, seed_val);
    return with_added_state(m, seed_val);
}

// ---------------------------------------------------------------------------
// The differential gate

void fill_inputs(runtime::Engine& eng, const std::vector<runtime::InstanceId>& ids,
                 std::vector<runtime::LcgInputSource>& src) {
    for (std::size_t i = 0; i < ids.size(); ++i) src[i].fill(eng.pool().inputs(ids[i]));
}

std::vector<double> read_outputs(runtime::Engine& eng,
                                 const std::vector<runtime::InstanceId>& ids) {
    std::vector<double> row;
    for (const runtime::InstanceId id : ids) {
        const auto out = eng.pool().outputs(id);
        row.insert(row.end(), out.begin(), out.end());
    }
    return row;
}

/// Path A: run `old_root` hot, rebind to `new_root` after `pre` instants
/// through the incremental-compile + prepare/commit machinery, keep going.
/// Path B: the same trajectory via stop-recompile-restart — fresh compiles
/// of both versions (cold cache), snapshots saved on vN and migrated into
/// fresh vN+1 instances. Every output from the swap instant onward must be
/// bit-identical, for every instance.
void expect_upgrade_differential(const BlockPtr& old_root, const BlockPtr& new_root,
                                 Method method, bool native, std::uint64_t seed,
                                 std::size_t instances = 3, std::size_t pre = 7,
                                 std::size_t post = 9) {
    const auto build_exec = [&](const codegen::CompiledSystem& sys, const BlockPtr& root)
        -> std::shared_ptr<const codegen::Executable> {
        if (!native) return nullptr;
        codegen::BackendConfig bc;
        bc.backend = codegen::Backend::Native;
        bc.method = method;
        bc.cache_dir = native_store();
        return native::make_native_executable(sys, root, bc);
    };

    // --- Path A: live upgrade through a shared profile cache.
    auto cache = std::make_shared<codegen::ProfileCache>(0);
    codegen::PipelineOptions popts;
    popts.method = method;
    codegen::Pipeline pa_old(popts, cache);
    const codegen::CompiledSystem a_old = pa_old.compile(old_root);

    runtime::EngineConfig ecfg;
    ecfg.capacity = instances;
    ecfg.executable = build_exec(a_old, old_root);
    runtime::Engine a(a_old, old_root, ecfg);
    const std::vector<runtime::InstanceId> a_ids = a.create(instances);
    std::vector<runtime::LcgInputSource> a_src;
    for (std::size_t i = 0; i < instances; ++i) a_src.emplace_back(seed + i);
    for (std::size_t t = 0; t < pre; ++t) {
        fill_inputs(a, a_ids, a_src);
        a.tick();
    }

    codegen::Pipeline pa_new(popts, cache);
    const codegen::CompiledSystem a_new = pa_new.compile(new_root);
    // The recompile is incremental exactly when the structural diff says
    // some subtree survived: flat models edited at the root reuse nothing.
    if (upgrade::diff_models(old_root, new_root).units_reused > 0)
        EXPECT_GT(pa_new.stats().macro_reuses, 0u)
            << "incremental recompile hit nothing in the shared cache";
    const upgrade::MigrationPlan plan_a =
        upgrade::plan_migration(a_old, old_root, a_new, new_root);
    ASSERT_FALSE(plan_a.drain_and_replace()) << plan_a.drain_reason();
    a.rebind(a_new, new_root, build_exec(a_new, new_root), plan_a);

    std::vector<std::vector<double>> a_rows;
    for (std::size_t t = 0; t < post; ++t) {
        fill_inputs(a, a_ids, a_src);
        a.tick();
        a_rows.push_back(read_outputs(a, a_ids));
    }

    // --- Path B: stop, recompile from scratch, migrate snapshots, restart.
    codegen::Pipeline pb_old(popts);
    const codegen::CompiledSystem b_old = pb_old.compile(old_root);
    runtime::EngineConfig bcfg;
    bcfg.capacity = instances;
    bcfg.executable = build_exec(b_old, old_root);
    runtime::Engine b1(b_old, old_root, bcfg);
    const std::vector<runtime::InstanceId> b1_ids = b1.create(instances);
    std::vector<runtime::LcgInputSource> b_src;
    for (std::size_t i = 0; i < instances; ++i) b_src.emplace_back(seed + i);
    for (std::size_t t = 0; t < pre; ++t) {
        fill_inputs(b1, b1_ids, b_src);
        b1.tick();
    }

    codegen::Pipeline pb_new(popts);
    const codegen::CompiledSystem b_new = pb_new.compile(new_root);
    const upgrade::MigrationPlan plan_b =
        upgrade::plan_migration(b_old, old_root, b_new, new_root);
    // Fingerprint-equal inputs must plan identically no matter which cache
    // compiled them.
    EXPECT_EQ(plan_a.to_json(), plan_b.to_json());

    runtime::EngineConfig b2cfg;
    b2cfg.capacity = instances;
    b2cfg.executable = build_exec(b_new, new_root);
    runtime::Engine b2(b_new, new_root, b2cfg);
    const std::vector<runtime::InstanceId> b2_ids = b2.create(instances);
    const std::size_t old_nin = b1.pool().num_inputs(), old_nout = b1.pool().num_outputs();
    const std::size_t new_nin = b2.pool().num_inputs(), new_nout = b2.pool().num_outputs();
    for (std::size_t i = 0; i < instances; ++i) {
        const std::vector<double> old_blob = b1.pool().snapshot_state(b1_ids[i]);
        std::vector<double> new_blob = b2.pool().snapshot_state(b2_ids[i]); // init values
        const std::size_t old_state = old_blob.size() - old_nin - old_nout;
        const std::size_t new_state = new_blob.size() - new_nin - new_nout;
        plan_b.migrate(std::span(old_blob).first(old_state),
                       std::span(old_blob).subspan(old_state, old_nin),
                       std::span(old_blob).subspan(old_state + old_nin, old_nout),
                       std::span(new_blob).first(new_state),
                       std::span(new_blob).subspan(new_state, new_nin),
                       std::span(new_blob).subspan(new_state + new_nin, new_nout));
        b2.pool().restore_state(b2_ids[i], new_blob);
    }

    for (std::size_t t = 0; t < post; ++t) {
        fill_inputs(b2, b2_ids, b_src);
        b2.tick();
        const std::vector<double> row = read_outputs(b2, b2_ids);
        ASSERT_EQ(row.size(), a_rows[t].size());
        for (std::size_t k = 0; k < row.size(); ++k)
            ASSERT_EQ(bits_of(a_rows[t][k]), bits_of(row[k]))
                << "upgraded-in-place diverged from stop-recompile-restart at post-swap "
                << "instant " << t << " value " << k << " (method " << to_string(method)
                << ", " << (native ? "native" : "interp") << ")";
    }
}

// ---------------------------------------------------------------------------
// Structural diff

TEST(UpgradeDiff, SelfDiffIsFullReuse) {
    const auto m = suite::thermostat();
    const upgrade::ModelDiff d = upgrade::diff_models(m, m);
    EXPECT_GT(d.units_total, 0u);
    EXPECT_EQ(d.units_reused, d.units_total);
    EXPECT_DOUBLE_EQ(d.reuse_ratio(), 1.0);
    for (const upgrade::DiffEntry& e : d.entries)
        EXPECT_EQ(e.change, upgrade::SubtreeChange::Unchanged) << e.path;
}

TEST(UpgradeDiff, CloneDiffsEqualToOriginal) {
    // A structural clone fingerprints identically: the diff must see no
    // change even though every node compares unequal by address.
    const auto m = suite::fuel_controller();
    const auto c = suite::clone_macro(*m);
    const upgrade::ModelDiff d = upgrade::diff_models(m, c);
    EXPECT_EQ(d.units_reused, d.units_total);
}

TEST(UpgradeDiff, SingleSubtreeEditChangesOnlyItsSpine) {
    const auto m = suite::thermostat();
    const std::size_t idx = first_macro_sub(*m);
    ASSERT_NE(idx, static_cast<std::size_t>(-1));
    const BlockPtr v2 = with_replaced_subtree(*m, idx, 3.0);
    const upgrade::ModelDiff d = upgrade::diff_models(m, v2);
    EXPECT_GT(d.units_reused, 0u) << "untouched sibling subtree was not recognized";
    EXPECT_LT(d.units_reused, d.units_total);
    // The frontier: the root changed (its sub list points at a new block),
    // the untouched sibling is reported unchanged.
    bool root_changed = false, sibling_unchanged = false;
    for (const upgrade::DiffEntry& e : d.entries) {
        if (e.path.empty()) root_changed = e.change == upgrade::SubtreeChange::Changed;
        if (!e.path.empty() && e.change == upgrade::SubtreeChange::Unchanged)
            sibling_unchanged = true;
    }
    EXPECT_TRUE(root_changed);
    EXPECT_TRUE(sibling_unchanged);
    EXPECT_FALSE(d.summary().empty());
    EXPECT_NE(d.to_json().find("\"units_total\""), std::string::npos);
}

TEST(UpgradeDiff, AddedAndRemovedSubtreesAreReported) {
    const auto m = suite::pi_cruise();
    const BlockPtr v2 = with_added_state(*m, 1.5);
    const upgrade::ModelDiff d = upgrade::diff_models(m, v2);
    bool added = false;
    for (const upgrade::DiffEntry& e : d.entries)
        if (e.change == upgrade::SubtreeChange::Added && e.path == "UpgAdded") added = true;
    EXPECT_TRUE(added);

    const upgrade::ModelDiff rd = upgrade::diff_models(v2, m);
    bool removed = false;
    for (const upgrade::DiffEntry& e : rd.entries)
        if (e.change == upgrade::SubtreeChange::Removed && e.path == "UpgAdded")
            removed = true;
    EXPECT_TRUE(removed);
}

// ---------------------------------------------------------------------------
// Migration planning

TEST(UpgradePlan, IdenticalVersionsCopyEverything) {
    const auto m = suite::thermostat();
    const auto c = suite::clone_macro(*m);
    const auto sys_old = codegen::compile_hierarchy(m, Method::Dynamic);
    const auto sys_new = codegen::compile_hierarchy(c, Method::Dynamic);
    const upgrade::MigrationPlan p = upgrade::plan_migration(sys_old, m, sys_new, c);
    EXPECT_FALSE(p.drain_and_replace());
    EXPECT_EQ(p.old_state_size(), p.new_state_size());
    EXPECT_EQ(p.copied(), p.new_state_size());
    EXPECT_EQ(p.initialized(), 0u);
    EXPECT_EQ(p.dropped(), 0u);
    ASSERT_EQ(p.rules().size(), 1u);
    EXPECT_EQ(p.rules()[0].kind, upgrade::RuleKind::CopySubtree);
    for (std::size_t i = 0; i < p.input_map().size(); ++i)
        EXPECT_EQ(p.input_map()[i], static_cast<std::int32_t>(i));
    for (std::size_t o = 0; o < p.output_map().size(); ++o)
        EXPECT_EQ(p.output_map()[o], static_cast<std::int32_t>(o));
    EXPECT_FALSE(p.summary().empty());
}

TEST(UpgradePlan, InterfaceChangeForcesDrain) {
    const auto m = suite::thermostat();
    auto renamed = std::make_shared<MacroBlock>(
        m->type_name(), std::vector<std::string>{"setpoint", "outside_temp"},
        std::vector<std::string>{"room_temp", "heater_is_on"}); // renamed output
    for (std::size_t s = 0; s < m->num_subs(); ++s)
        renamed->add_sub(m->sub(s).name, m->sub(s).type);
    for (const Connection& conn : m->connections()) renamed->connect(conn.src, conn.dst);
    renamed->validate();

    const auto sys_old = codegen::compile_hierarchy(m, Method::Dynamic);
    const auto sys_new = codegen::compile_hierarchy(renamed, Method::Dynamic);
    const upgrade::MigrationPlan p = upgrade::plan_migration(sys_old, m, sys_new, renamed);
    EXPECT_TRUE(p.drain_and_replace());
    EXPECT_FALSE(p.drain_reason().empty());
    EXPECT_EQ(p.copied(), 0u);

    // A drain plan migrates nothing: the new spans keep their init values.
    std::vector<double> old_state(p.old_state_size(), 7.0), old_in(2, 7.0), old_out(2, 7.0);
    std::vector<double> new_state(p.new_state_size(), 1.25), new_in(2, 0.0), new_out(2, 0.0);
    p.migrate(old_state, old_in, old_out, new_state, new_in, new_out);
    for (const double v : new_state) EXPECT_EQ(v, 1.25);
}

TEST(UpgradePlan, SpanSizeMismatchIsRejected) {
    const auto m = suite::thermostat();
    const auto c = suite::clone_macro(*m);
    const auto sys_old = codegen::compile_hierarchy(m, Method::Dynamic);
    const auto sys_new = codegen::compile_hierarchy(c, Method::Dynamic);
    const upgrade::MigrationPlan p = upgrade::plan_migration(sys_old, m, sys_new, c);
    std::vector<double> wrong(p.old_state_size() + 1), in(2), out(2);
    std::vector<double> ns(p.new_state_size()), ni(2), no(2);
    EXPECT_THROW(p.migrate(wrong, in, out, ns, ni, no), std::invalid_argument);
}

TEST(UpgradePlan, CarriedAndInitializedAccountingMatchesLayouts) {
    const auto m = suite::thermostat();
    const BlockPtr v2 = mutate_model(m);
    const auto sys_old = codegen::compile_hierarchy(m, Method::Dynamic);
    const auto sys_new = codegen::compile_hierarchy(v2, Method::Dynamic);
    const upgrade::MigrationPlan p = upgrade::plan_migration(sys_old, m, sys_new, v2);
    EXPECT_FALSE(p.drain_and_replace());
    EXPECT_GT(p.copied(), 0u);
    EXPECT_EQ(p.copied() + p.initialized(), p.new_state_size());
    EXPECT_EQ(p.copied() + p.dropped(), p.old_state_size());
    EXPECT_NE(p.to_json().find("\"rules\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Incremental recompile (compile_version)

TEST(UpgradeCompile, SharedCacheMakesRecompileIncremental) {
    const auto m = suite::thermostat();
    auto cache = std::make_shared<codegen::ProfileCache>(0);
    codegen::PipelineOptions popts;
    popts.method = Method::Dynamic;
    codegen::Pipeline boot(popts, cache);
    (void)boot.compile(m);

    upgrade::CompileContext ctx;
    ctx.method = Method::Dynamic;
    ctx.cache = cache;
    const upgrade::ModelVersion v =
        upgrade::compile_version(text::to_sbd(*m), ctx, 2);
    EXPECT_EQ(v.version, 2u);
    ASSERT_NE(v.sys, nullptr);
    ASSERT_NE(v.exec, nullptr);
    EXPECT_EQ(v.macro_compiles, 0u) << "identical version recompiled something";
    EXPECT_GT(v.macro_reuses, 0u);
    EXPECT_GT(v.compile_ns, 0u);
}

TEST(UpgradeCompile, CodedErrors) {
    upgrade::CompileContext ctx;
    ctx.method = Method::Dynamic;
    try {
        (void)upgrade::compile_version("block {", ctx, 2);
        FAIL() << "parse error not coded";
    } catch (const upgrade::UpgradeError& e) {
        EXPECT_EQ(e.code(), upgrade::UpgradeError::Code::Parse);
        EXPECT_STREQ(upgrade::to_string(e.code()), "parse");
    }
    // The thermostat has a false monolithic cycle: a coded Compile error.
    ctx.method = Method::Monolithic;
    try {
        (void)upgrade::compile_version(text::to_sbd(*suite::thermostat()), ctx, 2);
        FAIL() << "cycle rejection not coded";
    } catch (const upgrade::UpgradeError& e) {
        EXPECT_EQ(e.code(), upgrade::UpgradeError::Code::Compile);
    }
    // The deep-analysis load gate: a guaranteed division by zero is a
    // coded Analysis rejection, exactly like sbd-serve's boot gate.
    ctx.method = Method::Dynamic;
    const char* broken = "block Broken {\n"
                         "  inputs u\n  outputs y\n"
                         "  sub Zero Constant 0\n  sub D Div\n"
                         "  connect u D.u1\n  connect Zero.y D.u2\n"
                         "  connect D.y y\n}\n";
    try {
        (void)upgrade::compile_version(broken, ctx, 2);
        FAIL() << "deep-analysis gate not applied";
    } catch (const upgrade::UpgradeError& e) {
        EXPECT_EQ(e.code(), upgrade::UpgradeError::Code::Analysis);
    }
}

// ---------------------------------------------------------------------------
// The differential gate: demo suite x methods x backends

TEST(UpgradeDifferential, DemoSuiteAllMethodsInterp) {
    std::uint64_t seed = 90001;
    for (const suite::NamedModel& m : suite::demo_suite()) {
        const BlockPtr v2 = mutate_model(m.block);
        for (const Method method : kAllMethods) {
            try {
                expect_upgrade_differential(m.block, v2, method, /*native=*/false, seed++);
            } catch (const codegen::SdgCycleError&) {
                continue; // this method legitimately rejects the model
            }
            if (::testing::Test::HasFatalFailure())
                FAIL() << m.name << " under " << to_string(method);
        }
    }
}

TEST(UpgradeDifferential, DemoSubsetNative) {
    for (const auto& model : {suite::thermostat(), suite::counter_limited()})
        for (const Method method : {Method::Dynamic, Method::DisjointGreedy}) {
            expect_upgrade_differential(model, mutate_model(model), method,
                                        /*native=*/true, 91001);
            if (::testing::Test::HasFatalFailure())
                FAIL() << model->type_name() << " under " << to_string(method);
        }
}

TEST(UpgradeDifferential, FuzzedVersionPairs) {
    // >= 200 seeded (old, new) pairs: random hierarchies mutated by a
    // seeded choice of clone / subtree replacement / state addition, under
    // a seeded clustering method. Every pair must pass the full gate.
    constexpr std::size_t kPairs = 200;
    std::size_t ran = 0;
    for (std::size_t i = 0; i < kPairs; ++i) {
        std::mt19937_64 rng(0xABCD0000 + i);
        suite::RandomModelParams params;
        params.depth = 2 + i % 2;
        params.subs_per_level = 4;
        params.macro_probability = 0.5;
        const auto old_root = suite::random_model(rng, params);

        BlockPtr new_root;
        switch (i % 3) {
        case 0: new_root = std::const_pointer_cast<const MacroBlock>(
                    suite::clone_macro(*old_root));
                break;
        case 1: new_root = mutate_model(old_root, 1.0 + 0.25 * static_cast<double>(i % 7));
                break;
        default: new_root = with_added_state(*old_root, static_cast<double>(i % 5));
        }

        const Method method = kAllMethods[i % std::size(kAllMethods)];
        try {
            expect_upgrade_differential(old_root, new_root, method, /*native=*/false,
                                        0x5EED0000 + i, /*instances=*/2, /*pre=*/5,
                                        /*post=*/6);
        } catch (const codegen::SdgCycleError&) {
            // Rejected by this method: rerun under dynamic so every seed
            // still contributes a differential.
            expect_upgrade_differential(old_root, new_root, Method::Dynamic,
                                        /*native=*/false, 0x5EED0000 + i, 2, 5, 6);
        }
        if (::testing::Test::HasFatalFailure()) FAIL() << "seed " << i;
        ++ran;
    }
    EXPECT_EQ(ran, kPairs);
}

// ---------------------------------------------------------------------------
// Cross-version snapshot portability: a snapshot saved on vN restores —
// through the migration plan — into a vN+1 instance on *either* backend,
// bit-identically to the live hot swap. The cross-backend state-layout
// contract is what makes the mixed pairing legal.

TEST(UpgradeSnapshot, PortableAcrossVersionsAndBackends) {
    const auto m = suite::thermostat();
    const BlockPtr v2 = mutate_model(m);
    // interp-saved snapshot into a native v2 instance, and the reverse.
    struct Pairing { bool old_native, new_native; };
    for (const Pairing pair : {Pairing{false, true}, Pairing{true, false}}) {
        const auto sys_old = codegen::compile_hierarchy(m, Method::Dynamic);
        const auto sys_new = codegen::compile_hierarchy(v2, Method::Dynamic);
        const upgrade::MigrationPlan plan =
            upgrade::plan_migration(sys_old, m, sys_new, v2);
        ASSERT_FALSE(plan.drain_and_replace());

        const auto exec_for = [&](bool native, const codegen::CompiledSystem& sys,
                                  const BlockPtr& root)
            -> std::shared_ptr<const codegen::Executable> {
            if (!native) return nullptr;
            codegen::BackendConfig bc;
            bc.backend = codegen::Backend::Native;
            bc.method = Method::Dynamic;
            bc.cache_dir = native_store();
            return native::make_native_executable(sys, root, bc);
        };

        // Live path: old engine ticks, hot-rebinds to v2, ticks once more.
        runtime::EngineConfig cfg;
        cfg.capacity = 1;
        cfg.executable = exec_for(pair.old_native, sys_old, m);
        runtime::Engine live(sys_old, m, cfg);
        const auto live_id = live.create(1).front();
        runtime::LcgInputSource src(44);
        for (int t = 0; t < 6; ++t) {
            src.fill(live.pool().inputs(live_id));
            live.tick();
        }
        const std::vector<double> saved = live.pool().snapshot_state(live_id);
        live.rebind(sys_new, v2, exec_for(pair.new_native, sys_new, v2), plan);

        // Restore path: the saved vN snapshot migrated into a fresh vN+1
        // instance on the other backend.
        runtime::EngineConfig cfg2;
        cfg2.capacity = 1;
        cfg2.executable = exec_for(pair.new_native, sys_new, v2);
        runtime::Engine restored(sys_new, v2, cfg2);
        const auto rid = restored.create(1).front();
        std::vector<double> blob = restored.pool().snapshot_state(rid);
        const std::size_t old_nin = 2, old_nout = 2;
        const std::size_t old_state = saved.size() - old_nin - old_nout;
        const std::size_t new_nin = restored.pool().num_inputs();
        const std::size_t new_nout = restored.pool().num_outputs();
        const std::size_t new_state = blob.size() - new_nin - new_nout;
        plan.migrate(std::span(saved).first(old_state),
                     std::span(saved).subspan(old_state, old_nin),
                     std::span(saved).subspan(old_state + old_nin, old_nout),
                     std::span(blob).first(new_state),
                     std::span(blob).subspan(new_state, new_nin),
                     std::span(blob).subspan(new_state + new_nin, new_nout));
        restored.pool().restore_state(rid, blob);

        // Identical continuations from identical migrated state.
        runtime::LcgInputSource src2 = src;
        for (int t = 0; t < 5; ++t) {
            src.fill(live.pool().inputs(live_id));
            src2.fill(restored.pool().inputs(rid));
            live.tick();
            restored.tick();
            const auto lo = live.pool().outputs(live_id);
            const auto ro = restored.pool().outputs(rid);
            ASSERT_EQ(lo.size(), ro.size());
            for (std::size_t k = 0; k < lo.size(); ++k)
                ASSERT_EQ(bits_of(lo[k]), bits_of(ro[k]))
                    << "t=" << t << " k=" << k << " old_native=" << pair.old_native;
        }
    }
}

// The same portability contract must survive slot recycling: snapshots
// taken from an upgraded interp engine whose pool has been churned
// (create/destroy/create, so slots were reused and generations bumped)
// restore into a native engine with a *different* churn history, and the
// two continue bit-identically. Slot indices and generations are pool
// bookkeeping — none of it may leak into the state blob.
TEST(UpgradeSnapshot, PortableUnderSlotChurnAcrossBackends) {
    const auto m = suite::thermostat();
    const BlockPtr v2 = mutate_model(m);
    const auto sys_old = codegen::compile_hierarchy(m, Method::Dynamic);
    const auto sys_new = codegen::compile_hierarchy(v2, Method::Dynamic);
    const upgrade::MigrationPlan plan = upgrade::plan_migration(sys_old, m, sys_new, v2);
    ASSERT_FALSE(plan.drain_and_replace());

    codegen::BackendConfig bc;
    bc.backend = codegen::Backend::Native;
    bc.method = Method::Dynamic;
    bc.cache_dir = native_store();
    const auto native_exec = native::make_native_executable(sys_new, v2, bc);

    // Interp engine on v1: churn the pool so live slots are recycled ones,
    // then run, then hot-swap to v2, then churn and run again.
    runtime::EngineConfig cfg;
    cfg.capacity = 8;
    runtime::Engine live(sys_old, m, cfg);
    auto ids = live.create(6);
    live.destroy(ids[1]);
    live.destroy(ids[3]);
    live.destroy(ids[4]);
    ids = {ids[0], ids[2], ids[5], live.create(), live.create()}; // reused slots
    std::vector<runtime::LcgInputSource> srcs;
    for (std::size_t i = 0; i < ids.size(); ++i) srcs.emplace_back(900 + 7 * i);
    for (int t = 0; t < 6; ++t) {
        for (std::size_t i = 0; i < ids.size(); ++i) srcs[i].fill(live.pool().inputs(ids[i]));
        live.tick();
    }
    live.rebind(sys_new, v2, nullptr, plan);
    live.destroy(ids.back());
    ids.back() = live.create(); // recycle once more, post-upgrade
    for (int t = 0; t < 3; ++t) {
        for (std::size_t i = 0; i < ids.size(); ++i) srcs[i].fill(live.pool().inputs(ids[i]));
        live.tick();
    }

    // Native engine on v2 with a different slot history; restore each
    // upgraded snapshot into it (same version — no migration this time).
    runtime::EngineConfig ncfg;
    ncfg.capacity = 8;
    ncfg.executable = native_exec;
    runtime::Engine restored(sys_new, v2, ncfg);
    const auto scratch = restored.create(4);
    for (const auto id : scratch) restored.destroy(id);
    std::vector<runtime::InstanceId> rids = restored.create(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        restored.pool().restore_state(rids[i], live.pool().snapshot_state(ids[i]));

    // Identical continuations, instance by instance, bit for bit.
    std::vector<runtime::LcgInputSource> srcs2 = srcs;
    for (int t = 0; t < 5; ++t) {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            srcs[i].fill(live.pool().inputs(ids[i]));
            srcs2[i].fill(restored.pool().inputs(rids[i]));
        }
        live.tick();
        restored.tick();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const auto lo = live.pool().outputs(ids[i]);
            const auto ro = restored.pool().outputs(rids[i]);
            ASSERT_EQ(lo.size(), ro.size());
            for (std::size_t k = 0; k < lo.size(); ++k)
                ASSERT_EQ(bits_of(lo[k]), bits_of(ro[k])) << "t=" << t << " i=" << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Serving: UPGRADE_MODEL end to end

class UpgradeServeFixture : public ::testing::Test {
protected:
    void start(bool with_upgrade = true, serve::ServerConfig cfg = {}) {
        model_ = suite::thermostat();
        cache_ = std::make_shared<codegen::ProfileCache>(0);
        codegen::PipelineOptions popts;
        popts.method = Method::Dynamic;
        codegen::Pipeline pipeline(popts, cache_);
        sys_ = pipeline.compile(model_);
        cfg.endpoint = serve::Endpoint::parse("tcp:127.0.0.1:0");
        if (cfg.shards == 1 && cfg.shard_capacity == 1024) {
            cfg.shards = 2;
            cfg.shard_capacity = 8;
        }
        if (with_upgrade) {
            upgrade::CompileContext ctx;
            ctx.method = Method::Dynamic;
            ctx.cache = cache_;
            cfg.upgrade = std::move(ctx);
        }
        server_ = std::make_unique<serve::Server>(sys_, model_, cfg);
        server_->start();
    }
    serve::Client connect() { return serve::Client::connect(server_->endpoint()); }

    BlockPtr model_;
    std::shared_ptr<codegen::ProfileCache> cache_;
    codegen::CompiledSystem sys_;
    std::unique_ptr<serve::Server> server_;
};

TEST_F(UpgradeServeFixture, LiveUpgradeCarriesStateAndReportsReuse) {
    start();
    serve::Client c = connect();
    const auto handles = c.create_instances(1, 4);
    c.tick(1, 5);
    const std::vector<double> before = c.read_outputs(1, handles);

    const BlockPtr v2 = mutate_model(model_);
    const serve::UpgradeResult r = c.upgrade_model(
        0, text::to_sbd(static_cast<const MacroBlock&>(*v2)));
    EXPECT_EQ(r.version, 2u);
    EXPECT_EQ(server_->model_version(), 2u);
    EXPECT_GT(r.units_reused, 0u);
    EXPECT_GT(r.units_total, r.units_reused);
    EXPECT_FALSE(r.drained);
    EXPECT_GT(r.state_copied, 0u);
    EXPECT_GT(r.swap_ns, 0u);
    EXPECT_GT(r.reuse_ratio(), 0.0);

    // Handles survive the swap (slot numbering and generations are
    // preserved); the served outputs keep flowing on the new version.
    c.tick(1, 3);
    const std::vector<double> after = c.read_outputs(1, handles);
    EXPECT_EQ(after.size(), before.size());
    c.destroy_instances(1, handles);
}

TEST_F(UpgradeServeFixture, UpgradeMatchesDirectEngineFromSwapInstantOn) {
    start();
    serve::Client c = connect();
    const auto handles = c.create_instances(1, 2);
    c.tick(1, 4);

    // Reference: a direct engine on v1, migrated by the same plan semantics
    // (zero inputs on both sides, so trajectories are comparable).
    codegen::PipelineOptions popts;
    popts.method = Method::Dynamic;
    codegen::Pipeline p(popts);
    const codegen::CompiledSystem ref_old = p.compile(model_);
    runtime::EngineConfig ecfg;
    ecfg.capacity = 2;
    runtime::Engine ref(ref_old, model_, ecfg);
    const auto rids = ref.create(2);
    ref.tick(4);

    const BlockPtr v2 = mutate_model(model_);
    (void)c.upgrade_model(0, text::to_sbd(static_cast<const MacroBlock&>(*v2)));

    codegen::Pipeline p2(popts);
    const codegen::CompiledSystem ref_new = p2.compile(v2);
    const upgrade::MigrationPlan plan =
        upgrade::plan_migration(ref_old, model_, ref_new, v2);
    ref.rebind(ref_new, v2, nullptr, plan);

    c.tick(1, 3);
    ref.tick(3);
    const std::vector<double> got = c.read_outputs(1, handles);
    const std::size_t nout = ref.pool().num_outputs();
    ASSERT_EQ(got.size(), 2 * nout);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t o = 0; o < nout; ++o)
            ASSERT_EQ(bits_of(got[i * nout + o]), bits_of(ref.pool().outputs(rids[i])[o]))
                << "served post-swap instant diverged (instance " << i << ")";
}

TEST_F(UpgradeServeFixture, DisabledServerRejectsCoded) {
    start(/*with_upgrade=*/false);
    serve::Client c = connect();
    try {
        (void)c.upgrade_model(0, text::to_sbd(static_cast<const MacroBlock&>(*model_)));
        FAIL() << "upgrade on a disabled server was not rejected";
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), serve::Err::UpgradeRejected);
    }
    EXPECT_EQ(server_->model_version(), 1u);
}

TEST_F(UpgradeServeFixture, BadVersionsAreRejectedWithoutTouchingState) {
    start();
    serve::Client c = connect();
    const auto handles = c.create_instances(1, 2);
    c.tick(1, 3);
    const std::vector<double> before = c.read_outputs(1, handles);

    for (const char* bad : {"block {", // parse error
                            "block B {\n inputs u\n outputs y\n sub Z Constant 0\n"
                            " sub D Div\n connect u D.u1\n connect Z.y D.u2\n"
                            " connect D.y y\n}"}) { // deep-analysis reject
        try {
            (void)c.upgrade_model(0, bad);
            FAIL() << "bad version accepted: " << bad;
        } catch (const serve::ServeError& e) {
            EXPECT_EQ(e.code(), serve::Err::UpgradeRejected);
        }
    }
    EXPECT_EQ(server_->model_version(), 1u);
    const std::vector<double> after = c.read_outputs(1, handles);
    for (std::size_t k = 0; k < before.size(); ++k)
        ASSERT_EQ(bits_of(before[k]), bits_of(after[k]))
            << "rejected upgrade touched live state";
}

TEST_F(UpgradeServeFixture, DrainRequiresExplicitOptIn) {
    start();
    serve::Client c = connect();
    const auto handles = c.create_instances(1, 2);
    c.tick(1, 4);

    // v2 renames an output: state continuity is meaningless, so the plan
    // demands drain-and-replace.
    const auto& m = static_cast<const MacroBlock&>(*model_);
    auto renamed = std::make_shared<MacroBlock>(
        m.type_name(), std::vector<std::string>{"setpoint", "outside_temp"},
        std::vector<std::string>{"room_temp", "heater_is_on"});
    for (std::size_t s = 0; s < m.num_subs(); ++s)
        renamed->add_sub(m.sub(s).name, m.sub(s).type);
    for (const Connection& conn : m.connections()) renamed->connect(conn.src, conn.dst);
    renamed->validate();
    const std::string source = text::to_sbd(*renamed);

    try {
        (void)c.upgrade_model(0, source, /*allow_drain=*/false);
        FAIL() << "drain-and-replace applied without opt-in";
    } catch (const serve::ServeError& e) {
        EXPECT_EQ(e.code(), serve::Err::UpgradeRejected);
    }
    EXPECT_EQ(server_->model_version(), 1u);

    const serve::UpgradeResult r = c.upgrade_model(0, source, /*allow_drain=*/true);
    EXPECT_TRUE(r.drained);
    EXPECT_EQ(r.state_copied, 0u);
    EXPECT_EQ(server_->model_version(), 2u);
    // Drained instances restarted from init: outputs are back to zeros.
    for (const double v : c.read_outputs(1, handles)) EXPECT_EQ(v, 0.0);
}

TEST_F(UpgradeServeFixture, InjectedUpgradeFaultIsCodedAndLeavesStateAlone) {
    start();
    serve::Client c = connect();
    const auto handles = c.create_instances(1, 2);
    c.tick(1, 3);
    const std::vector<double> before = c.read_outputs(1, handles);
    const std::string source = text::to_sbd(static_cast<const MacroBlock&>(*model_));
    {
        resilience::ScopedFaultPlan plan(
            resilience::FaultPlan::parse("seed=7;serve.upgrade=nth:1"));
        try {
            (void)c.upgrade_model(0, source);
            FAIL() << "upgrade fault was not injected";
        } catch (const serve::ServeError& e) {
            EXPECT_EQ(e.code(), serve::Err::FaultInjected);
        }
    }
    EXPECT_EQ(server_->model_version(), 1u);
    const std::vector<double> untouched = c.read_outputs(1, handles);
    for (std::size_t k = 0; k < before.size(); ++k)
        ASSERT_EQ(bits_of(before[k]), bits_of(untouched[k]));
    // The fault consumed, the same request now lands.
    const serve::UpgradeResult r = c.upgrade_model(0, source);
    EXPECT_EQ(r.version, 2u);
}

TEST_F(UpgradeServeFixture, UpgradeUnderConcurrentTrafficNeverTears) {
    serve::ServerConfig cfg;
    cfg.shards = 2;
    cfg.shard_capacity = 32;
    start(true, cfg);

    constexpr std::size_t kTenants = 3;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> okc{0}, coded{0}, torn{0};
    std::vector<std::thread> threads;
    const std::size_t nout =
        static_cast<const MacroBlock&>(*model_).num_outputs();
    for (std::size_t t = 0; t < kTenants; ++t)
        threads.emplace_back([&, t] {
            serve::Client c = connect();
            const auto h = c.create_instances(t + 1, 2);
            while (!stop.load(std::memory_order_relaxed)) {
                try {
                    c.tick(t + 1, 1);
                    const std::vector<double> out = c.read_outputs(t + 1, h);
                    if (out.size() != 2 * nout) torn.fetch_add(1);
                    okc.fetch_add(1);
                } catch (const serve::ServeError&) {
                    coded.fetch_add(1);
                }
            }
        });

    // A burst of upgrades races the traffic: v2, v3, ... each swap lands at
    // an instant boundary under the exclusive lock.
    serve::Client control = connect();
    const auto& m = static_cast<const MacroBlock&>(*model_);
    std::uint64_t applied = 0;
    for (int round = 0; round < 6; ++round) {
        const BlockPtr next = round % 2 == 0
                                  ? mutate_model(std::static_pointer_cast<const MacroBlock>(
                                                     model_),
                                                 2.0 + round)
                                  : BlockPtr(suite::clone_macro(m));
        const serve::UpgradeResult r =
            control.upgrade_model(0, text::to_sbd(static_cast<const MacroBlock&>(*next)));
        EXPECT_EQ(r.version, 2u + applied);
        ++applied;
    }
    stop.store(true);
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(applied, 6u);
    EXPECT_EQ(server_->model_version(), 7u);
    EXPECT_EQ(torn.load(), 0u) << "a reader observed a torn output row";
    EXPECT_GT(okc.load(), 0u);
    // The server is still healthy and serving the final version.
    serve::Client probe = connect();
    const auto h = probe.create_instances(99, 1);
    probe.tick(99, 1);
    EXPECT_EQ(probe.read_outputs(99, h).size(), nout);
}

TEST_F(UpgradeServeFixture, UpgradeMetricsAreExported) {
    obs::MetricsRegistry registry;
    serve::ServerConfig cfg;
    cfg.metrics = &registry;
    start(true, cfg);
    serve::Client c = connect();
    (void)c.create_instances(1, 2);
    c.tick(1, 2);
    const BlockPtr v2 = mutate_model(model_);
    (void)c.upgrade_model(0, text::to_sbd(static_cast<const MacroBlock&>(*v2)));
    try {
        (void)c.upgrade_model(0, "block {");
    } catch (const serve::ServeError&) {
    }

    const obs::Snapshot snap = registry.snapshot();
    const auto counter = [&](const char* name) {
        const obs::Sample* s = snap.find(name);
        return s == nullptr ? std::uint64_t(0) : s->value;
    };
    EXPECT_EQ(counter("sbd_upgrade_applied_total"), 1u);
    EXPECT_EQ(counter("sbd_upgrade_rejected_total"), 1u);
    EXPECT_GT(counter("sbd_upgrade_units_reused_total"), 0u);
    EXPECT_GT(counter("sbd_upgrade_units_compiled_total"), 0u);
    const obs::Sample* swap = snap.find("sbd_upgrade_swap_ns");
    ASSERT_NE(swap, nullptr);
    EXPECT_EQ(swap->value, 1u); // one observation
    const obs::Sample* version = snap.find("sbd_upgrade_model_version");
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->gauge, 2);
    const obs::Sample* reqs =
        snap.find("sbd_serve_requests_total", {{"op", "UPGRADE_MODEL"}});
    ASSERT_NE(reqs, nullptr);
    EXPECT_EQ(reqs->value, 2u);
    // The server writes into the registry until its handler threads are
    // joined, so it must go before the registry leaves scope.
    server_.reset();
}

} // namespace
