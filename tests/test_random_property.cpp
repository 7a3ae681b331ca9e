#include <gtest/gtest.h>

#include <cstdio>

#include "core/pipeline.hpp"
#include "helpers.hpp"
#include "suite/random_models.hpp"

namespace {

using namespace sbd;
using namespace sbd::codegen;

// -------------------------------------------------------- model generator

TEST(RandomModels, AreWellFormedAndFlattenAcyclic) {
    std::mt19937_64 rng(1001);
    for (int iter = 0; iter < 15; ++iter) {
        suite::RandomModelParams params;
        params.depth = 1 + iter % 3;
        params.subs_per_level = 3 + iter % 5;
        const auto m = suite::random_model(rng, params);
        EXPECT_NO_THROW(m->validate());
        EXPECT_TRUE(is_acyclic_diagram(*m)) << iter;
    }
}

// Maximal-reusability methods are never rejected on acyclic models, and
// their generated code reproduces the reference semantics — across random
// hierarchies, methods and input traces.
struct RandomEquivCase {
    std::uint64_t seed;
    std::size_t depth;
    std::size_t subs;
    Method method;
};

// Printed by field so the discovered test names never show padding bytes.
void PrintTo(const RandomEquivCase& c, std::ostream* os) {
    *os << "seed " << c.seed << ", depth " << c.depth << ", " << c.subs << " subs, "
        << to_string(c.method);
}

class RandomEquivalence : public ::testing::TestWithParam<RandomEquivCase> {};

TEST_P(RandomEquivalence, GeneratedCodeMatchesSimulator) {
    const auto param = GetParam();
    std::mt19937_64 rng(param.seed);
    suite::RandomModelParams params;
    params.depth = param.depth;
    params.subs_per_level = param.subs;
    for (int iter = 0; iter < 6; ++iter) {
        const auto m = suite::random_model(rng, params);
        sbd::testing::expect_equivalent(
            m, param.method, sbd::testing::random_trace(m->num_inputs(), 30, param.seed + iter));
    }
}

std::string case_name(const ::testing::TestParamInfo<RandomEquivCase>& info) {
    std::string s = to_string(info.param.method);
    for (char& c : s)
        if (c == '-') c = '_';
    return "s" + std::to_string(info.param.seed) + "_d" + std::to_string(info.param.depth) +
           "_" + s;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomEquivalence,
    ::testing::Values(RandomEquivCase{2001, 1, 6, Method::Dynamic},
                      RandomEquivCase{2002, 2, 5, Method::Dynamic},
                      RandomEquivCase{2003, 3, 4, Method::Dynamic},
                      RandomEquivCase{2004, 2, 5, Method::DisjointSat},
                      RandomEquivCase{2005, 3, 4, Method::DisjointSat},
                      RandomEquivCase{2006, 2, 5, Method::DisjointGreedy},
                      RandomEquivCase{2007, 2, 6, Method::Singletons},
                      RandomEquivCase{2008, 3, 4, Method::Singletons}),
    case_name);

// Monolithic and step-get on random models: when accepted, they too must be
// semantics-preserving (reusability, not correctness, is what they lose).
TEST(RandomEquivalenceLossy, AcceptedImpliesEquivalent) {
    std::mt19937_64 rng(3001);
    suite::RandomModelParams params;
    params.depth = 2;
    params.subs_per_level = 5;
    int accepted = 0;
    for (int iter = 0; iter < 12; ++iter) {
        const auto m = suite::random_model(rng, params);
        for (const Method method : {Method::Monolithic, Method::StepGet}) {
            try {
                sbd::testing::expect_equivalent(
                    m, method, sbd::testing::random_trace(m->num_inputs(), 20, 77 + iter));
                ++accepted;
            } catch (const SdgCycleError&) {
                // expected sometimes: false deps close a cycle upstream
            }
        }
    }
    EXPECT_GT(accepted, 0);
}

// ----------------------------------------------- clustering-level sweeps

TEST(RandomSdgProperties, DynamicNeverAddsFalseDepsAndRespectsBound) {
    std::mt19937_64 rng(4001);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int iter = 0; iter < 60; ++iter) {
        const std::size_t internals = 4 + static_cast<std::size_t>(unit(rng) * 20);
        const std::size_t nin = 1 + static_cast<std::size_t>(unit(rng) * 5);
        const std::size_t nout = 1 + static_cast<std::size_t>(unit(rng) * 5);
        const Sdg sdg = suite::random_flat_sdg(rng, nin, nout, internals, 0.1 + 0.3 * unit(rng));
        const Clustering dyn = cluster_dynamic(sdg);
        EXPECT_TRUE(false_io_dependencies(sdg, dyn).empty()) << iter;
        EXPECT_LE(dyn.num_clusters(), nout + 1) << iter;
        // Synthesized cluster PDG must be acyclic.
        graph::Digraph pdg(dyn.num_clusters());
        for (const auto& [a, b] : cluster_pdg_edges(sdg, dyn))
            pdg.add_edge(static_cast<graph::NodeId>(a), static_cast<graph::NodeId>(b));
        EXPECT_TRUE(pdg.is_acyclic()) << iter;
    }
}

TEST(RandomSdgProperties, GreedyAndSatAreValidSatIsMinimal) {
    std::mt19937_64 rng(4002);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int iter = 0; iter < 25; ++iter) {
        const std::size_t internals = 4 + static_cast<std::size_t>(unit(rng) * 8);
        const Sdg sdg = suite::random_flat_sdg(rng, 3, 3, internals, 0.25);
        const Clustering sat = cluster_disjoint_sat(sdg);
        const Clustering greedy = cluster_disjoint_greedy(sdg);
        EXPECT_TRUE(check_validity(sdg, sat).valid());
        EXPECT_TRUE(check_validity(sdg, greedy).valid());
        EXPECT_LE(sat.num_clusters(), greedy.num_clusters());
    }
}

TEST(RandomSdgProperties, StepGetAndMonolithicAreAlwaysAlmostPartitioning) {
    std::mt19937_64 rng(4003);
    for (int iter = 0; iter < 25; ++iter) {
        const Sdg sdg = suite::random_flat_sdg(rng, 2, 3, 8, 0.3);
        for (const auto& c : {cluster_stepget(sdg), cluster_monolithic(sdg)}) {
            EXPECT_TRUE(c.is_partition(sdg));
            EXPECT_EQ(c.replicated_nodes(sdg), 0u);
        }
    }
}

// ------------------------------------------------ deep shared hierarchies

TEST(RandomModels, DeepHierarchiesAreWellFormedAndCacheFriendly) {
    std::mt19937_64 rng(5001);
    std::uint64_t total_compiles = 0, total_reuses = 0;
    for (int iter = 0; iter < 8; ++iter) {
        suite::DeepModelParams params;
        params.levels = 6 + iter % 3;
        params.types_per_level = 2 + iter % 3;
        params.subs_per_macro = 3 + iter % 2;
        params.clone_probability = iter % 2 == 0 ? 0.0 : 0.25;
        const auto m = suite::random_deep_model(rng, params);
        EXPECT_NO_THROW(m->validate());
        EXPECT_TRUE(is_acyclic_diagram(*m)) << iter;

        Pipeline p{PipelineOptions{}};
        const auto sys = p.compile(m);
        // Depth check: the instance tree really is `levels` macros deep.
        std::size_t depth = 0;
        const Block* cur = m.get();
        while (!cur->is_atomic()) {
            ++depth;
            const auto& macro = static_cast<const MacroBlock&>(*cur);
            const Block* next = nullptr;
            for (std::size_t s = 0; s < macro.num_subs(); ++s)
                if (!macro.sub(s).type->is_atomic()) next = macro.sub(s).type.get();
            if (next == nullptr) break;
            cur = next;
        }
        EXPECT_GE(depth, params.levels) << iter;

        const auto stats = p.stats();
        total_compiles += stats.macro_compiles;
        total_reuses += stats.macro_reuses;
        // Pointer-shared types deduplicate at discovery (one task per
        // Block*); structural clones are invisible to that and must be
        // caught by the fingerprint cache instead.
        if (params.clone_probability > 0.0) EXPECT_GT(stats.macro_reuses, 0u) << iter;

        // Semantics survive the depth: generated code == reference
        // simulator on the flattened diagram.
        sbd::testing::expect_equivalent(
            m, Method::Dynamic, sbd::testing::random_trace(m->num_inputs(), 10, 5100 + iter));
    }
    const double rate = static_cast<double>(total_reuses) /
                        static_cast<double>(total_compiles + total_reuses);
    std::printf("deep-hierarchy cache hit rate over sweep: %.3f (%llu reuses, %llu compiles)\n",
                rate, static_cast<unsigned long long>(total_reuses),
                static_cast<unsigned long long>(total_compiles));
    EXPECT_GT(rate, 0.3);
}

// Codegen accepts every method's clustering on random hierarchical models
// without violating its internal invariants (backward closure, acyclic
// PDG), which are checked with throws inside generate_code.
TEST(RandomSdgProperties, CompileHierarchyNeverViolatesInvariants) {
    std::mt19937_64 rng(4004);
    suite::RandomModelParams params;
    params.depth = 2;
    params.subs_per_level = 6;
    for (int iter = 0; iter < 10; ++iter) {
        const auto m = suite::random_model(rng, params);
        for (const Method method :
             {Method::Dynamic, Method::DisjointGreedy, Method::Singletons}) {
            EXPECT_NO_THROW((void)compile_hierarchy(m, method)) << iter;
        }
    }
}

} // namespace
