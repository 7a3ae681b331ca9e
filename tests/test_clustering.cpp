#include <gtest/gtest.h>

#include <random>

#include "core/clustering.hpp"
#include "core/compiler.hpp"
#include "core/methods.hpp"
#include "sat/solver.hpp"
#include "sbd/library.hpp"
#include "suite/figures.hpp"
#include "suite/models.hpp"
#include "suite/npred.hpp"
#include "suite/random_models.hpp"

namespace {

using namespace sbd;
using namespace sbd::codegen;

Sdg sdg_of(const MacroBlock& m, std::vector<Profile>& storage) {
    storage.clear();
    std::vector<const Profile*> ptrs;
    for (std::size_t s = 0; s < m.num_subs(); ++s)
        storage.push_back(atomic_profile(static_cast<const AtomicBlock&>(*m.sub(s).type)));
    for (const auto& p : storage) ptrs.push_back(&p);
    return build_sdg(m, ptrs);
}

// ---------------------------------------------------------------- figures

TEST(Dynamic, Figure3TwoClustersMatchingPaper) {
    const auto p = suite::figure3_p();
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const Clustering c = cluster_dynamic(sdg);
    ASSERT_EQ(c.num_clusters(), 2u);
    // get cluster: {U.get, A.step};  step cluster: {C.step, U.step}.
    EXPECT_EQ(c.clusters[0].size(), 2u);
    EXPECT_EQ(c.clusters[1].size(), 2u);
    EXPECT_EQ(c.replicated_nodes(sdg), 0u);
    EXPECT_TRUE(c.is_partition(sdg));
    // PDG: step depends on get (cluster 0 before cluster 1).
    const auto pdg = cluster_pdg_edges(sdg, c);
    ASSERT_EQ(pdg.size(), 1u);
    EXPECT_EQ(pdg[0], (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(Dynamic, Figure1TwoOverlappingClusters) {
    const auto p = suite::figure1_p();
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const Clustering c = cluster_dynamic(sdg);
    // In(y1) = {x1} != In(y2) = {x1, x2}: two clusters sharing A.step.
    ASSERT_EQ(c.num_clusters(), 2u);
    EXPECT_EQ(c.replicated_nodes(sdg), 1u);
    EXPECT_FALSE(c.is_partition(sdg));
    EXPECT_TRUE(false_io_dependencies(sdg, c).empty());
}

TEST(Dynamic, Figure4TwoClustersSharingTheChain) {
    const std::size_t n = 6;
    const auto p = suite::figure4_chain(n);
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const Clustering c = cluster_dynamic(sdg);
    ASSERT_EQ(c.num_clusters(), 2u);
    // Both clusters contain the whole chain A1..An: n shared nodes.
    EXPECT_EQ(c.replicated_nodes(sdg), n);
    EXPECT_TRUE(false_io_dependencies(sdg, c).empty());
    // No PDG constraints between the two get functions (paper Figure 4c).
    EXPECT_TRUE(cluster_pdg_edges(sdg, c).empty());
}

TEST(DisjointSat, Figure4ThreeClustersNoReplication) {
    const std::size_t n = 6;
    const auto p = suite::figure4_chain(n);
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    SatClusterStats stats;
    const Clustering c = cluster_disjoint_sat(sdg, {}, &stats);
    ASSERT_EQ(c.num_clusters(), 3u); // paper Figure 4(d)
    EXPECT_EQ(c.replicated_nodes(sdg), 0u);
    EXPECT_TRUE(check_validity(sdg, c).valid());
    EXPECT_GE(stats.iterations, 1u);
    EXPECT_EQ(stats.final_k, 3u);
    // PDG of Figure 4(e): the chain cluster precedes both get clusters.
    const auto pdg = cluster_pdg_edges(sdg, c);
    EXPECT_EQ(pdg.size(), 2u);
}

TEST(DisjointSat, Figure3MatchesDynamicCount) {
    const auto p = suite::figure3_p();
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const Clustering c = cluster_disjoint_sat(sdg);
    EXPECT_EQ(c.num_clusters(), 2u);
    EXPECT_TRUE(check_validity(sdg, c).valid());
}

TEST(StepGet, AtMostTwoClustersAndLosesReusability) {
    const auto p = suite::figure1_p();
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const Clustering c = cluster_stepget(sdg);
    ASSERT_EQ(c.num_clusters(), 1u); // all three nodes feed outputs
    // Single get computing both outputs adds the false dependency x2 -> y1.
    const auto added = false_io_dependencies(sdg, c);
    ASSERT_EQ(added.size(), 1u);
    EXPECT_EQ(added[0], (std::pair<std::size_t, std::size_t>{1, 0}));
}

TEST(StepGet, Figure3SplitsGetAndUpdate) {
    const auto p = suite::figure3_p();
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const Clustering c = cluster_stepget(sdg);
    ASSERT_EQ(c.num_clusters(), 2u);
    EXPECT_TRUE(false_io_dependencies(sdg, c).empty()); // here step-get suffices
}

TEST(Monolithic, SingleClusterAddsFalseDeps) {
    const auto p = suite::figure3_p();
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const Clustering c = cluster_monolithic(sdg);
    ASSERT_EQ(c.num_clusters(), 1u);
    // The paper's Section 4 example: P_in -> P_out false dependency.
    const auto added = false_io_dependencies(sdg, c);
    ASSERT_EQ(added.size(), 1u);
    EXPECT_EQ(added[0], (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(Singletons, AlwaysValidAndFinest) {
    const auto p = suite::figure4_chain(4);
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const Clustering c = cluster_singletons(sdg);
    EXPECT_EQ(c.num_clusters(), sdg.internal_nodes.size());
    EXPECT_TRUE(check_validity(sdg, c).valid());
}

TEST(Dynamic, FoldsUpdateClusterWhenHarmless) {
    // x -> A -> B -> y and A also feeds a delay D whose output is unused
    // upstream: In(update) = {x} = In(y), so the update nodes fold into the
    // single get cluster and the dynamic method emits ONE function.
    auto m = std::make_shared<MacroBlock>("Fold", std::vector<std::string>{"x"},
                                          std::vector<std::string>{"y"});
    m->add_sub("A", lib::gain(1.0));
    m->add_sub("B", lib::gain(2.0));
    m->add_sub("D", lib::unit_delay(0.0));
    m->connect("x", "A.u");
    m->connect("A.y", "B.u");
    m->connect("B.y", "y");
    m->connect("A.y", "D.u");
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*m, storage);
    EXPECT_EQ(cluster_dynamic(sdg).num_clusters(), 1u);
    EXPECT_EQ(cluster_dynamic(sdg, {.fold_update_into_get = false}).num_clusters(), 2u);
    EXPECT_TRUE(false_io_dependencies(sdg, cluster_dynamic(sdg)).empty());
}

// --------------------------------------------------- validity and lemmas

TEST(Validity, ChecksAllThreeConditions) {
    const auto p = suite::figure3_p();
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    // Not a partition: a node missing.
    Clustering missing;
    missing.clusters = {{sdg.internal_nodes[0]}};
    EXPECT_FALSE(check_validity(sdg, missing).partition);
    // The monolithic clustering is a partition but adds false deps.
    const auto mono = cluster_monolithic(sdg);
    const auto rep = check_validity(sdg, mono);
    EXPECT_TRUE(rep.partition);
    EXPECT_FALSE(rep.no_false_io);
    EXPECT_TRUE(rep.acyclic);
    EXPECT_FALSE(rep.valid());
}

TEST(Validity, DetectsCyclicQuotient) {
    // a -> b -> c with clustering {a,c},{b}: quotient has a 2-cycle.
    std::mt19937_64 rng(3);
    const Sdg sdg = suite::random_flat_sdg(rng, 1, 1, 3, 0.0);
    Sdg chain = sdg;
    chain.graph.add_edge(chain.internal_nodes[0], chain.internal_nodes[1]);
    chain.graph.add_edge(chain.internal_nodes[1], chain.internal_nodes[2]);
    Clustering c;
    c.clusters = {{chain.internal_nodes[0], chain.internal_nodes[2]},
                  {chain.internal_nodes[1]}};
    const auto rep = check_validity(chain, c);
    EXPECT_TRUE(rep.partition);
    EXPECT_FALSE(rep.acyclic);
}

TEST(Mergeability, Figure7GadgetClaims) {
    // Paper's Proposition 2 argument: in G_f, vertex nodes u, v are
    // mergeable iff (u,v) is an edge of G; edge nodes e'_u merge with
    // nothing.
    graph::Undirected g(3);
    g.add_edge(0, 1); // single edge (0,1); node 2 isolated
    const Sdg sdg = suite::reduction_sdg(g);
    // Layout: internal nodes 0,1,2 = vertices; 3,4 = e'_u, e'_v.
    const auto& in_ = sdg.internal_nodes;
    EXPECT_TRUE(mergeable(sdg, in_[0], in_[1]));  // adjacent
    EXPECT_FALSE(mergeable(sdg, in_[0], in_[2])); // not adjacent
    EXPECT_FALSE(mergeable(sdg, in_[1], in_[2]));
    for (const auto e : {in_[3], in_[4]})
        for (const auto other : in_)
            if (other != e) { EXPECT_FALSE(mergeable(sdg, e, other)); }
}

TEST(Mergeability, GraphEqualsOriginalPlusIsolatedEdgeNodes) {
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int iter = 0; iter < 10; ++iter) {
        const std::size_t n = 3 + static_cast<std::size_t>(unit(rng) * 3);
        graph::Undirected g(n);
        for (std::size_t a = 0; a < n; ++a)
            for (std::size_t b = a + 1; b < n; ++b)
                if (unit(rng) < 0.5) g.add_edge(a, b);
        const Sdg sdg = suite::reduction_sdg(g);
        const graph::Undirected m = mergeability_graph(sdg);
        ASSERT_EQ(m.num_nodes(), n + 2 * g.num_edges());
        for (std::size_t a = 0; a < m.num_nodes(); ++a)
            for (std::size_t b = a + 1; b < m.num_nodes(); ++b) {
                const bool expected = a < n && b < n && g.has_edge(a, b);
                EXPECT_EQ(m.has_edge(a, b), expected) << a << "," << b;
            }
    }
}

TEST(Lemma1Refinement, SplittingAClusterPreservesAlmostValidity) {
    std::mt19937_64 rng(23);
    for (int iter = 0; iter < 20; ++iter) {
        const Sdg sdg = suite::random_flat_sdg(rng, 3, 3, 8, 0.2);
        const Clustering coarse = cluster_disjoint_greedy(sdg);
        // Split every splittable cluster in two; result must stay almost
        // valid (Lemma 1).
        Clustering fine;
        fine.method = coarse.method;
        for (const auto& cl : coarse.clusters) {
            if (cl.size() < 2) {
                fine.clusters.push_back(cl);
                continue;
            }
            const std::size_t half = cl.size() / 2;
            fine.clusters.emplace_back(cl.begin(), cl.begin() + half);
            fine.clusters.emplace_back(cl.begin() + half, cl.end());
        }
        EXPECT_TRUE(check_validity(sdg, fine).almost_valid());
    }
}

TEST(Lemma4Merge, EqualInOutClustersCanMerge) {
    std::mt19937_64 rng(29);
    for (int iter = 0; iter < 30; ++iter) {
        const Sdg sdg = suite::random_flat_sdg(rng, 3, 3, 7, 0.25);
        const Clustering c = cluster_singletons(sdg);
        // Find two singleton clusters with equal In/Out dependency sets in
        // the quotient and merge them: almost-validity must be preserved.
        const auto deps = exported_io_dependencies(sdg, c);
        // Compute In/Out per cluster via cones.
        for (std::size_t a = 0; a < c.clusters.size(); ++a) {
            for (std::size_t b = a + 1; b < c.clusters.size(); ++b) {
                const auto u = c.clusters[a][0], v = c.clusters[b][0];
                const auto in_u = sdg.graph.reaching_to(u);
                const auto in_v = sdg.graph.reaching_to(v);
                const auto out_u = sdg.graph.reachable_from(u);
                const auto out_v = sdg.graph.reachable_from(v);
                bool same = true;
                for (const auto i : sdg.input_nodes)
                    if (in_u.test(i) != in_v.test(i)) same = false;
                for (const auto o : sdg.output_nodes)
                    if (out_u.test(o) != out_v.test(o)) same = false;
                if (!same) continue;
                Clustering merged = c;
                merged.clusters[a].push_back(v);
                std::sort(merged.clusters[a].begin(), merged.clusters[a].end());
                merged.clusters.erase(merged.clusters.begin() +
                                      static_cast<std::ptrdiff_t>(b));
                EXPECT_TRUE(check_validity(sdg, merged).almost_valid());
            }
        }
        (void)deps;
    }
}

// ----------------------------------------------- optimality (SAT vs brute)

TEST(DisjointSat, MatchesBruteForceOnRandomSdgs) {
    std::mt19937_64 rng(31);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int iter = 0; iter < 30; ++iter) {
        const std::size_t internals = 3 + static_cast<std::size_t>(unit(rng) * 5);
        const Sdg sdg = suite::random_flat_sdg(rng, 2 + iter % 3, 2 + iter % 2, internals,
                                               0.15 + 0.2 * unit(rng));
        const Clustering best = brute_force_optimal_disjoint(sdg);
        const Clustering sat = cluster_disjoint_sat(sdg);
        EXPECT_EQ(sat.num_clusters(), best.num_clusters()) << "iter " << iter;
        EXPECT_TRUE(check_validity(sdg, sat).valid());
    }
}

TEST(DisjointSat, SymmetryBreakingDoesNotChangeOptimum) {
    std::mt19937_64 rng(37);
    for (int iter = 0; iter < 10; ++iter) {
        const Sdg sdg = suite::random_flat_sdg(rng, 3, 3, 7, 0.25);
        const auto with = cluster_disjoint_sat(sdg, {.sat_symmetry_breaking = true});
        const auto without = cluster_disjoint_sat(sdg, {.sat_symmetry_breaking = false});
        EXPECT_EQ(with.num_clusters(), without.num_clusters());
    }
}

TEST(DisjointSat, StartKOverrideStillOptimal) {
    const auto p = suite::figure4_chain(5);
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    SatClusterStats stats;
    const auto c = cluster_disjoint_sat(sdg, {.sat_start_k = 1}, &stats);
    EXPECT_EQ(c.num_clusters(), 3u);
    EXPECT_EQ(stats.first_k, 1u);
    EXPECT_EQ(stats.iterations, 3u);
}

// --------------------------------------------------- NP-reduction theorem

TEST(NpReduction, OptimalClustersEqualCliquePartitionPlusGadgets) {
    std::mt19937_64 rng(41);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int iter = 0; iter < 12; ++iter) {
        const std::size_t n = 3 + static_cast<std::size_t>(unit(rng) * 2); // 3..5 vertices
        graph::Undirected g(n);
        for (std::size_t a = 0; a < n; ++a)
            for (std::size_t b = a + 1; b < n; ++b)
                if (unit(rng) < 0.5) g.add_edge(a, b);
        std::size_t cliques = 0;
        g.min_clique_partition(&cliques);
        const Sdg sdg = suite::reduction_sdg(g);
        const Clustering sat = cluster_disjoint_sat(sdg);
        EXPECT_EQ(sat.num_clusters(), suite::reduction_expected_clusters(g, cliques))
            << "n=" << n << " |E|=" << g.num_edges();
        EXPECT_TRUE(check_validity(sdg, sat).valid());
    }
}

// ------------------------------------------------------------ method laws

struct MethodLawsCase {
    const char* name;
    std::uint64_t seed;
    std::size_t internals;
};

// Printed by value so the discovered test names carry no load address.
void PrintTo(const MethodLawsCase& c, std::ostream* os) {
    *os << c.name << " (seed " << c.seed << ", " << c.internals << " internals)";
}

class MethodLaws : public ::testing::TestWithParam<MethodLawsCase> {};

TEST_P(MethodLaws, CountAndValidityOrderings) {
    std::mt19937_64 rng(GetParam().seed);
    const Sdg sdg = suite::random_flat_sdg(rng, 3, 4, GetParam().internals, 0.2);

    const Clustering dyn = cluster_dynamic(sdg);
    const Clustering sat = cluster_disjoint_sat(sdg);
    const Clustering greedy = cluster_disjoint_greedy(sdg);
    const Clustering fine = cluster_singletons(sdg);
    const Clustering sg = cluster_stepget(sdg);
    const Clustering mono = cluster_monolithic(sdg);

    // Maximal reusability where promised.
    EXPECT_TRUE(false_io_dependencies(sdg, dyn).empty());
    EXPECT_TRUE(check_validity(sdg, sat).valid());
    EXPECT_TRUE(check_validity(sdg, greedy).valid());
    EXPECT_TRUE(check_validity(sdg, fine).valid());

    // Modularity ordering: dynamic <= optimal disjoint <= greedy <= finest.
    EXPECT_LE(dyn.num_clusters(), sat.num_clusters());
    EXPECT_LE(sat.num_clusters(), greedy.num_clusters());
    EXPECT_LE(greedy.num_clusters(), fine.num_clusters());
    EXPECT_LE(mono.num_clusters(), 1u);
    EXPECT_LE(sg.num_clusters(), 2u);

    // The n+1 bound of the dynamic method.
    EXPECT_LE(dyn.num_clusters(), sdg.num_outputs() + 1);

    // Disjoint methods never replicate.
    EXPECT_EQ(sat.replicated_nodes(sdg), 0u);
    EXPECT_EQ(greedy.replicated_nodes(sdg), 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomSdgs, MethodLaws,
                         ::testing::Values(MethodLawsCase{"small", 51, 5},
                                           MethodLawsCase{"mid", 52, 9},
                                           MethodLawsCase{"bigger", 53, 13},
                                           MethodLawsCase{"dense", 54, 11},
                                           MethodLawsCase{"wide", 55, 15}),
                         [](const auto& info) { return info.param.name; });

TEST(MethodLaws, SuiteModelsDynamicIsOptimalAmongDisjoint) {
    // On every suite model and at every level, #dynamic <= #disjoint-sat
    // (the paper's "disjoint clustering generally loses modularity").
    for (const auto& model : suite::demo_suite()) {
        const auto dyn_sys = compile_hierarchy(model.block, Method::Dynamic);
        const auto sat_sys = compile_hierarchy(model.block, Method::DisjointSat);
        for (const auto* b : dyn_sys.order()) {
            const auto& dcb = dyn_sys.at(*b);
            if (!dcb.clustering) continue;
            const auto& scb = sat_sys.at(*b);
            EXPECT_LE(dcb.clustering->num_clusters(), scb.clustering->num_clusters())
                << model.name << " block " << b->type_name();
            EXPECT_EQ(scb.clustering->replicated_nodes(*scb.sdg), 0u);
        }
    }
}

// ------------------------------------------------ F_k encoding / DIMACS

TEST(EncodeFk, SatisfiabilityTracksOptimum) {
    // F_k is UNSAT for every k below the optimum and SAT at the optimum
    // (Lemma 6 + the iterative procedure of Section 7), independently
    // re-checked by feeding the exported CNF to a fresh solver.
    const auto p = suite::figure4_chain(4);
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const std::size_t optimum = cluster_disjoint_sat(sdg).num_clusters();
    for (std::size_t k = 1; k <= optimum + 1; ++k) {
        const sat::Cnf cnf = encode_fk(sdg, k, {.sat_start_k = -1});
        sat::Solver solver;
        for (std::size_t v = 0; v < cnf.num_vars; ++v) solver.new_var();
        for (const auto& clause : cnf.clauses) solver.add_clause(clause);
        EXPECT_EQ(solver.solve(), k >= optimum) << "k=" << k;
    }
}

TEST(EncodeFk, DimacsRoundTripPreservesTheFormula) {
    const auto p = suite::figure3_p();
    std::vector<Profile> storage;
    const Sdg sdg = sdg_of(*p, storage);
    const sat::Cnf cnf = encode_fk(sdg, 2);
    const sat::Cnf back = sat::parse_dimacs_string(sat::to_dimacs(cnf));
    EXPECT_EQ(back.num_vars, cnf.num_vars);
    EXPECT_EQ(back.clauses, cnf.clauses);
}

TEST(EncodeFk, SymmetryBreakingPreservesSatisfiability) {
    std::mt19937_64 rng(61);
    for (int iter = 0; iter < 8; ++iter) {
        const Sdg sdg = suite::random_flat_sdg(rng, 3, 3, 6, 0.25);
        for (std::size_t k = 1; k <= 4; ++k) {
            const auto solve = [&](bool sym) {
                const sat::Cnf cnf = encode_fk(sdg, k, {.sat_symmetry_breaking = sym});
                sat::Solver solver;
                for (std::size_t v = 0; v < cnf.num_vars; ++v) solver.new_var();
                for (const auto& clause : cnf.clauses) solver.add_clause(clause);
                return solver.solve();
            };
            EXPECT_EQ(solve(true), solve(false)) << "k=" << k;
        }
    }
}

} // namespace
