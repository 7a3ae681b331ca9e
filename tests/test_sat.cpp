#include <gtest/gtest.h>

#include <random>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"

namespace {

using sbd::sat::Cnf;
using sbd::sat::Lit;
using sbd::sat::neg;
using sbd::sat::pos;
using sbd::sat::Solver;
using sbd::sat::Var;

/// Exhaustive reference solver for small CNFs.
bool brute_force_sat(const Cnf& cnf) {
    const std::size_t n = cnf.num_vars;
    for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
        bool all = true;
        for (const auto& clause : cnf.clauses) {
            bool sat = false;
            for (const Lit l : clause)
                if (((mask >> l.var()) & 1) == (l.negated() ? 0u : 1u)) {
                    sat = true;
                    break;
                }
            if (!sat) {
                all = false;
                break;
            }
        }
        if (all) return true;
    }
    return false;
}

Solver from_cnf(const Cnf& cnf) {
    Solver s;
    for (std::size_t v = 0; v < cnf.num_vars; ++v) s.new_var();
    for (const auto& c : cnf.clauses) s.add_clause(c);
    return s;
}

bool model_satisfies(const Solver& s, const Cnf& cnf) {
    for (const auto& clause : cnf.clauses) {
        bool sat = false;
        for (const Lit l : clause)
            if (s.model_value(l.var()) != l.negated()) {
                sat = true;
                break;
            }
        if (!sat) return false;
    }
    return true;
}

TEST(SatSolver, TrivialSat) {
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_clause({pos(a), pos(b)});
    s.add_clause({neg(a)});
    EXPECT_TRUE(s.solve());
    EXPECT_FALSE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, TrivialUnsat) {
    Solver s;
    const Var a = s.new_var();
    s.add_clause({pos(a)});
    EXPECT_FALSE(s.add_clause({neg(a)}));
    EXPECT_FALSE(s.solve());
}

TEST(SatSolver, EmptyClauseUnsat) {
    Solver s;
    s.new_var();
    EXPECT_FALSE(s.add_clause(std::span<const Lit>{}));
    EXPECT_FALSE(s.solve());
}

TEST(SatSolver, TautologyIgnored) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
    EXPECT_TRUE(s.solve());
}

TEST(SatSolver, DuplicateLiteralsHandled) {
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_clause({pos(a), pos(a), pos(b)});
    s.add_clause({neg(a), neg(a)});
    EXPECT_TRUE(s.solve());
    EXPECT_FALSE(s.model_value(a));
}

TEST(SatSolver, NoClausesIsSat) {
    Solver s;
    s.new_var();
    s.new_var();
    EXPECT_TRUE(s.solve());
}

/// Pigeonhole principle PHP(n+1, n) is unsatisfiable — a classic hard
/// UNSAT family exercising learning and restarts.
Cnf pigeonhole(std::size_t pigeons, std::size_t holes) {
    Cnf cnf;
    cnf.num_vars = pigeons * holes;
    const auto var = [&](std::size_t p, std::size_t h) {
        return static_cast<Var>(p * holes + h);
    };
    for (std::size_t p = 0; p < pigeons; ++p) {
        sbd::sat::Clause c;
        for (std::size_t h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
        cnf.add(c);
    }
    for (std::size_t h = 0; h < holes; ++h)
        for (std::size_t p1 = 0; p1 < pigeons; ++p1)
            for (std::size_t p2 = p1 + 1; p2 < pigeons; ++p2)
                cnf.add({neg(var(p1, h)), neg(var(p2, h))});
    return cnf;
}

TEST(SatSolver, PigeonholeUnsat) {
    for (std::size_t n = 2; n <= 5; ++n) {
        Solver s = from_cnf(pigeonhole(n + 1, n));
        EXPECT_FALSE(s.solve()) << "PHP(" << n + 1 << "," << n << ")";
    }
}

TEST(SatSolver, PigeonholeEqualSat) {
    Solver s = from_cnf(pigeonhole(4, 4));
    EXPECT_TRUE(s.solve());
}

Cnf random_3sat(std::mt19937_64& rng, std::size_t vars, std::size_t clauses) {
    Cnf cnf;
    cnf.num_vars = vars;
    std::uniform_int_distribution<Var> pick_var(0, static_cast<Var>(vars - 1));
    std::bernoulli_distribution sign;
    for (std::size_t c = 0; c < clauses; ++c) {
        sbd::sat::Clause clause;
        for (int k = 0; k < 3; ++k) clause.push_back(Lit(pick_var(rng), sign(rng)));
        cnf.add(clause);
    }
    return cnf;
}

struct Random3SatCase {
    std::uint64_t seed;
    std::size_t vars;
    double ratio;
};

// Printed by field so the discovered test names never show padding bytes.
void PrintTo(const Random3SatCase& c, std::ostream* os) {
    *os << "seed " << c.seed << ", " << c.vars << " vars, ratio " << c.ratio;
}

class SatRandomTest : public ::testing::TestWithParam<Random3SatCase> {};

TEST_P(SatRandomTest, AgreesWithBruteForceAndModelsAreValid) {
    const auto param = GetParam();
    std::mt19937_64 rng(param.seed);
    for (int iter = 0; iter < 40; ++iter) {
        const auto clauses =
            static_cast<std::size_t>(param.ratio * static_cast<double>(param.vars));
        const Cnf cnf = random_3sat(rng, param.vars, clauses);
        Solver s = from_cnf(cnf);
        const bool got = s.solve();
        EXPECT_EQ(got, brute_force_sat(cnf));
        if (got) { EXPECT_TRUE(model_satisfies(s, cnf)); }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, SatRandomTest,
    ::testing::Values(Random3SatCase{101, 8, 2.0}, Random3SatCase{102, 8, 4.26},
                      Random3SatCase{103, 8, 6.0}, Random3SatCase{104, 12, 4.26},
                      Random3SatCase{105, 14, 3.0}, Random3SatCase{106, 14, 5.5},
                      Random3SatCase{107, 16, 4.26}),
    [](const auto& info) {
        return "seed" + std::to_string(info.param.seed) + "_v" +
               std::to_string(info.param.vars);
    });

TEST(SatSolver, AssumptionsRestrictAndDoNotPersist) {
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_clause({pos(a), pos(b)});
    const Lit assume_na[] = {neg(a)};
    EXPECT_TRUE(s.solve(assume_na));
    EXPECT_TRUE(s.model_value(b));
    const Lit assume_both[] = {neg(a), neg(b)};
    EXPECT_FALSE(s.solve(assume_both));
    // Solver is still usable and satisfiable without assumptions.
    EXPECT_TRUE(s.solve());
}

TEST(SatSolver, IncrementalClauseAddition) {
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_clause({pos(a), pos(b)});
    EXPECT_TRUE(s.solve());
    s.add_clause({neg(a)});
    EXPECT_TRUE(s.solve());
    EXPECT_TRUE(s.model_value(b));
    s.add_clause({neg(b)});
    EXPECT_FALSE(s.solve());
}

TEST(SatSolver, StatsArePopulated) {
    std::mt19937_64 rng(55);
    Solver s = from_cnf(random_3sat(rng, 20, 88));
    (void)s.solve();
    EXPECT_GT(s.stats().decisions + s.stats().propagations, 0u);
}

TEST(Dimacs, RoundTrip) {
    std::mt19937_64 rng(42);
    const Cnf cnf = random_3sat(rng, 10, 30);
    const std::string text = to_dimacs(cnf);
    const Cnf back = sbd::sat::parse_dimacs_string(text);
    EXPECT_EQ(back.num_vars, cnf.num_vars);
    ASSERT_EQ(back.clauses.size(), cnf.clauses.size());
    for (std::size_t i = 0; i < cnf.clauses.size(); ++i) EXPECT_EQ(back.clauses[i], cnf.clauses[i]);
}

TEST(Dimacs, ParsesCommentsAndHeader) {
    const Cnf cnf = sbd::sat::parse_dimacs_string("c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
    EXPECT_EQ(cnf.num_vars, 3u);
    ASSERT_EQ(cnf.clauses.size(), 2u);
    EXPECT_EQ(cnf.clauses[0][1].to_dimacs(), -2);
}

TEST(Dimacs, RejectsMalformed) {
    EXPECT_THROW(sbd::sat::parse_dimacs_string("1 2 0\n"), std::runtime_error);
    EXPECT_THROW(sbd::sat::parse_dimacs_string("p cnf 1 1\n5 0\n"), std::runtime_error);
    EXPECT_THROW(sbd::sat::parse_dimacs_string("p cnf 2 2\n1 0\n"), std::runtime_error);
    EXPECT_THROW(sbd::sat::parse_dimacs_string("p cnf 2 1\n1 2\n"), std::runtime_error);
}

TEST(SatSolver, ConflictBudgetThrows) {
    // A hard instance with a tiny budget must hit BudgetExceeded.
    Solver s = from_cnf(pigeonhole(7, 6));
    s.set_conflict_budget(5);
    EXPECT_THROW((void)s.solve(), Solver::BudgetExceeded);
}

} // namespace
