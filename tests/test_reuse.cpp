#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "core/reuse.hpp"
#include "helpers.hpp"
#include "suite/figures.hpp"
#include "suite/models.hpp"

namespace {

using namespace sbd;
using namespace sbd::codegen;

std::string method_id(Method m) {
    std::string s = to_string(m);
    for (char& c : s)
        if (c == '-') c = '_';
    return s;
}

// The Introduction's running example: P of Figure 1 used with the feedback
// y1 -> x2 (Figure 2). Monolithic code cannot be embedded; modular code
// generated with the dynamic (or optimal disjoint) method can.
TEST(Reuse, Figure2MonolithicRejectedDynamicAccepted) {
    const auto ctx = suite::figure2_context(suite::figure1_p());
    EXPECT_THROW((void)compile_hierarchy(ctx, Method::Monolithic), SdgCycleError);
    EXPECT_THROW((void)compile_hierarchy(ctx, Method::StepGet), SdgCycleError);
    EXPECT_NO_THROW((void)compile_hierarchy(ctx, Method::Dynamic));
    EXPECT_NO_THROW((void)compile_hierarchy(ctx, Method::DisjointSat));
    EXPECT_NO_THROW((void)compile_hierarchy(ctx, Method::DisjointGreedy));
    EXPECT_NO_THROW((void)compile_hierarchy(ctx, Method::Singletons));
}

TEST(Reuse, Figure2DynamicCodeComputesTheFlattenedSemantics) {
    const auto ctx = suite::figure2_context(suite::figure1_p());
    sbd::testing::expect_equivalent(ctx, Method::Dynamic,
                                    sbd::testing::random_trace(1, 30, 41));
    sbd::testing::expect_equivalent(ctx, Method::DisjointSat,
                                    sbd::testing::random_trace(1, 30, 43));
}

TEST(Reuse, SupportsFeedbackChecksFunctionCycles) {
    // Profile with two functions: f(x1)->y1, g(x2)->y2 and no PDG edges
    // supports any single feedback; a monolithic step(x1,x2)->(y1,y2)
    // supports none.
    Profile split;
    split.functions.push_back({"f", {0}, {0}});
    split.functions.push_back({"g", {1}, {1}});
    Profile mono;
    mono.functions.push_back({"step", {0, 1}, {0, 1}});

    const std::pair<std::size_t, std::size_t> y1_to_x2[] = {{0, 1}};
    const std::pair<std::size_t, std::size_t> y2_to_x1[] = {{1, 0}};
    EXPECT_TRUE(supports_feedback(split, y1_to_x2));
    EXPECT_TRUE(supports_feedback(split, y2_to_x1));
    EXPECT_FALSE(supports_feedback(mono, y1_to_x2));
    EXPECT_FALSE(supports_feedback(mono, y2_to_x1));

    // Both feedbacks at once close a cycle even for the split profile.
    const std::pair<std::size_t, std::size_t> both[] = {{0, 1}, {1, 0}};
    EXPECT_FALSE(supports_feedback(split, both));
}

TEST(Reuse, PdgEdgesCountTowardCycles) {
    // f(x1)->y1 must run before g(x2)->y2 (PDG); feeding y2 back to x1
    // closes a cycle through the PDG edge.
    Profile p;
    p.functions.push_back({"f", {0}, {0}});
    p.functions.push_back({"g", {1}, {1}});
    p.pdg_edges.emplace_back(0, 1);
    const std::pair<std::size_t, std::size_t> y2_to_x1[] = {{1, 0}};
    EXPECT_FALSE(supports_feedback(p, y2_to_x1));
    const std::pair<std::size_t, std::size_t> y1_to_x2[] = {{0, 1}};
    EXPECT_TRUE(supports_feedback(p, y1_to_x2));
}

TEST(Reuse, LegalFeedbackPairsComeFromTrueDependencies) {
    const auto p = suite::figure1_p();
    const auto sys = compile_hierarchy(p, Method::Dynamic);
    const Sdg& sdg = *sys.at(*p).sdg;
    const auto legal = legal_feedback_pairs(sdg);
    // Dependencies: y1<-x1, y2<-x1, y2<-x2. Legal feedbacks: (y1,x2) only.
    ASSERT_EQ(legal.size(), 1u);
    EXPECT_EQ(legal[0], (std::pair<std::size_t, std::size_t>{0, 1}));
}

struct ScoreCase {
    Method method;
    double min_score;
    double max_score;
};

// Printed by field so the discovered test names never show padding bytes.
void PrintTo(const ScoreCase& c, std::ostream* os) {
    *os << method_id(c.method) << ", score " << c.min_score << " to " << c.max_score;
}

class ReusabilityScore : public ::testing::TestWithParam<ScoreCase> {};

TEST_P(ReusabilityScore, OnWholeSuite) {
    for (const auto& model : suite::demo_suite()) {
        // Score each model's root against its own SDG, compiling bottom-up
        // with the same method (inner rejections count as score 0).
        try {
            const auto sys = compile_hierarchy(model.block, GetParam().method);
            const auto& cb = sys.at(*model.block);
            if (!cb.sdg) continue;
            const auto rep = reusability(*cb.sdg, cb.profile);
            EXPECT_GE(rep.score(), GetParam().min_score) << model.name;
            EXPECT_LE(rep.score(), GetParam().max_score) << model.name;
        } catch (const SdgCycleError&) {
            EXPECT_TRUE(GetParam().method == Method::Monolithic ||
                        GetParam().method == Method::StepGet)
                << model.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ReusabilityScore,
    ::testing::Values(ScoreCase{Method::Dynamic, 1.0, 1.0},
                      ScoreCase{Method::DisjointSat, 1.0, 1.0},
                      ScoreCase{Method::DisjointGreedy, 1.0, 1.0},
                      ScoreCase{Method::Singletons, 1.0, 1.0},
                      ScoreCase{Method::Monolithic, 0.0, 1.0},
                      ScoreCase{Method::StepGet, 0.0, 1.0}),
    [](const auto& info) { return method_id(info.param.method); });

TEST(Reuse, MonolithicScoresStrictlyBelowDynamicSomewhere) {
    // On Figure 1 the monolithic profile supports none of the legal
    // feedback contexts, the dynamic profile all of them.
    const auto p = suite::figure1_p();
    const auto dyn = compile_hierarchy(p, Method::Dynamic);
    const auto mono = compile_hierarchy(p, Method::Monolithic);
    const auto& sdg = *dyn.at(*p).sdg;
    EXPECT_EQ(reusability(sdg, dyn.at(*p).profile).score(), 1.0);
    EXPECT_EQ(reusability(sdg, mono.at(*p).profile).score(), 0.0);
}

TEST(Reuse, ProfileLevelCheckAgreesWithRealEmbedding) {
    // For every legal feedback pair of every suite model and every method,
    // supports_feedback() must agree with actually compiling the context.
    for (const auto& model : suite::demo_suite()) {
        for (const Method method : {Method::Dynamic, Method::StepGet, Method::Monolithic}) {
            codegen::CompiledSystem sys = [&] {
                try {
                    return compile_hierarchy(model.block, method);
                } catch (const SdgCycleError&) {
                    return codegen::CompiledSystem{};
                }
            }();
            if (!sys.root_block()) continue;
            const auto& cb = sys.at(*model.block);
            if (!cb.sdg) continue;
            for (const auto& pair : legal_feedback_pairs(*cb.sdg)) {
                const std::pair<std::size_t, std::size_t> loops[] = {pair};
                const bool profile_ok = supports_feedback(cb.profile, loops);
                bool embed_ok = true;
                try {
                    const auto ctx = suite::feedback_context(model.block, pair.first,
                                                             pair.second);
                    (void)compile_hierarchy(ctx, method);
                } catch (const SdgCycleError&) {
                    embed_ok = false;
                }
                EXPECT_EQ(profile_ok, embed_ok)
                    << model.name << " " << to_string(method) << " feedback y" << pair.first
                    << "->x" << pair.second;
            }
        }
    }
}

} // namespace
