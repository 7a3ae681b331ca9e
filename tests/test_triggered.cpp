// Tests for the triggered-diagram extension (Lublinerman & Tripakis 2008a,
// referenced in Related Work: the clustering methods "can be readily used
// in triggered and timed block diagrams as well").

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "core/reuse.hpp"
#include "sbd/library.hpp"
#include "suite/figures.hpp"

namespace {

using namespace sbd;
using namespace sbd::codegen;

/// gate -> (triggered gain): out holds when the trigger is low.
std::shared_ptr<const MacroBlock> triggered_gain() {
    auto m = std::make_shared<MacroBlock>("TrigGain", std::vector<std::string>{"u", "t"},
                                          std::vector<std::string>{"y"});
    m->add_sub("G", lib::gain(2.0));
    m->connect("u", "G.u");
    m->connect("G.y", "y");
    m->set_trigger("G", "t");
    return m;
}

/// A triggered Moore block (counter) enabled by an internal comparison.
std::shared_ptr<const MacroBlock> triggered_counter() {
    auto m = std::make_shared<MacroBlock>("TrigCounter", std::vector<std::string>{"x"},
                                          std::vector<std::string>{"n"});
    m->add_sub("Pos", lib::relational(">"));
    m->add_sub("Zero", lib::constant(0.0));
    m->add_sub("One", lib::constant(1.0));
    m->add_sub("Cnt", lib::counter());
    m->connect("x", "Pos.u1");
    m->connect("Zero.y", "Pos.u2");
    m->connect("One.y", "Cnt.enable");
    m->connect("Cnt.y", "n");
    m->set_trigger("Cnt", "Pos.y");
    return m;
}

/// Two-level: a triggered subsystem that itself contains a triggered block.
std::shared_ptr<const MacroBlock> nested_triggered() {
    auto inner = std::make_shared<MacroBlock>("InnerTrig",
                                              std::vector<std::string>{"u", "g"},
                                              std::vector<std::string>{"y"});
    inner->add_sub("Acc", lib::integrator(1.0));
    inner->connect("u", "Acc.u");
    inner->connect("Acc.y", "y");
    inner->set_trigger("Acc", "g");

    auto outer = std::make_shared<MacroBlock>("OuterTrig",
                                              std::vector<std::string>{"u", "g1", "g2"},
                                              std::vector<std::string>{"y"});
    outer->add_sub("I", inner);
    outer->connect("u", "I.u");
    outer->connect("g2", "I.g");
    outer->connect("I.y", "y");
    outer->set_trigger("I", "g1");
    return outer;
}

TEST(Triggered, ModelValidation) {
    auto m = std::make_shared<MacroBlock>("M", std::vector<std::string>{"u", "t"},
                                          std::vector<std::string>{"y"});
    m->add_sub("G", lib::gain(1.0));
    m->set_trigger("G", "t");
    EXPECT_THROW(m->set_trigger("G", "u"), ModelError); // already triggered
    EXPECT_THROW(m->set_trigger(5, Endpoint{Endpoint::Kind::MacroInput, -1, 0}), ModelError);
    EXPECT_THROW(m->set_trigger(0, Endpoint{Endpoint::Kind::MacroInput, -1, 9}), ModelError);
    EXPECT_THROW(m->set_trigger(0, Endpoint{Endpoint::Kind::MacroOutput, -1, 0}), ModelError);
}

TEST(Triggered, HoldSemanticsInSimulator) {
    const auto m = triggered_gain();
    const auto out = sim::simulate(
        *m, {{1.0, 1.0}, {2.0, 0.0}, {3.0, 0.0}, {4.0, 1.0}, {5.0, 0.0}});
    // Fired at t=0 (y=2), holds 2, holds 2, fires (y=8), holds 8.
    EXPECT_EQ(out[0][0], 2.0);
    EXPECT_EQ(out[1][0], 2.0);
    EXPECT_EQ(out[2][0], 2.0);
    EXPECT_EQ(out[3][0], 8.0);
    EXPECT_EQ(out[4][0], 8.0);
}

TEST(Triggered, InitialHeldValueIsZero) {
    const auto m = triggered_gain();
    const auto out = sim::simulate(*m, {{7.0, 0.0}, {7.0, 0.0}});
    EXPECT_EQ(out[0][0], 0.0);
    EXPECT_EQ(out[1][0], 0.0);
}

TEST(Triggered, StateFreezesWhileHeld) {
    // Triggered counter with always-enabled input: counts only on instants
    // where x > 0.
    const auto m = triggered_counter();
    const auto out =
        sim::simulate(*m, {{1.0}, {1.0}, {-1.0}, {-1.0}, {1.0}, {1.0}});
    // counter() is Moore: y is the count *before* this instant's update.
    // While held, the *output* freezes at its last emitted value (1), even
    // though the frozen state is already 2; on re-fire the state reappears.
    EXPECT_EQ(out[0][0], 0.0);
    EXPECT_EQ(out[1][0], 1.0);
    EXPECT_EQ(out[2][0], 1.0); // held output (state frozen at 2)
    EXPECT_EQ(out[3][0], 1.0);
    EXPECT_EQ(out[4][0], 2.0); // fires: emits frozen state, then counts on
    EXPECT_EQ(out[5][0], 3.0);
}

TEST(Triggered, MacroClassAccountsForTriggers) {
    // A triggered combinational block holds state -> the macro is
    // sequential; its output depends on the current trigger, which is an
    // input -> not Moore.
    EXPECT_EQ(triggered_gain()->block_class(), BlockClass::Sequential);
    // The triggered counter: output comes from a Moore block, but whether
    // it holds or fires depends on the current input x -> Sequential.
    EXPECT_EQ(triggered_counter()->block_class(), BlockClass::Sequential);
}

TEST(Triggered, FlatteningDistributesAndConjoinsTriggers) {
    const auto m = nested_triggered();
    const auto flat = flatten(*m);
    // Inner Acc must end up triggered by AND(g1, g2) through a synthesized
    // AND block.
    bool found_and = false;
    for (std::size_t s = 0; s < flat->num_subs(); ++s)
        if (flat->sub(s).name.find("trigand/") == 0) found_and = true;
    EXPECT_TRUE(found_and);
    // Semantics: integrates u only when both gates are high.
    const auto out = sim::simulate(*m, {{1.0, 1.0, 1.0},
                                        {1.0, 0.0, 1.0},
                                        {1.0, 1.0, 0.0},
                                        {1.0, 1.0, 1.0}});
    EXPECT_EQ(out[0][0], 0.0); // Moore integrator: pre-update state
    EXPECT_EQ(out[1][0], 0.0); // held output (g1 low; state frozen at 1)
    EXPECT_EQ(out[2][0], 0.0); // held output (g2 low)
    EXPECT_EQ(out[3][0], 1.0); // fires: emits the frozen state
}

TEST(Triggered, SdgGainsTriggerEdges) {
    const auto m = triggered_counter();
    const auto sys = compile_hierarchy(m, Method::Dynamic);
    const Sdg& sdg = *sys.at(*m).sdg;
    // Cnt.get must depend on Pos.step (the trigger writer), making the
    // output n truly dependent on input x.
    const auto deps = sdg.io_dependencies();
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0], (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(Triggered, GeneratedCodePredicatesCalls) {
    const auto m = triggered_gain();
    const auto sys = compile_hierarchy(m, Method::Dynamic);
    const std::string code = sys.at(*m).code->to_pseudocode();
    EXPECT_NE(code.find("if (t >= 0.5) G_y := G.step(u);"), std::string::npos);
}

struct TrigEquivCase {
    const char* name;
    std::shared_ptr<const MacroBlock> (*build)();
    Method method;
};

// Printed by name so the discovered test names carry no load address.
void PrintTo(const TrigEquivCase& c, std::ostream* os) { *os << c.name; }

class TriggeredEquivalence : public ::testing::TestWithParam<TrigEquivCase> {};

TEST_P(TriggeredEquivalence, MatchesReferenceSimulator) {
    const auto m = GetParam().build();
    // Bias the trace so triggers flip between high and low.
    auto trace = sbd::testing::random_trace(m->num_inputs(), 60, 4242);
    for (auto& row : trace)
        for (auto& v : row)
            if (v < 0) v *= 0.1; // keep plenty of sub-0.5 values
    sbd::testing::expect_equivalent(m, GetParam().method, trace);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TriggeredEquivalence,
    ::testing::Values(
        TrigEquivCase{"gain_dynamic", triggered_gain, Method::Dynamic},
        TrigEquivCase{"gain_sat", triggered_gain, Method::DisjointSat},
        TrigEquivCase{"gain_mono", triggered_gain, Method::Monolithic},
        TrigEquivCase{"counter_dynamic", triggered_counter, Method::Dynamic},
        TrigEquivCase{"counter_sat", triggered_counter, Method::DisjointSat},
        TrigEquivCase{"counter_single", triggered_counter, Method::Singletons},
        TrigEquivCase{"nested_dynamic", nested_triggered, Method::Dynamic},
        TrigEquivCase{"nested_sat", nested_triggered, Method::DisjointSat},
        TrigEquivCase{"nested_greedy", nested_triggered, Method::DisjointGreedy}),
    [](const auto& info) { return info.param.name; });

TEST(Triggered, TriggerCycleRejected) {
    // M (Moore) triggered by a combinational function of its own output:
    // a real same-instant cycle that untriggered analysis would miss.
    auto m = std::make_shared<MacroBlock>("TrigCycle", std::vector<std::string>{},
                                          std::vector<std::string>{"y"});
    m->add_sub("D", lib::unit_delay(0.0));
    m->add_sub("Pos", lib::relational(">"));
    m->add_sub("Zero", lib::constant(0.0));
    m->connect("D.y", "Pos.u1");
    m->connect("Zero.y", "Pos.u2");
    m->connect("D.y", "D.u");
    m->connect("D.y", "y");
    m->set_trigger("D", "Pos.y");
    EXPECT_FALSE(is_acyclic_diagram(*m));
    EXPECT_THROW((void)compile_hierarchy(std::static_pointer_cast<const Block>(m),
                                         Method::Dynamic),
                 SdgCycleError);
}

/// Multi-rate ("timed") diagram realized with clock triggers: a fast
/// integrator and a slow (rate 1/3) moving average of its output.
std::shared_ptr<const MacroBlock> multirate() {
    auto m = std::make_shared<MacroBlock>("MultiRate", std::vector<std::string>{"u"},
                                          std::vector<std::string>{"fast", "slow"});
    m->add_sub("Clk3", lib::clock_divider(3));
    m->add_sub("Fast", lib::integrator(1.0));
    m->add_sub("Slow", lib::moving_average(2));
    m->connect("u", "Fast.u");
    m->connect("Fast.y", "fast");
    m->connect("Fast.y", "Slow.u");
    m->connect("Slow.y", "slow");
    m->set_trigger("Slow", "Clk3.y");
    return m;
}

TEST(Timed, ClockDividerEmitsPeriodically) {
    auto m = std::make_shared<MacroBlock>("C", std::vector<std::string>{},
                                          std::vector<std::string>{"y"});
    m->add_sub("Clk", lib::clock_divider(3, 1));
    m->connect("Clk.y", "y");
    const auto out = sim::simulate(*m, std::vector<std::vector<double>>(7));
    std::vector<double> got;
    for (const auto& row : out) got.push_back(row[0]);
    EXPECT_EQ(got, (std::vector<double>{0, 1, 0, 0, 1, 0, 0}));
}

TEST(Timed, MultiRateDiagramMatchesReferenceUnderAllMethods) {
    const auto m = multirate();
    for (const Method method : {Method::Dynamic, Method::DisjointSat, Method::StepGet}) {
        sbd::testing::expect_equivalent(m, method,
                                        sbd::testing::random_trace(1, 40, 61 + (int)method));
    }
}

TEST(Timed, SlowPathHoldsBetweenClockTicks) {
    const auto m = multirate();
    const auto out = sim::simulate(*m, std::vector<std::vector<double>>(6, {1.0}));
    // slow output changes only at instants where the clock fires (k % 3 == 0).
    EXPECT_EQ(out[1][1], out[0][1]);
    EXPECT_EQ(out[2][1], out[0][1]);
    EXPECT_NE(out[3][1], out[2][1]);
    EXPECT_EQ(out[4][1], out[3][1]);
    EXPECT_EQ(out[5][1], out[3][1]);
}

TEST(Triggered, ReusabilityAccountsForTriggerDependencies) {
    // y depends on t through the trigger; feeding y back into t must be
    // flagged illegal, feeding it into u is fine for the dynamic profile.
    const auto m = triggered_gain();
    const auto sys = compile_hierarchy(m, Method::Dynamic);
    const auto legal = legal_feedback_pairs(*sys.at(*m).sdg);
    EXPECT_TRUE(legal.empty()); // y depends on both u and t
}

} // namespace
