#include <gtest/gtest.h>

#include "core/emit_cpp.hpp"
#include "sbd/library.hpp"
#include "suite/figures.hpp"

namespace {

using namespace sbd;
using namespace sbd::codegen;

TEST(EmitCpp, EmitsOneClassPerBlockType) {
    const auto p = suite::figure3_p();
    const auto sys = compile_hierarchy(p, Method::Dynamic);
    const std::string src = emit_cpp(sys);
    EXPECT_NE(src.find("class P_fig3"), std::string::npos);
    EXPECT_NE(src.find("class UnitDelay"), std::string::npos);
    EXPECT_NE(src.find("namespace gen"), std::string::npos);
    // Macro class exposes the profile's functions.
    EXPECT_NE(src.find("double get()"), std::string::npos);
    EXPECT_NE(src.find("void init()"), std::string::npos);
}

TEST(EmitCpp, AtomicWithoutCppSemanticsIsRejected) {
    const auto blind = lib::make_combinational(
        "Blind", {"u"}, {"y"},
        [](auto, std::span<const double> u, std::span<double> y) { y[0] = u[0]; });
    auto m = std::make_shared<MacroBlock>("M", std::vector<std::string>{"x"},
                                          std::vector<std::string>{"y"});
    m->add_sub("B", blind);
    m->connect("x", "B.u");
    m->connect("B.y", "y");
    const auto sys = compile_hierarchy(std::static_pointer_cast<const Block>(m),
                                       Method::Dynamic);
    EXPECT_THROW((void)emit_cpp(sys), std::runtime_error);
}

} // namespace
