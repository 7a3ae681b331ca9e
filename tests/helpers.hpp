#ifndef SBD_TESTS_HELPERS_HPP
#define SBD_TESTS_HELPERS_HPP

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/exec.hpp"
#include "sbd/flatten.hpp"
#include "sim/simulator.hpp"

namespace sbd::testing {

/// Random input trace for a block: `steps` instants of uniform values.
inline std::vector<std::vector<double>> random_trace(std::size_t num_inputs, std::size_t steps,
                                                     std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-4.0, 4.0);
    std::vector<std::vector<double>> trace(steps, std::vector<double>(num_inputs));
    for (auto& row : trace)
        for (auto& v : row) v = dist(rng);
    return trace;
}

/// The central semantic property of the whole framework: executing the
/// modularly generated code (any clustering method) for T instants produces
/// exactly the trace of the reference simulator on the flattened diagram.
inline void expect_equivalent(const std::shared_ptr<const MacroBlock>& block,
                              codegen::Method method,
                              const std::vector<std::vector<double>>& trace) {
    const auto expected = sim::simulate(*block, trace);
    const auto sys = codegen::compile_hierarchy(block, method);
    codegen::InterpInstance inst(sys, block);
    for (std::size_t t = 0; t < trace.size(); ++t) {
        const auto got = inst.step_instant(trace[t]);
        ASSERT_EQ(got.size(), expected[t].size());
        for (std::size_t o = 0; o < got.size(); ++o)
            ASSERT_DOUBLE_EQ(got[o], expected[t][o])
                << "method=" << codegen::to_string(method) << " t=" << t << " output=" << o
                << " block=" << block->type_name();
    }
}

/// Whole-file read for byte-level assertions.
inline std::vector<std::uint8_t> read_bytes(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Byte-pinned golden check: `bytes` must equal the committed file
/// `dir/name`. On a mismatch the produced bytes are written to `name` in
/// the working directory, so the difference can be inspected with cmp.
inline void expect_matches_golden(const std::filesystem::path& dir, const std::string& name,
                                  const std::vector<std::uint8_t>& bytes) {
    const std::vector<std::uint8_t> golden = read_bytes(dir / name);
    if (golden == bytes) return;
    std::ofstream(name, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    ADD_FAILURE() << "bytes differ from golden " << (dir / name) << " (" << bytes.size()
                  << " produced vs " << golden.size() << " pinned); produced bytes written to "
                  << std::filesystem::absolute(name);
}

} // namespace sbd::testing

#endif
