#ifndef SBD_CORE_PROFILE_HPP
#define SBD_CORE_PROFILE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sbd/block.hpp"
#include "sbd/opaque.hpp"

namespace sbd::codegen {

/// One interface function of a block profile (Section 4). A function reads
/// a subset of the block's input ports and produces a subset of its output
/// ports; sequential blocks' functions may additionally update state.
struct InterfaceFunction {
    std::string name;
    std::vector<std::size_t> reads;  ///< block input port indices, sorted
    std::vector<std::size_t> writes; ///< block output port indices, sorted
};

/// The profile of a block: its interface functions plus the profile
/// dependency graph (PDG). Edge (a, b) means function a must be called
/// before function b within every synchronous instant. The calling contract
/// is the paper's: each interface function is called exactly once per
/// instant, in any order consistent with the PDG.
struct Profile {
    std::vector<InterfaceFunction> functions;
    std::vector<std::pair<std::size_t, std::size_t>> pdg_edges;
    bool sequential = false; ///< block has state; an init() is generated

    /// Index of the (unique) function writing output port `o`, or -1.
    std::int32_t writer_of_output(std::size_t o) const;
    /// All function indices reading input port `i`.
    std::vector<std::size_t> readers_of_input(std::size_t i) const;

    std::string to_string() const;
};

/// The order in which one synchronous instant calls the profile's functions:
/// a topological order of the PDG, the same on every backend. Throws
/// std::logic_error if the PDG is cyclic.
std::vector<std::size_t> step_order(const Profile& p);

/// The intrinsic profile of an atomic block (Section 4, Figure 3):
///  - combinational:      step(all inputs) -> all outputs
///  - sequential:         step(all inputs) -> all outputs, updates state
///  - Moore-sequential:   get() -> all outputs;  step(all inputs) updates
///                        state;  PDG: get before step
Profile atomic_profile(const AtomicBlock& block);

/// The declared profile of an interface-only black box: its functions and
/// call-order constraints verbatim.
Profile opaque_profile(const OpaqueBlock& block);

} // namespace sbd::codegen

#endif
