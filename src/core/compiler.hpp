#ifndef SBD_CORE_COMPILER_HPP
#define SBD_CORE_COMPILER_HPP

#include <memory>
#include <optional>
#include <unordered_map>

#include "core/codegen.hpp"
#include "core/methods.hpp"

namespace sbd::codegen {

/// Per-block compilation artifact. Atomic blocks carry their intrinsic
/// profile; macro blocks additionally carry the SDG, the clustering and the
/// generated code.
struct CompiledBlock {
    BlockPtr block;
    Profile profile;
    std::optional<Sdg> sdg;
    std::optional<Clustering> clustering;
    std::optional<CodeUnit> code;
    /// Doubles of persistent state in one instance of the block, in the
    /// layout every backend, snapshot and migration plan shares: an atomic
    /// block's state; for a macro, its signal slots, then its guard counters,
    /// then each sub-instance's state depth-first in sub order. Opaque
    /// blocks have none. Set once by Pipeline::compile; never cached.
    std::size_t state_size = 0;
};

/// The result of modular, bottom-up compilation of a block hierarchy. The
/// defining property (tested extensively) is that each macro block was
/// compiled from its sub-blocks' *profiles only* — the compiler never looks
/// through a sub-block's boundary.
class CompiledSystem {
public:
    const CompiledBlock& at(const Block& b) const;
    bool contains(const Block& b) const { return blocks_.contains(&b); }
    const CompiledBlock& root() const { return at(*root_); }
    BlockPtr root_block() const { return root_; }

    /// Total pseudocode line count over all generated macro blocks — the
    /// whole-system code-size measure used in the experiments.
    std::size_t total_lines() const;
    /// Total replicated (node, cluster) memberships over all macro blocks.
    std::size_t total_replication() const;
    /// Total number of generated interface functions.
    std::size_t total_functions() const;

    /// All compiled macro blocks (deterministic post-order of first visit).
    const std::vector<const Block*>& order() const { return order_; }

private:
    friend CompiledSystem compile_hierarchy(BlockPtr, Method, const ClusterOptions&,
                                            SatClusterStats*);
    friend class Pipeline;
    std::unordered_map<const Block*, CompiledBlock> blocks_;
    std::vector<const Block*> order_;
    BlockPtr root_;
};

/// Compiles every macro block reachable from `root`, bottom-up, with the
/// given clustering method. Shared block types are compiled once. Throws
/// SdgCycleError if some macro block's SDG is cyclic (the paper's rejection
/// case), ModelError on malformed diagrams.
///
/// `sat_stats`, if given, accumulates SAT statistics over all compiled
/// blocks (DisjointSat only).
CompiledSystem compile_hierarchy(BlockPtr root, Method method,
                                 const ClusterOptions& opts = {},
                                 SatClusterStats* sat_stats = nullptr);

} // namespace sbd::codegen

#endif
