#include "core/profile.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "graph/digraph.hpp"

namespace sbd::codegen {

std::int32_t Profile::writer_of_output(std::size_t o) const {
    for (std::size_t f = 0; f < functions.size(); ++f)
        for (const std::size_t w : functions[f].writes)
            if (w == o) return static_cast<std::int32_t>(f);
    return -1;
}

std::vector<std::size_t> Profile::readers_of_input(std::size_t i) const {
    std::vector<std::size_t> out;
    for (std::size_t f = 0; f < functions.size(); ++f)
        for (const std::size_t r : functions[f].reads)
            if (r == i) {
                out.push_back(f);
                break;
            }
    return out;
}

std::vector<std::size_t> step_order(const Profile& p) {
    graph::Digraph pdg(p.functions.size());
    for (const auto& [a, b] : p.pdg_edges)
        pdg.add_edge(static_cast<graph::NodeId>(a), static_cast<graph::NodeId>(b));
    const auto order = pdg.topological_order();
    if (!order) throw std::logic_error("step_order: cyclic PDG");
    return {order->begin(), order->end()};
}

std::string Profile::to_string() const {
    std::ostringstream os;
    for (const auto& fn : functions) {
        os << fn.name << "(";
        for (std::size_t i = 0; i < fn.reads.size(); ++i)
            os << (i ? ", " : "") << "in" << fn.reads[i];
        os << ") -> (";
        for (std::size_t i = 0; i < fn.writes.size(); ++i)
            os << (i ? ", " : "") << "out" << fn.writes[i];
        os << ")\n";
    }
    for (const auto& [a, b] : pdg_edges)
        os << functions[a].name << " before " << functions[b].name << "\n";
    return os.str();
}

Profile atomic_profile(const AtomicBlock& block) {
    std::vector<std::size_t> all_in(block.num_inputs());
    std::iota(all_in.begin(), all_in.end(), 0);
    std::vector<std::size_t> all_out(block.num_outputs());
    std::iota(all_out.begin(), all_out.end(), 0);

    Profile p;
    switch (block.block_class()) {
    case BlockClass::Combinational:
        p.functions.push_back(InterfaceFunction{"step", all_in, all_out});
        p.sequential = false;
        break;
    case BlockClass::Sequential:
        p.functions.push_back(InterfaceFunction{"step", all_in, all_out});
        p.sequential = true;
        break;
    case BlockClass::MooreSequential:
        p.functions.push_back(InterfaceFunction{"get", {}, all_out});
        p.functions.push_back(InterfaceFunction{"step", all_in, {}});
        p.pdg_edges.emplace_back(0, 1); // get before step
        p.sequential = true;
        break;
    }
    return p;
}

Profile opaque_profile(const OpaqueBlock& block) {
    Profile p;
    for (const auto& fn : block.functions())
        p.functions.push_back(InterfaceFunction{fn.name, fn.reads, fn.writes});
    p.pdg_edges = block.order();
    p.sequential = block.block_class() != BlockClass::Combinational;
    return p;
}

} // namespace sbd::codegen
