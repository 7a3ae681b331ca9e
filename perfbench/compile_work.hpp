// Timed calls into the compiler (sbd parse, core Pipeline with its SAT
// clustering), shared by every workload: compile_deep runs them as its
// workload, the others on their own model in traced runs.
#ifndef PERFBENCH_COMPILE_WORK_HPP
#define PERFBENCH_COMPILE_WORK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/compiler.hpp"
#include "core/methods.hpp"
#include "core/pipeline.hpp"

namespace perfbench {

/// One parse + cold compile (fresh Pipeline and cache, 1 job) of one model.
struct CompileRun {
    double parse_s = 0;
    double compile_s = 0;
    sbd::codegen::PipelineStats stats;
    sbd::codegen::SatClusterStats sat;
    std::size_t lines = 0, functions = 0, replicated = 0;
    sbd::codegen::CompiledSystem sys;
};

CompileRun compile_cold(const std::string& source, sbd::codegen::Method method,
                        std::uint64_t corr);

/// Accumulates compile runs into the sbd / core / sat / compile / codegen
/// per-layer metrics, as per-pass means.
class CompileLayers {
public:
    void add(const CompileRun& r, sbd::codegen::Method method);
    void end_pass() { ++passes_; }
    void report(Metrics& out) const;

private:
    double passes_ = 0;
    double parse_s_ = 0, dynamic_s_ = 0, sat_s_ = 0;
    double fingerprint_ns_ = 0, sdg_ns_ = 0, cluster_ns_ = 0, codegen_ns_ = 0;
    double compiles_ = 0, reuses_ = 0;
    double sat_iterations_ = 0, sat_conflicts_ = 0, sat_propagations_ = 0, sat_clauses_ = 0;
    double lines_ = 0, functions_ = 0, replicated_ = 0;
};

/// Compiles each source `passes` times under both methods and reports the
/// per-layer compile metrics of one pass.
void add_compile_layers(const std::vector<std::string>& sources, int passes, Metrics& out);

} // namespace perfbench

#endif
