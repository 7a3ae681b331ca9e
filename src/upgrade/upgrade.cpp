#include "upgrade/upgrade.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "analysis/absint.hpp"
#include "core/sdg.hpp"
#include "resilience/budget.hpp"
#include "resilience/fault.hpp"
#include "sbd/text_format.hpp"

namespace sbd::upgrade {

namespace {

using codegen::Fingerprint;
using codegen::FingerprintHash;

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string join_path(const std::string& prefix, const std::string& name) {
    return prefix.empty() ? name : prefix + "." + name;
}

/// Collects the distinct macro-unit fingerprints reachable from `b`.
void collect_macro_units(const Block& b, codegen::BlockFingerprinter& fp,
                         std::unordered_set<Fingerprint, FingerprintHash>& units,
                         std::unordered_set<const Block*>& seen) {
    if (b.is_atomic() || b.is_opaque() || !seen.insert(&b).second) return;
    const auto& m = static_cast<const MacroBlock&>(b);
    units.insert(fp.of(b));
    for (std::size_t i = 0; i < m.num_subs(); ++i)
        collect_macro_units(*m.sub(i).type, fp, units, seen);
}

struct DiffWalker {
    codegen::BlockFingerprinter& fp;
    std::vector<DiffEntry>& entries;

    void mark(const Block& b, const std::string& path, SubtreeChange change) {
        entries.push_back({path, b.type_name(), change});
    }

    void walk(const Block& oldb, const Block& newb, const std::string& path) {
        if (fp.of(oldb) == fp.of(newb)) {
            mark(newb, path, SubtreeChange::Unchanged);
            return; // the whole subtree is reused; stop at the frontier
        }
        mark(newb, path, SubtreeChange::Changed);
        if (oldb.is_atomic() || newb.is_atomic() || oldb.is_opaque() || newb.is_opaque())
            return; // a leaf-level change (or a kind change): nothing below to match
        const auto& om = static_cast<const MacroBlock&>(oldb);
        const auto& nm = static_cast<const MacroBlock&>(newb);
        std::unordered_map<std::string, std::size_t> old_subs;
        for (std::size_t i = 0; i < om.num_subs(); ++i) old_subs.emplace(om.sub(i).name, i);
        for (std::size_t i = 0; i < nm.num_subs(); ++i) {
            const MacroBlock::SubBlock& ns = nm.sub(i);
            const std::string sub_path = join_path(path, ns.name);
            const auto oit = old_subs.find(ns.name);
            if (oit == old_subs.end()) {
                mark(*ns.type, sub_path, SubtreeChange::Added);
            } else {
                walk(*om.sub(oit->second).type, *ns.type, sub_path);
                old_subs.erase(oit);
            }
        }
        // Removed subs, in the old model's sub order for determinism.
        std::vector<std::size_t> removed;
        removed.reserve(old_subs.size());
        for (const auto& [name, idx] : old_subs) removed.push_back(idx);
        std::sort(removed.begin(), removed.end());
        for (const std::size_t idx : removed)
            mark(*om.sub(idx).type, join_path(path, om.sub(idx).name), SubtreeChange::Removed);
    }
};

/// Builds the port map for one direction: new index -> old index by name.
std::vector<std::int32_t> port_map(const Block& oldb, const Block& newb, bool inputs) {
    const std::size_t n_new = inputs ? newb.num_inputs() : newb.num_outputs();
    const std::size_t n_old = inputs ? oldb.num_inputs() : oldb.num_outputs();
    std::unordered_map<std::string, std::int32_t> by_name;
    for (std::size_t i = 0; i < n_old; ++i)
        by_name.emplace(inputs ? oldb.input_name(i) : oldb.output_name(i),
                        static_cast<std::int32_t>(i));
    std::vector<std::int32_t> map(n_new, -1);
    for (std::size_t i = 0; i < n_new; ++i) {
        const auto it = by_name.find(inputs ? newb.input_name(i) : newb.output_name(i));
        if (it != by_name.end()) map[i] = it->second;
    }
    return map;
}

/// True when the two roots expose the same port interface: the same input
/// and output names in the same order (and therefore the same arities).
bool same_interface(const Block& a, const Block& b) {
    if (a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs()) return false;
    for (std::size_t i = 0; i < a.num_inputs(); ++i)
        if (a.input_name(i) != b.input_name(i)) return false;
    for (std::size_t i = 0; i < a.num_outputs(); ++i)
        if (a.output_name(i) != b.output_name(i)) return false;
    return true;
}

} // namespace

/// Recursive lockstep walk of the two instance trees, emitting migration
/// rules and offset bookkeeping into the plan (friend of MigrationPlan).
struct PlanBuilder {
    const codegen::CompiledSystem& old_sys;
    const codegen::CompiledSystem& new_sys;
    codegen::BlockFingerprinter& fp;
    MigrationPlan& plan;

    void rule(RuleKind kind, const std::string& path, std::size_t old_off, std::size_t new_off,
              std::size_t count) {
        if (count != 0) plan.rules_.push_back({kind, path, old_off, new_off, count});
    }

    void init_subtree(const Block& b, const std::string& path, std::size_t new_off) {
        const std::size_t n = new_sys.at(b).state_size;
        rule(RuleKind::InitSubtree, path, 0, new_off, n);
        plan.inited_ += n;
    }

    void drop_subtree(const Block& b, const std::string& path, std::size_t old_off) {
        const std::size_t n = old_sys.at(b).state_size;
        rule(RuleKind::DropSubtree, path, old_off, 0, n);
        plan.dropped_ += n;
    }

    void walk(const Block& oldb, const Block& newb, const std::string& path,
              std::size_t old_off, std::size_t new_off) {
        const std::size_t old_n = old_sys.at(oldb).state_size;
        const std::size_t new_n = new_sys.at(newb).state_size;
        if (fp.of(oldb) == fp.of(newb)) {
            // Bit-identical artifacts, hence bit-identical layouts: the
            // whole contiguous segment carries over verbatim.
            rule(RuleKind::CopySubtree, path, old_off, new_off, new_n);
            plan.copied_ += new_n;
            return;
        }
        if (oldb.is_atomic() && newb.is_atomic()) {
            if (old_n == new_n) {
                rule(RuleKind::CarryAtomic, path, old_off, new_off, new_n);
                plan.copied_ += new_n;
            } else {
                rule(RuleKind::InitSubtree, path, old_off, new_off, new_n);
                plan.inited_ += new_n;
                plan.dropped_ += old_n;
            }
            return;
        }
        if (oldb.is_atomic() || newb.is_atomic() || oldb.is_opaque() || newb.is_opaque()) {
            // Kind changed under the same path: nothing meaningful carries.
            rule(RuleKind::InitSubtree, path, old_off, new_off, new_n);
            plan.inited_ += new_n;
            plan.dropped_ += old_n;
            return;
        }
        const auto& om = static_cast<const MacroBlock&>(oldb);
        const auto& nm = static_cast<const MacroBlock&>(newb);
        const codegen::CompiledBlock& ocb = old_sys.at(oldb);
        const codegen::CompiledBlock& ncb = new_sys.at(newb);
        const std::size_t old_locals =
            ocb.code ? ocb.code->num_slots + ocb.code->counter_mods.size() : 0;
        const std::size_t new_locals =
            ncb.code ? ncb.code->num_slots + ncb.code->counter_mods.size() : 0;
        // The generated code changed, so slot/counter meanings may have
        // moved: the macro's own locals restart from init (zeros).
        rule(RuleKind::ResetLocal, path, old_off, new_off, new_locals);
        plan.inited_ += new_locals;
        plan.dropped_ += old_locals;
        // Sub-instance offsets: depth-first in sub-index order, after the
        // locals — the documented save_state layout on both sides.
        std::unordered_map<std::string, std::size_t> old_subs;
        std::vector<std::size_t> old_sub_off(om.num_subs(), 0);
        {
            std::size_t off = old_off + old_locals;
            for (std::size_t i = 0; i < om.num_subs(); ++i) {
                old_subs.emplace(om.sub(i).name, i);
                old_sub_off[i] = off;
                off += old_sys.at(*om.sub(i).type).state_size;
            }
        }
        std::size_t new_sub_off = new_off + new_locals;
        for (std::size_t i = 0; i < nm.num_subs(); ++i) {
            const MacroBlock::SubBlock& ns = nm.sub(i);
            const std::string sub_path = join_path(path, ns.name);
            const auto oit = old_subs.find(ns.name);
            if (oit == old_subs.end()) {
                init_subtree(*ns.type, sub_path, new_sub_off);
            } else {
                walk(*om.sub(oit->second).type, *ns.type, sub_path, old_sub_off[oit->second],
                     new_sub_off);
                old_subs.erase(oit);
            }
            new_sub_off += new_sys.at(*ns.type).state_size;
        }
        std::vector<std::size_t> removed;
        removed.reserve(old_subs.size());
        for (const auto& [name, idx] : old_subs) removed.push_back(idx);
        std::sort(removed.begin(), removed.end());
        for (const std::size_t idx : removed)
            drop_subtree(*om.sub(idx).type, join_path(path, om.sub(idx).name), old_sub_off[idx]);
    }
};

const char* to_string(SubtreeChange c) {
    switch (c) {
    case SubtreeChange::Unchanged: return "unchanged";
    case SubtreeChange::Changed: return "changed";
    case SubtreeChange::Added: return "added";
    case SubtreeChange::Removed: return "removed";
    }
    return "?";
}

const char* to_string(RuleKind k) {
    switch (k) {
    case RuleKind::CopySubtree: return "copy-subtree";
    case RuleKind::CarryAtomic: return "carry-atomic";
    case RuleKind::ResetLocal: return "reset-local";
    case RuleKind::InitSubtree: return "init-subtree";
    case RuleKind::DropSubtree: return "drop-subtree";
    }
    return "?";
}

const char* to_string(UpgradeError::Code c) {
    switch (c) {
    case UpgradeError::Code::Parse: return "parse";
    case UpgradeError::Code::Compile: return "compile";
    case UpgradeError::Code::Analysis: return "analysis";
    case UpgradeError::Code::Backend: return "backend";
    case UpgradeError::Code::Incompatible: return "incompatible";
    case UpgradeError::Code::Conflict: return "conflict";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// ModelDiff

std::string ModelDiff::summary() const {
    std::size_t changed = 0, added = 0, removed = 0;
    for (const DiffEntry& e : entries) {
        changed += e.change == SubtreeChange::Changed;
        added += e.change == SubtreeChange::Added;
        removed += e.change == SubtreeChange::Removed;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%zu/%zu units reusable (%.0f%%); %zu changed, %zu added, %zu removed",
                  units_reused, units_total, reuse_ratio() * 100.0, changed, added, removed);
    return buf;
}

std::string ModelDiff::to_json() const {
    std::string j = "{\n  \"units_total\": " + std::to_string(units_total) +
                    ",\n  \"units_reused\": " + std::to_string(units_reused) +
                    ",\n  \"reuse_ratio\": " + std::to_string(reuse_ratio()) +
                    ",\n  \"entries\": [";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const DiffEntry& e = entries[i];
        j += i == 0 ? "\n" : ",\n";
        j += "    {\"path\": \"" + json_escape(e.path) + "\", \"type\": \"" +
             json_escape(e.type_name) + "\", \"change\": \"" + to_string(e.change) + "\"}";
    }
    j += "\n  ]\n}\n";
    return j;
}

ModelDiff diff_models(const BlockPtr& old_root, const BlockPtr& new_root) {
    ModelDiff d;
    codegen::BlockFingerprinter fp;
    std::unordered_set<Fingerprint, FingerprintHash> old_units, new_units;
    std::unordered_set<const Block*> seen_old, seen_new;
    collect_macro_units(*old_root, fp, old_units, seen_old);
    collect_macro_units(*new_root, fp, new_units, seen_new);
    d.units_total = new_units.size();
    for (const Fingerprint& u : new_units) d.units_reused += old_units.contains(u);
    DiffWalker{fp, d.entries}.walk(*old_root, *new_root, "");
    return d;
}

// ---------------------------------------------------------------------------
// MigrationPlan

void MigrationPlan::migrate(std::span<const double> old_state, std::span<const double> old_in,
                            std::span<const double> old_out, std::span<double> new_state,
                            std::span<double> new_in, std::span<double> new_out) const {
    if (old_state.size() != old_state_size_ || new_state.size() != new_state_size_)
        throw std::invalid_argument("MigrationPlan: state layout mismatch (old " +
                                    std::to_string(old_state.size()) + "/" +
                                    std::to_string(old_state_size_) + ", new " +
                                    std::to_string(new_state.size()) + "/" +
                                    std::to_string(new_state_size_) + ")");
    if (new_in.size() != input_map_.size() || new_out.size() != output_map_.size())
        throw std::invalid_argument("MigrationPlan: port layout mismatch");
    if (drain_) return; // every instance restarts from init values
    for (const MigrationRule& r : rules_) {
        if (r.kind != RuleKind::CopySubtree && r.kind != RuleKind::CarryAtomic) continue;
        std::copy_n(old_state.data() + r.old_offset, r.count, new_state.data() + r.new_offset);
    }
    for (std::size_t i = 0; i < input_map_.size(); ++i)
        if (input_map_[i] >= 0) new_in[i] = old_in[static_cast<std::size_t>(input_map_[i])];
    for (std::size_t i = 0; i < output_map_.size(); ++i)
        if (output_map_[i] >= 0) new_out[i] = old_out[static_cast<std::size_t>(output_map_[i])];
}

std::string MigrationPlan::summary() const {
    if (drain_) return "drain-and-replace: " + drain_reason_;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "carry %zu of %zu doubles into %zu; init %zu, drop %zu (%zu rules)", copied_,
                  old_state_size_, new_state_size_, inited_, dropped_, rules_.size());
    return buf;
}

std::string MigrationPlan::to_json() const {
    std::string j = std::string("{\n  \"drain_and_replace\": ") + (drain_ ? "true" : "false");
    if (drain_) j += ",\n  \"drain_reason\": \"" + json_escape(drain_reason_) + "\"";
    j += ",\n  \"old_state_size\": " + std::to_string(old_state_size_) +
         ",\n  \"new_state_size\": " + std::to_string(new_state_size_) +
         ",\n  \"copied\": " + std::to_string(copied_) +
         ",\n  \"initialized\": " + std::to_string(inited_) +
         ",\n  \"dropped\": " + std::to_string(dropped_) + ",\n  \"rules\": [";
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const MigrationRule& r = rules_[i];
        j += i == 0 ? "\n" : ",\n";
        j += "    {\"kind\": \"" + std::string(to_string(r.kind)) + "\", \"path\": \"" +
             json_escape(r.path) + "\", \"old_offset\": " + std::to_string(r.old_offset) +
             ", \"new_offset\": " + std::to_string(r.new_offset) +
             ", \"count\": " + std::to_string(r.count) + "}";
    }
    j += "\n  ]\n}\n";
    return j;
}

MigrationPlan plan_migration(const codegen::CompiledSystem& old_sys, const BlockPtr& old_root,
                             const codegen::CompiledSystem& new_sys, const BlockPtr& new_root) {
    MigrationPlan plan;
    plan.old_state_size_ = old_sys.at(*old_root).state_size;
    plan.new_state_size_ = new_sys.at(*new_root).state_size;
    plan.input_map_ = port_map(*old_root, *new_root, /*inputs=*/true);
    plan.output_map_ = port_map(*old_root, *new_root, /*inputs=*/false);
    if (!same_interface(*old_root, *new_root)) {
        // The contract with clients changed, so state continuity is
        // meaningless: appliers must opt into a full drain-and-replace.
        plan.drain_ = true;
        plan.drain_reason_ = "root port interface changed";
        plan.rules_.push_back(
            {RuleKind::DropSubtree, "", 0, 0, plan.old_state_size_});
        plan.rules_.push_back(
            {RuleKind::InitSubtree, "", 0, 0, plan.new_state_size_});
        plan.dropped_ = plan.old_state_size_;
        plan.inited_ = plan.new_state_size_;
        return plan;
    }
    codegen::BlockFingerprinter fp;
    PlanBuilder{old_sys, new_sys, fp, plan}.walk(*old_root, *new_root, "", 0, 0);
    return plan;
}

// ---------------------------------------------------------------------------
// compile_version

ModelVersion compile_version(const std::string& source_text, const CompileContext& ctx,
                             std::uint64_t version) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    ModelVersion v;
    v.version = version;

    text::ParsedFile file;
    try {
        file = text::parse_sbd_string(source_text);
    } catch (const std::exception& e) {
        throw UpgradeError(UpgradeError::Code::Parse, e.what());
    }
    if (file.root == nullptr)
        throw UpgradeError(UpgradeError::Code::Parse, "model source defines no block");
    v.root = file.root;

    codegen::PipelineOptions popts;
    popts.method = ctx.method;
    popts.cluster = ctx.cluster;
    popts.threads = std::max<std::size_t>(1, ctx.jobs);
    // metrics stays null: the pipeline creates a private registry, so the
    // reuse counters below measure exactly this compile (registry counters
    // are name-keyed and cumulative — a shared registry would blend runs).
    try {
        codegen::Pipeline pipeline = ctx.cache != nullptr
                                         ? codegen::Pipeline(popts, ctx.cache)
                                         : codegen::Pipeline(popts);
        v.sys = std::make_shared<const codegen::CompiledSystem>(pipeline.compile(v.root));
        const codegen::PipelineStats st = pipeline.stats();
        v.macro_compiles = st.macro_compiles;
        v.macro_reuses = st.macro_reuses;
    } catch (const resilience::DeadlineExceeded&) {
        throw; // keeps its own coded status at every call site
    } catch (const resilience::FaultInjected&) {
        throw; // chaos schedules must observe the injection, not a wrap
    } catch (const resilience::BudgetExhausted& e) {
        throw UpgradeError(UpgradeError::Code::Compile, e.what());
    } catch (const std::exception& e) {
        throw UpgradeError(UpgradeError::Code::Compile, e.what());
    }

    // The same deep-analysis load gate sbd-serve applies at boot: refuse a
    // version whose outputs are provably broken on every instant.
    for (const analysis::Diagnostic& d : analysis::deep_diagnostics(*v.sys, v.root)) {
        if (d.code != "SBD022" && d.code != "SBD024") continue;
        throw UpgradeError(UpgradeError::Code::Analysis, "[" + d.code + "] " + d.message);
    }

    try {
        v.exec = codegen::make_executable(*v.sys, v.root, ctx.backend);
    } catch (const codegen::BackendError& e) {
        throw UpgradeError(UpgradeError::Code::Backend, e.what());
    }

    v.compile_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    return v;
}

} // namespace sbd::upgrade
