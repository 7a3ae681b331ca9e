#include "core/exec.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace sbd::codegen {

namespace {

void reject_opaque(const Block& b) {
    if (b.is_opaque())
        throw std::logic_error("cannot execute interface-only (opaque) block '" + b.type_name() +
                               "'");
}

/// Throws unless every guard counter in `state`, the state of one instance
/// of `cb`, is an integer in [0, modulus) — the only values the generated
/// code's int counters can take, so no backend converts anything else.
void check_counters(const CompiledSystem& sys, const CompiledBlock& cb,
                    std::span<const double> state) {
    if (!cb.code) return;
    const CodeUnit& code = *cb.code;
    std::size_t at = code.num_slots;
    for (const std::int32_t mod : code.counter_mods) {
        const double c = state[at++];
        if (!(c >= 0 && c < mod && c == std::floor(c)))
            throw std::invalid_argument("Instance::restore_state: guard counter out of range");
    }
    const auto& macro = static_cast<const MacroBlock&>(*cb.block);
    for (std::size_t s = 0; s < macro.num_subs(); ++s) {
        const CompiledBlock& sub = sys.at(*macro.sub(s).type);
        check_counters(sys, sub, state.subspan(at, sub.state_size));
        at += sub.state_size;
    }
}

/// Instances in the tree of one instance of `b`, itself included.
std::size_t count_instances(const Block& b) {
    if (b.is_atomic()) return 1;
    const auto& macro = static_cast<const MacroBlock&>(b);
    std::size_t n = 1;
    for (std::size_t s = 0; s < macro.num_subs(); ++s) n += count_instances(*macro.sub(s).type);
    return n;
}

} // namespace

// ---------------------------------------------------------------------------
// Instance: backend-neutral validation and the generic call plumbing.

Instance::Instance(const CompiledSystem& sys, BlockPtr block)
    : sys_(&sys), block_(std::move(block)), compiled_(&sys.at(*block_)) {
    reject_opaque(*block_);
}

std::size_t Instance::results_size(std::size_t fn) const {
    return compiled_->profile.functions.at(fn).writes.size();
}

std::vector<double> Instance::call(std::size_t fn, std::span<const double> args) {
    std::vector<double> results(results_size(fn));
    call_into(fn, args, results);
    return results;
}

void Instance::call_into(std::size_t fn, std::span<const double> args,
                         std::span<double> results) {
    const InterfaceFunction& sig = compiled_->profile.functions.at(fn);
    if (args.size() != sig.reads.size())
        throw std::invalid_argument("Instance::call: wrong argument count for " + sig.name);
    if (results.size() != sig.writes.size())
        throw std::invalid_argument("Instance::call: wrong result count for " + sig.name);
    do_call_into(fn, args, results);
}

std::vector<double> Instance::step_instant(std::span<const double> inputs) {
    std::vector<double> outputs(block_->num_outputs(), 0.0);
    step_instant_into(inputs, outputs);
    return outputs;
}

void Instance::step_instant_into(std::span<const double> inputs, std::span<double> outputs) {
    if (inputs.size() != block_->num_inputs())
        throw std::invalid_argument("step_instant: wrong number of inputs");
    if (outputs.size() != block_->num_outputs())
        throw std::invalid_argument("step_instant: wrong number of outputs");
    do_step_instant_into(inputs, outputs);
}

std::vector<double> Instance::step_instant_ordered(std::span<const double> inputs,
                                                   std::span<const std::size_t> order) {
    const Profile& p = compiled_->profile;
    if (inputs.size() != block_->num_inputs())
        throw std::invalid_argument("step_instant: wrong number of inputs");
    if (order.size() != p.functions.size())
        throw std::invalid_argument("step_instant: order must cover all interface functions");
    // Check the order against the PDG.
    std::vector<std::size_t> pos(p.functions.size());
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (const auto& [a, b] : p.pdg_edges)
        if (pos[a] >= pos[b])
            throw std::invalid_argument("step_instant: call order violates the PDG");

    std::vector<double> outputs(block_->num_outputs(), 0.0);
    std::vector<double> args;
    for (const std::size_t f : order) {
        const InterfaceFunction& sig = p.functions[f];
        args.clear();
        for (const std::size_t port : sig.reads) args.push_back(inputs[port]);
        const std::vector<double> res = call(f, args);
        for (std::size_t w = 0; w < sig.writes.size(); ++w) outputs[sig.writes[w]] = res[w];
    }
    return outputs;
}

void Instance::save_state(std::vector<double>& out) const { do_save_state(out); }

std::size_t Instance::restore_state(std::span<const double> in) {
    const std::size_t n = state_size();
    if (in.size() < n)
        throw std::invalid_argument("Instance::restore_state: state blob too short");
    check_counters(*sys_, *compiled_, in.first(n));
    do_restore_state(in.first(n));
    return n;
}

// ---------------------------------------------------------------------------
// InterpInstance: the IR interpreter.

InterpInstance::InterpInstance(const CompiledSystem& sys, BlockPtr block)
    : Instance(sys, std::move(block)), state_(compiled_->state_size),
      step_order_(step_order(compiled_->profile)) {
    // Breadth-first, so each macro's subs get contiguous frames; state
    // offsets follow the depth-first save_state layout.
    frames_.reserve(count_instances(*block_));
    frames_.push_back({compiled_, 0, 0, 0});
    std::size_t scratch = 0;
    for (std::size_t f = 0; f < frames_.size(); ++f) {
        const CompiledBlock& cb = *frames_[f].cb;
        if (!cb.code) continue;
        const CodeUnit& code = *cb.code;
        frames_[f].first_sub = frames_.size();
        frames_[f].scratch = scratch;
        for (const GenFunction& gen : code.functions)
            for (const Stmt& s : gen.body)
                if (const auto* call = std::get_if<CallStmt>(&s))
                    scratch = std::max(scratch, frames_[f].scratch + call->args.size() +
                                                    call->results.size());
        std::size_t base = frames_[f].base + code.num_slots + code.counter_mods.size();
        const auto& macro = static_cast<const MacroBlock&>(*cb.block);
        for (std::size_t s = 0; s < macro.num_subs(); ++s) {
            const Block& sub = *macro.sub(s).type;
            reject_opaque(sub);
            const CompiledBlock& sub_cb = sys.at(sub);
            frames_.push_back({&sub_cb, base, 0, 0});
            base += sub_cb.state_size;
        }
    }
    scratch_.resize(scratch);
    std::size_t max_fn_reads = 0;
    std::size_t max_fn_writes = 0;
    for (const InterfaceFunction& f : compiled_->profile.functions) {
        max_fn_reads = std::max(max_fn_reads, f.reads.size());
        max_fn_writes = std::max(max_fn_writes, f.writes.size());
    }
    step_args_.resize(max_fn_reads);
    step_results_.resize(max_fn_writes);
    do_init();
}

void InterpInstance::do_init() {
    std::fill(state_.begin(), state_.end(), 0.0);
    for (const Frame& f : frames_)
        if (!f.cb->code) {
            const auto& init = static_cast<const AtomicBlock&>(*f.cb->block).initial_state();
            std::copy(init.begin(), init.end(), state_.data() + f.base);
        }
}

void InterpInstance::do_save_state(std::vector<double>& out) const {
    out.insert(out.end(), state_.begin(), state_.end());
}

void InterpInstance::do_restore_state(std::span<const double> in) {
    std::copy(in.begin(), in.end(), state_.begin());
}

void InterpInstance::do_call_into(std::size_t fn, std::span<const double> args,
                                  std::span<double> results) {
    call_frame(frames_[0], fn, args, results);
}

void InterpInstance::call_frame(const Frame& f, std::size_t fn, std::span<const double> args,
                                std::span<double> results) {
    if (!f.cb->code) {
        const auto& atomic = static_cast<const AtomicBlock&>(*f.cb->block);
        const std::span<double> state(state_.data() + f.base, f.cb->state_size);
        switch (atomic.block_class()) {
        case BlockClass::Combinational:
            atomic.compute_outputs(state, args, results);
            return;
        case BlockClass::Sequential:
            atomic.compute_outputs(state, args, results);
            atomic.update_state(state, args);
            return;
        case BlockClass::MooreSequential:
            if (fn == 0) { // get(): outputs from state only
                atomic.compute_outputs(state, {}, results);
                return;
            }
            atomic.update_state(state, args); // step(): state update
            return;
        }
        return;
    }

    const CodeUnit& code = *f.cb->code;
    const GenFunction& gen = code.functions[fn];
    double* const slots = state_.data() + f.base;
    double* const counters = slots + code.num_slots;
    double* const scratch = scratch_.data() + f.scratch;
    const auto& reads = gen.sig.reads;
    const auto value = [&](const ValueRef& v) -> double {
        if (v.kind == ValueRef::Kind::Slot) return slots[v.index];
        // Param: position of the input port within this function's reads.
        const auto it = std::lower_bound(reads.begin(), reads.end(),
                                         static_cast<std::size_t>(v.index));
        assert(it != reads.end() && *it == static_cast<std::size_t>(v.index));
        return args[static_cast<std::size_t>(it - reads.begin())];
    };

    for (std::size_t idx = 0; idx < gen.body.size(); ++idx) {
        const Stmt& s = gen.body[idx];
        if (const auto* gb = std::get_if<GuardBegin>(&s)) {
            if (counters[gb->counter] != 0) {
                // Skip to the matching GuardEnd (guards never nest).
                while (!std::holds_alternative<GuardEnd>(gen.body[idx])) ++idx;
            }
            continue;
        }
        if (std::holds_alternative<GuardEnd>(s)) continue;
        if (const auto* bump = std::get_if<BumpStmt>(&s)) {
            // (c + 1) % mod, exactly, for the integer counters in [0, mod).
            double& c = counters[bump->counter];
            c = c + 1 == bump->mod ? 0 : c + 1;
            continue;
        }
        if (const auto* assign = std::get_if<AssignStmt>(&s)) {
            slots[assign->dst_slot] = value(assign->src);
            continue;
        }
        const auto& call = std::get<CallStmt>(s);
        if (call.trigger && value(*call.trigger) < 0.5)
            continue; // hold: result slots keep their previous values
        const std::size_t nargs = call.args.size();
        for (std::size_t a = 0; a < nargs; ++a) scratch[a] = value(call.args[a]);
        call_frame(frames_[f.first_sub + static_cast<std::size_t>(call.sub)],
                   static_cast<std::size_t>(call.fn), {scratch, nargs},
                   {scratch + nargs, call.results.size()});
        for (std::size_t r = 0; r < call.results.size(); ++r)
            slots[call.results[r]] = scratch[nargs + r];
    }

    assert(results.size() == gen.returns.size());
    for (std::size_t r = 0; r < gen.returns.size(); ++r) results[r] = value(gen.returns[r]);
}

void InterpInstance::do_step_instant_into(std::span<const double> inputs,
                                          std::span<double> outputs) {
    const Profile& p = compiled_->profile;
    std::fill(outputs.begin(), outputs.end(), 0.0);
    for (const std::size_t f : step_order_) {
        const InterfaceFunction& sig = p.functions[f];
        for (std::size_t r = 0; r < sig.reads.size(); ++r) step_args_[r] = inputs[sig.reads[r]];
        call_frame(frames_[0], f, {step_args_.data(), sig.reads.size()},
                   {step_results_.data(), sig.writes.size()});
        for (std::size_t w = 0; w < sig.writes.size(); ++w)
            outputs[sig.writes[w]] = step_results_[w];
    }
}

// ---------------------------------------------------------------------------
// Backend selection.

const char* to_string(Backend b) {
    switch (b) {
    case Backend::Interp: return "interp";
    case Backend::Native: return "native";
    }
    return "?";
}

namespace {

class InterpExecutable final : public Executable {
public:
    InterpExecutable(const CompiledSystem& sys, BlockPtr root)
        : Executable(sys, std::move(root)) {}

    std::unique_ptr<Instance> instantiate() const override {
        return std::make_unique<InterpInstance>(*sys_, root_);
    }
    const char* backend_name() const override { return "interp"; }
};

std::atomic<NativeBackendFactory> g_native_factory{nullptr};

} // namespace

void register_native_backend(NativeBackendFactory factory) { g_native_factory = factory; }

bool native_backend_available() { return g_native_factory.load() != nullptr; }

std::shared_ptr<const Executable> make_executable(const CompiledSystem& sys, BlockPtr root,
                                                  const BackendConfig& cfg) {
    switch (cfg.backend) {
    case Backend::Interp:
        return std::make_shared<InterpExecutable>(sys, std::move(root));
    case Backend::Native: {
        const NativeBackendFactory f = g_native_factory.load();
        if (f == nullptr)
            throw BackendError(BackendError::Code::Unavailable,
                               "native backend is not linked into this binary "
                               "(call sbd::native::install())");
        return f(sys, std::move(root), cfg);
    }
    }
    throw std::logic_error("make_executable: unknown backend");
}

} // namespace sbd::codegen
