#ifndef SBD_CORE_EXEC_HPP
#define SBD_CORE_EXEC_HPP

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiler.hpp"

namespace sbd::obs {
class MetricsRegistry;
}

namespace sbd::codegen {

/// A runtime instance of a compiled block: the persistent data behind the
/// generated code (signal slots, guard counters, sub-instances; block state
/// for atomic blocks) plus a way to execute its interface functions.
///
/// This is the backend-neutral execution interface. Two backends implement
/// it: InterpInstance interprets the generated IR in-process, and the native
/// backend (src/native) binds the same contract to interface functions
/// compiled ahead-of-time into a dlopen'ed shared object. Everything above
/// this interface — the runtime engine, trace replay, the serve daemon, the
/// differential tests — is backend-agnostic.
///
/// Argument/result validation (and therefore every documented error message)
/// lives in the non-virtual entry points below, so both backends reject bad
/// calls identically by construction.
class Instance {
public:
    virtual ~Instance() = default;

    Instance(const Instance&) = delete;
    Instance& operator=(const Instance&) = delete;

    /// (Re-)initializes all state: the generated init() function.
    void init() { do_init(); }

    /// Calls interface function `fn` of the block's profile. `args` carries
    /// the values of the function's read ports (profile functions[fn].reads
    /// order); the result carries its written ports (writes order).
    std::vector<double> call(std::size_t fn, std::span<const double> args);

    /// Allocation-free form of call(): writes the function's results into
    /// `results`, which must have exactly results_size(fn) elements. All
    /// scratch space lives in per-instance buffers sized at construction,
    /// so repeated calls never touch the allocator — the contract the
    /// runtime engine's hot path relies on.
    void call_into(std::size_t fn, std::span<const double> args, std::span<double> results);

    /// Number of values written by interface function `fn`.
    std::size_t results_size(std::size_t fn) const;

    /// Executes one full synchronous instant: calls every interface function
    /// exactly once in a PDG-consistent order, feeding each from `inputs`
    /// (all input port values) and collecting all output port values.
    std::vector<double> step_instant(std::span<const double> inputs);

    /// Allocation-free form of step_instant(): `outputs` must have exactly
    /// num_outputs() elements. Uses a precomputed PDG-consistent order
    /// (no per-call order validation).
    void step_instant_into(std::span<const double> inputs, std::span<double> outputs);

    /// As step_instant but with an explicit call order (function indices,
    /// a permutation). Throws std::invalid_argument if the order violates
    /// the PDG — used to verify that *every* legal serialization yields the
    /// same results.
    std::vector<double> step_instant_ordered(std::span<const double> inputs,
                                             std::span<const std::size_t> order);

    const Profile& profile() const { return compiled_->profile; }
    const Block& block() const { return *block_; }

    /// Number of doubles save_state() appends: the complete persistent
    /// footprint, CompiledBlock::state_size of the root. The layout (atomic
    /// block state, signal slots, guard counters, sub-instances depth-first)
    /// is identical across backends — the serialization contract that lets a
    /// snapshot taken from one backend restore into the other.
    std::size_t state_size() const { return compiled_->state_size; }
    /// Appends the instance's complete persistent state to `out` in the
    /// fixed state_size() layout. Guard counters are widened to double
    /// (int32 values are exactly representable), so a state blob is a flat
    /// double vector that snapshots and restores bit-exactly.
    void save_state(std::vector<double>& out) const;
    /// Restores state written by save_state() into this instance; returns
    /// the number of values consumed. Throws std::invalid_argument when
    /// `in` holds fewer than state_size() values or when a guard counter in
    /// it is not an integer in [0, modulus).
    std::size_t restore_state(std::span<const double> in);

protected:
    /// Rejects interface-only (opaque) blocks — neither backend can execute
    /// a block whose implementation was never supplied.
    Instance(const CompiledSystem& sys, BlockPtr block);

    virtual void do_init() = 0;
    virtual void do_call_into(std::size_t fn, std::span<const double> args,
                              std::span<double> results) = 0;
    virtual void do_step_instant_into(std::span<const double> inputs,
                                      std::span<double> outputs) = 0;
    virtual void do_save_state(std::vector<double>& out) const = 0;
    virtual void do_restore_state(std::span<const double> in) = 0;

    const CompiledSystem* sys_;
    BlockPtr block_;
    const CompiledBlock* compiled_;
};

/// The interpreter backend: walks the generated IR (core/ir.hpp) directly.
/// The whole instance tree's state is one flat vector in the save_state()
/// layout, and every instance in the tree is a frame resolved once at
/// construction. This is the reference execution path every other backend
/// is differentially tested against.
class InterpInstance final : public Instance {
public:
    InterpInstance(const CompiledSystem& sys, BlockPtr block);

protected:
    void do_init() override;
    void do_call_into(std::size_t fn, std::span<const double> args,
                      std::span<double> results) override;
    void do_step_instant_into(std::span<const double> inputs,
                              std::span<double> outputs) override;
    void do_save_state(std::vector<double>& out) const override;
    void do_restore_state(std::span<const double> in) override;

private:
    /// One instance of the tree. frames_[0] is the root; the subs of a macro
    /// frame are contiguous, so its sub s is frames_[first_sub + s].
    struct Frame {
        const CompiledBlock* cb;
        std::size_t base;      ///< offset of the instance's state in state_
        std::size_t first_sub; ///< macro only: frames_ index of sub 0
        std::size_t scratch;   ///< macro only: offset of its sub-call buffer in scratch_
    };

    void call_frame(const Frame& f, std::size_t fn, std::span<const double> args,
                    std::span<double> results);

    std::vector<double> state_; ///< the whole tree's state, save_state() layout
    std::vector<Frame> frames_;
    /// Per macro frame: the arguments, then the results, of one sub call.
    /// All buffers are sized at construction; the hot path never allocates.
    std::vector<double> scratch_;
    std::vector<std::size_t> step_order_;
    std::vector<double> step_args_;    ///< per-function argument gather in step_instant
    std::vector<double> step_results_; ///< per-function result buffer in step_instant
};

// ---------------------------------------------------------------------------
// Backend selection: the factory the engine, the tools and the serve daemon
// all go through, so `--backend=interp|native` changes nothing above here.

enum class Backend { Interp, Native };

const char* to_string(Backend b);

/// How to build an Executable for a compiled system. Everything beyond
/// `backend` only matters to the native backend (artifact store location,
/// compiler override, clustering identity for artifact keying, metrics).
struct BackendConfig {
    Backend backend = Backend::Interp;
    /// Clustering identity mixed into the native artifact key (the same
    /// method/options pair the profile cache keys on). The emitted source
    /// already encodes them, but keying on them too keeps the store
    /// human-auditable: one artifact family per fingerprint x method.
    Method method = Method::Dynamic;
    ClusterOptions cluster;
    /// Native artifact store directory; "" = <system temp>/sbd-native.
    /// Shares a parent with the profile cache when tools pass --cache-dir.
    std::string cache_dir;
    /// C++ compiler driver for native modules; "" = $SBD_NATIVE_CXX, else
    /// $CXX, else "c++".
    std::string compiler;
    /// Extra compile flags appended after the fixed flag set (testing knob;
    /// participates in the artifact key).
    std::string extra_flags;
    obs::MetricsRegistry* metrics = nullptr;
};

/// Thrown by the native backend when it cannot deliver an executable: no
/// usable compiler, emission rejected the system, the compile failed, or a
/// built artifact cannot be loaded/validated. Tools map this to exit code 9
/// (kExitNative) — distinct from model errors, so operators can tell "your
/// diagram is wrong" from "this host cannot run natively".
class BackendError : public std::runtime_error {
public:
    enum class Code {
        Unavailable,   ///< backend not linked into this binary
        NoCompiler,    ///< no working C++ compiler found
        EmitFailed,    ///< system cannot be emitted as a self-contained TU
        CompileFailed, ///< compiler invocation failed
        LoadFailed,    ///< dlopen/validation failed even after a rebuild
    };

    BackendError(Code code, const std::string& what)
        : std::runtime_error(what), code_(code) {}

    Code code() const { return code_; }

private:
    Code code_;
};

/// A reusable recipe for creating instances of one compiled block under one
/// backend. Construction does the expensive work once (for native: emit,
/// compile or cache-hit, dlopen, validate); instantiate() is then cheap and
/// thread-safe, which is what lets an engine pool or a serve shard stamp
/// out thousands of instances from one artifact.
class Executable {
public:
    virtual ~Executable() = default;

    virtual std::unique_ptr<Instance> instantiate() const = 0;
    virtual const char* backend_name() const = 0;

    const CompiledSystem& system() const { return *sys_; }
    const BlockPtr& root() const { return root_; }

protected:
    Executable(const CompiledSystem& sys, BlockPtr root)
        : sys_(&sys), root_(std::move(root)) {}

    const CompiledSystem* sys_;
    BlockPtr root_;
};

/// Builds an Executable for `root` under the configured backend. The caller
/// keeps `sys` alive for the executable's lifetime (the same contract Engine
/// already has). Backend::Native throws BackendError unless the native
/// backend is linked in and registered (sbd::native::install()).
std::shared_ptr<const Executable> make_executable(const CompiledSystem& sys, BlockPtr root,
                                                  const BackendConfig& cfg = {});

/// Native-backend registration hook. The native backend lives in its own
/// library (sbd_native) so that sbd_core does not depend on dlopen or the
/// host compiler; binaries that want `--backend=native` link sbd_native and
/// call sbd::native::install(), which registers its factory here.
using NativeBackendFactory = std::shared_ptr<const Executable> (*)(const CompiledSystem&,
                                                                   BlockPtr,
                                                                   const BackendConfig&);
void register_native_backend(NativeBackendFactory factory);
bool native_backend_available();

} // namespace sbd::codegen

#endif
