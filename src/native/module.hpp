// Internal to the native backend: the RAII dlopen handle with its resolved
// symbol table, and the Instance implementation that calls through it.
#ifndef SBD_NATIVE_MODULE_HPP
#define SBD_NATIVE_MODULE_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "core/exec.hpp"

namespace sbd::native {

/// What a module must prove about itself before the loader trusts it: the
/// structural key the caller expects, the ABI version, and the root block's
/// port/function counts. A mismatch (stale artifact, truncated file, wrong
/// model) is a validation failure, never undefined behavior later.
struct ModuleExpectation {
    std::string key;
    std::size_t num_inputs = 0;
    std::size_t num_outputs = 0;
    std::size_t num_functions = 0;
    std::size_t state_size = 0;
};

/// A loaded generated module: the dlopen handle plus every resolved export.
/// Instances hold a shared_ptr to their module, so the shared object stays
/// mapped for as long as any instance created from it is alive.
class NativeModule {
public:
    /// dlopens `path` and resolves + validates the ABI. Returns nullptr and
    /// fills `error` on any failure (missing symbol, ABI/key/shape
    /// mismatch); the caller decides whether that means "rebuild" or
    /// "give up".
    static std::shared_ptr<const NativeModule> load(const std::string& path,
                                                    const ModuleExpectation& expect,
                                                    std::string* error);

    ~NativeModule();

    NativeModule(const NativeModule&) = delete;
    NativeModule& operator=(const NativeModule&) = delete;

    // The extern "C" surface of a generated module (see emit.cpp).
    using CreateFn = void* (*)();
    using DestroyFn = void (*)(void*);
    using InitFn = void (*)(void*);
    using StepFn = void (*)(void*, const double*, double*);
    using CallFn = void (*)(void*, std::uint32_t, const double*, double*);
    using SaveFn = void (*)(const void*, double*);
    using LoadFn = void (*)(void*, const double*);

    CreateFn create = nullptr;
    DestroyFn destroy = nullptr;
    InitFn init = nullptr;
    StepFn step = nullptr;
    CallFn call = nullptr;
    SaveFn save = nullptr;
    LoadFn load_state = nullptr;
    std::size_t state_size = 0;

    const std::string& path() const { return path_; }

private:
    NativeModule() = default;

    void* dl_ = nullptr;
    std::string path_;
};

/// The native backend's Instance: one opaque handle into the generated
/// module. All validation already happened in the codegen::Instance entry
/// points; these overrides are straight calls through the symbol table.
class NativeInstance final : public codegen::Instance {
public:
    NativeInstance(const codegen::CompiledSystem& sys, BlockPtr block,
                   std::shared_ptr<const NativeModule> module);
    ~NativeInstance() override;

protected:
    void do_init() override;
    void do_call_into(std::size_t fn, std::span<const double> args,
                      std::span<double> results) override;
    void do_step_instant_into(std::span<const double> inputs,
                              std::span<double> outputs) override;
    void do_save_state(std::vector<double>& out) const override;
    void do_restore_state(std::span<const double> in) override;

private:
    std::shared_ptr<const NativeModule> module_;
    void* handle_ = nullptr;
};

} // namespace sbd::native

#endif
