#include "native/module.hpp"

#include <dlfcn.h>

#include <cstring>

#include "native/native.hpp"

namespace sbd::native {

namespace {

template <typename Fn>
bool resolve(void* dl, const char* name, Fn* out, std::string* error) {
    // POSIX guarantees object pointers can represent function pointers for
    // dlsym; the reinterpret_cast is the sanctioned idiom.
    void* sym = ::dlsym(dl, name);
    if (sym == nullptr) {
        *error = std::string("missing symbol ") + name;
        return false;
    }
    *out = reinterpret_cast<Fn>(sym);
    return true;
}

} // namespace

std::shared_ptr<const NativeModule> NativeModule::load(const std::string& path,
                                                       const ModuleExpectation& expect,
                                                       std::string* error) {
    void* dl = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (dl == nullptr) {
        const char* e = ::dlerror();
        *error = e != nullptr ? e : "dlopen failed";
        return nullptr;
    }
    // shared_ptr so a resolution failure below still closes the handle.
    std::shared_ptr<NativeModule> m(new NativeModule());
    m->dl_ = dl;
    m->path_ = path;

    using U32Fn = std::uint32_t (*)();
    using U64Fn = std::uint64_t (*)();
    U32Fn abi = nullptr;
    using KeyFn = const char* (*)();
    KeyFn key = nullptr;
    U64Fn nin = nullptr;
    U64Fn nout = nullptr;
    U64Fn nfn = nullptr;
    U64Fn ssize = nullptr;
    if (!resolve(dl, "sbd_nat_abi", &abi, error) || !resolve(dl, "sbd_nat_key", &key, error) ||
        !resolve(dl, "sbd_nat_num_inputs", &nin, error) ||
        !resolve(dl, "sbd_nat_num_outputs", &nout, error) ||
        !resolve(dl, "sbd_nat_num_functions", &nfn, error) ||
        !resolve(dl, "sbd_nat_state_size", &ssize, error) ||
        !resolve(dl, "sbd_nat_create", &m->create, error) ||
        !resolve(dl, "sbd_nat_destroy", &m->destroy, error) ||
        !resolve(dl, "sbd_nat_init", &m->init, error) ||
        !resolve(dl, "sbd_nat_step", &m->step, error) ||
        !resolve(dl, "sbd_nat_call", &m->call, error) ||
        !resolve(dl, "sbd_nat_save", &m->save, error) ||
        !resolve(dl, "sbd_nat_load", &m->load_state, error))
        return nullptr;

    // Identity validation: a module that fails any of these is stale,
    // truncated or built for a different model — reject, never execute.
    if (abi() != kAbiVersion) {
        *error = "ABI version mismatch (module " + std::to_string(abi()) + ", loader " +
                 std::to_string(kAbiVersion) + ")";
        return nullptr;
    }
    if (expect.key != key()) {
        *error = std::string("structural key mismatch (module ") + key() + ")";
        return nullptr;
    }
    if (nin() != expect.num_inputs || nout() != expect.num_outputs ||
        nfn() != expect.num_functions || ssize() != expect.state_size) {
        *error = "module shape mismatch (ports/functions/state)";
        return nullptr;
    }
    m->state_size = static_cast<std::size_t>(ssize());
    return m;
}

NativeModule::~NativeModule() {
    if (dl_ != nullptr) ::dlclose(dl_);
}

NativeInstance::NativeInstance(const codegen::CompiledSystem& sys, BlockPtr block,
                               std::shared_ptr<const NativeModule> module)
    : Instance(sys, std::move(block)), module_(std::move(module)),
      handle_(module_->create()) {
    if (handle_ == nullptr) throw std::bad_alloc();
}

NativeInstance::~NativeInstance() {
    if (handle_ != nullptr) module_->destroy(handle_);
}

void NativeInstance::do_init() { module_->init(handle_); }

void NativeInstance::do_call_into(std::size_t fn, std::span<const double> args,
                                  std::span<double> results) {
    module_->call(handle_, static_cast<std::uint32_t>(fn), args.data(), results.data());
}

void NativeInstance::do_step_instant_into(std::span<const double> inputs,
                                          std::span<double> outputs) {
    module_->step(handle_, inputs.data(), outputs.data());
}

void NativeInstance::do_save_state(std::vector<double>& out) const {
    const std::size_t at = out.size();
    out.resize(at + module_->state_size);
    module_->save(handle_, out.data() + at);
}

void NativeInstance::do_restore_state(std::span<const double> in) {
    module_->load_state(handle_, in.data());
}

} // namespace sbd::native
