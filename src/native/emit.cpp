// Emission of the native module translation unit: the portable generated
// code from core/emit_cpp plus the extern "C" ABI shim that exposes one
// root-block class through a C symbol table dlopen can bind.
#include <functional>
#include <sstream>

#include "core/emit_cpp.hpp"
#include "core/fingerprint.hpp"
#include "native/native.hpp"

namespace sbd::native {

namespace {

/// `root.fn(args[i]...)` with arguments drawn via `arg(i)`.
std::string invocation(const codegen::InterfaceFunction& fn,
                       const std::string& obj,
                       const std::function<std::string(std::size_t)>& arg) {
    std::string call = obj + "." + fn.name + "(";
    for (std::size_t i = 0; i < fn.reads.size(); ++i) call += (i ? ", " : "") + arg(i);
    call += ")";
    return call;
}

void emit_call_result(std::ostream& os, const codegen::InterfaceFunction& fn,
                      const std::string& call,
                      const std::function<std::string(std::size_t)>& dst) {
    if (fn.writes.empty()) {
        os << "    " << call << ";\n";
    } else if (fn.writes.size() == 1) {
        os << "    " << dst(0) << " = " << call << ";\n";
    } else {
        os << "    { const auto r = " << call << ";";
        for (std::size_t i = 0; i < fn.writes.size(); ++i)
            os << " " << dst(i) << " = r[" << i << "];";
        os << " }\n";
    }
}

} // namespace

std::string emit_native_module(const codegen::CompiledSystem& sys) {
    const codegen::CompiledBlock& root = sys.root();
    const codegen::Profile& p = root.profile;
    const std::string cls = "gen::" + codegen::emit_cpp_class_name(sys, *root.block);
    const std::vector<std::size_t> order = codegen::step_order(p);
    const std::string key =
        codegen::fingerprint_block(*root.block).hex(); // method/options mixed in by the store

    std::ostringstream os;
    os << emit_cpp(sys);
    os << "\n// --- sbdgen native ABI shim (see src/native/module.hpp) ---\n"
       << "#include <cstdint>\n\n"
       << "extern \"C\" {\n\n"
       << "std::uint32_t sbd_nat_abi() { return " << kAbiVersion << "u; }\n"
       << "const char* sbd_nat_key() { return \"" << key << "\"; }\n"
       << "std::uint64_t sbd_nat_num_inputs() { return " << root.block->num_inputs()
       << "u; }\n"
       << "std::uint64_t sbd_nat_num_outputs() { return " << root.block->num_outputs()
       << "u; }\n"
       << "std::uint64_t sbd_nat_num_functions() { return " << p.functions.size() << "u; }\n"
       << "std::uint64_t sbd_nat_state_size() { return " << cls << "::k_state_size; }\n\n"
       << "void* sbd_nat_create() { return new " << cls << "(); }\n"
       << "void sbd_nat_destroy(void* h) { delete static_cast<" << cls << "*>(h); }\n"
       << "void sbd_nat_init(void* h) { static_cast<" << cls << "*>(h)->init(); }\n"
       << "void sbd_nat_save(const void* h, double* out) {\n"
       << "  double* p = out;\n"
       << "  static_cast<const " << cls << "*>(h)->save_state(p);\n"
       << "}\n"
       << "void sbd_nat_load(void* h, const double* in) {\n"
       << "  const double* p = in;\n"
       << "  static_cast<" << cls << "*>(h)->load_state(p);\n"
       << "}\n\n";

    // sbd_nat_call: one switch case per interface function. Arguments arrive
    // in reads order, results leave in writes order — exactly the
    // codegen::Instance::call_into contract.
    os << "void sbd_nat_call(void* h, std::uint32_t fn, const double* args, double* results) "
          "{\n"
       << "  " << cls << "& root = *static_cast<" << cls << "*>(h);\n"
       << "  (void)args; (void)results;\n"
       << "  switch (fn) {\n";
    for (std::size_t f = 0; f < p.functions.size(); ++f) {
        const codegen::InterfaceFunction& fn = p.functions[f];
        os << "  case " << f << ":\n";
        const std::string call = invocation(
            fn, "root", [](std::size_t i) { return "args[" + std::to_string(i) + "]"; });
        emit_call_result(os, fn, call,
                         [](std::size_t i) { return "results[" + std::to_string(i) + "]"; });
        os << "    break;\n";
    }
    os << "  default: break;\n  }\n}\n\n";

    // sbd_nat_step: one full synchronous instant in PDG order, outputs
    // zero-filled first — the interpreter's step_instant_into, compiled.
    os << "void sbd_nat_step(void* h, const double* in, double* out) {\n"
       << "  " << cls << "& root = *static_cast<" << cls << "*>(h);\n"
       << "  (void)in;\n";
    if (root.block->num_outputs() > 0)
        os << "  for (std::uint64_t o = 0; o < " << root.block->num_outputs()
           << "u; ++o) out[o] = 0.0;\n";
    else
        os << "  (void)out;\n";
    for (const std::size_t f : order) {
        const codegen::InterfaceFunction& fn = p.functions[f];
        const std::string call = invocation(fn, "root", [&](std::size_t i) {
            return "in[" + std::to_string(fn.reads[i]) + "]";
        });
        emit_call_result(os, fn, call, [&](std::size_t i) {
            return "out[" + std::to_string(fn.writes[i]) + "]";
        });
    }
    os << "}\n\n} // extern \"C\"\n";
    return os.str();
}

} // namespace sbd::native
