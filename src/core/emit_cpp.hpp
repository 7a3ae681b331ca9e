#ifndef SBD_CORE_EMIT_CPP_HPP
#define SBD_CORE_EMIT_CPP_HPP

#include <string>

#include "core/compiler.hpp"

namespace sbd::codegen {

/// Emits a self-contained C++17 translation unit implementing every block
/// type reachable from the compiled system's root, one class per type, in
/// namespace `gen`. Macro-block classes are the generated modular code
/// (interface functions + persistent slots + guard counters + init());
/// atomic-block classes are emitted from their CppSemantics bodies.
///
/// Throws std::runtime_error if some atomic block lacks CppSemantics.
std::string emit_cpp(const CompiledSystem& sys);

/// The C++ class name emit_cpp assigned to `block` (namespace `gen` not
/// included). Deterministic: rebuilds the same name table from the same
/// visit order, so callers can reference emitted classes — the native
/// backend's ABI shim instantiates the root class by this name.
std::string emit_cpp_class_name(const CompiledSystem& sys, const Block& block);

} // namespace sbd::codegen

#endif
