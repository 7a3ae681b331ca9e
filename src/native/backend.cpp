// The native backend's build pipeline and artifact store.
//
// Store layout: one file per artifact, `<structural>-<content>.so`, where
// `structural` is the profile-cache key (block fingerprint x method x
// canonical options — human-auditable: every artifact family for one
// clustering of one diagram shares the prefix) and `content` hashes the
// emitted source, compiler version, flags and ABI version. Equal file name
// therefore implies equal file content, so writes are atomic renames and
// concurrent writers are harmless; a truncated or stale file simply fails
// validation on load and is rebuilt in place (degradation ladder:
// cache hit -> rebuild -> coded BackendError).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <optional>

#include "core/fingerprint.hpp"
#include "core/fsio.hpp"
#include "native/module.hpp"
#include "native/native.hpp"
#include "obs/metrics.hpp"

namespace sbd::native {

namespace fs = std::filesystem;
using codegen::BackendConfig;
using codegen::BackendError;

namespace {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

std::string shell_quote(const std::string& s) {
    std::string out = "'";
    for (const char c : s)
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    out += "'";
    return out;
}

/// Runs `cmd` with stderr folded into stdout; returns the exit status and
/// fills `output`. -1 = could not spawn.
int run_command(const std::string& cmd, std::string* output) {
    std::FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (pipe == nullptr) return -1;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) *output += buf;
    const int status = ::pclose(pipe);
    return status;
}

/// The fixed flag set. -ffp-contract=off matters for bit-exactness: GCC
/// defaults to contracting a*b+c into fused multiply-add at -O2, which
/// rounds once where the interpreter rounds twice — the differential
/// harness would see one-ulp drift on every fused expression.
constexpr const char* kBaseFlags = "-std=c++17 -O2 -shared -fPIC -fno-fast-math "
                                   "-ffp-contract=off";

struct BuildResult {
    std::shared_ptr<const NativeModule> module;
    bool compiled = false; ///< false = loaded from the store untouched
    std::uint64_t compile_ns = 0;
    std::uint64_t load_ns = 0;
    std::size_t so_bytes = 0;
    bool rejected_artifact = false; ///< an existing artifact failed to load
};

/// Compiles (or loads) one artifact. Runs outside any lock; uniqueness of
/// the temp names keeps concurrent builders of *different* keys apart, and
/// the in-flight map below keeps builders of the *same* key to one.
BuildResult build_artifact(const fs::path& path, const std::string& tu,
                           const std::string& driver, const std::string& extra_flags,
                           const ModuleExpectation& expect) {
    BuildResult r;
    std::string error;
    if (fs::exists(path)) {
        const std::uint64_t t0 = now_ns();
        r.module = NativeModule::load(path.string(), expect, &error);
        r.load_ns = now_ns() - t0;
        if (r.module != nullptr) {
            r.so_bytes = static_cast<std::size_t>(fs::file_size(path));
            return r;
        }
        // Corrupted/stale artifact: degrade to a rebuild.
        r.rejected_artifact = true;
        std::error_code ec;
        fs::remove(path, ec);
    }

    static std::atomic<std::uint64_t> seq{0};
    const std::string stem = path.string() + ".build-" +
                             std::to_string(static_cast<std::uint64_t>(::getpid())) + "-" +
                             std::to_string(seq.fetch_add(1));
    const fs::path tmp_cpp = stem + ".cpp";
    const fs::path tmp_so = stem + ".so";
    {
        std::ofstream out(tmp_cpp, std::ios::binary);
        out << tu;
        if (!out) {
            std::error_code ec;
            fs::remove(tmp_cpp, ec);
            throw BackendError(BackendError::Code::CompileFailed,
                               "native backend: cannot write " + tmp_cpp.string());
        }
    }
    std::string cmd = driver + " " + kBaseFlags;
    if (!extra_flags.empty()) cmd += " " + extra_flags;
    cmd += " -o " + shell_quote(tmp_so.string()) + " " + shell_quote(tmp_cpp.string());

    const std::uint64_t t0 = now_ns();
    std::string output;
    const int status = run_command(cmd, &output);
    r.compile_ns = now_ns() - t0;
    std::error_code ec;
    fs::remove(tmp_cpp, ec);
    if (status != 0) {
        fs::remove(tmp_so, ec);
        if (output.size() > 2000) output.resize(2000);
        throw BackendError(BackendError::Code::CompileFailed,
                           "native backend: compiler failed (" + driver + "): " + output);
    }
    r.so_bytes = static_cast<std::size_t>(fs::file_size(tmp_so, ec));

    // Durable atomic publish: fsync(tmp) + rename within one directory +
    // fsync(dir) never exposes a partial file, even across a power cut. A
    // concurrent publisher of the same key wrote identical bytes, so whoever
    // wins the rename is irrelevant. (A corrupt survivor is still handled:
    // the load path above rejects and rebuilds.)
    if (!fsio::publish_file_durable(tmp_so, path)) {
        fs::remove(tmp_so, ec);
        throw BackendError(BackendError::Code::CompileFailed,
                           "native backend: cannot publish artifact " + path.string());
    }

    const std::uint64_t t1 = now_ns();
    r.module = NativeModule::load(path.string(), expect, &error);
    r.load_ns = now_ns() - t1;
    if (r.module == nullptr)
        throw BackendError(BackendError::Code::LoadFailed,
                           "native backend: freshly built module rejected: " + error);
    r.compiled = true;
    return r;
}

/// Process-wide build memoization: one shared_future per artifact path.
/// Concurrent requests for the same key wait on the first builder
/// (Pipeline-style task dedup); distinct keys build fully in parallel.
/// Failures are not memoized — the entry is erased so a later attempt can
/// retry (e.g. after the operator fixes the compiler).
class BuildScheduler {
public:
    static BuildScheduler& instance() {
        static BuildScheduler s;
        return s;
    }

    std::pair<BuildResult, bool /*first*/> get(const fs::path& path, const std::string& tu,
                                               const std::string& driver,
                                               const std::string& extra_flags,
                                               const ModuleExpectation& expect) {
        std::shared_future<BuildResult> fut;
        std::optional<std::promise<BuildResult>> mine;
        {
            const std::lock_guard<std::mutex> lock(m_);
            const auto it = built_.find(path.string());
            if (it == built_.end()) {
                mine.emplace();
                fut = mine->get_future().share();
                built_.emplace(path.string(), fut);
            } else {
                fut = it->second;
            }
        }
        if (mine) {
            // Build outside the lock: distinct keys compile fully in
            // parallel; same-key callers wait on this future.
            try {
                mine->set_value(build_artifact(path, tu, driver, extra_flags, expect));
            } catch (...) {
                mine->set_exception(std::current_exception());
                const std::lock_guard<std::mutex> lock(m_);
                built_.erase(path.string());
            }
        }
        return {fut.get(), mine.has_value()};
    }

private:
    std::mutex m_;
    /// Successful builds stay memoized for the process lifetime — the
    /// result's NativeModule keeps the shared object mapped, so a later
    /// request is a pure map lookup, no dlopen.
    std::map<std::string, std::shared_future<BuildResult>> built_;
};

class NativeExecutable final : public codegen::Executable {
public:
    NativeExecutable(const codegen::CompiledSystem& sys, BlockPtr root,
                     std::shared_ptr<const NativeModule> module, BuildInfo info)
        : Executable(sys, std::move(root)), module_(std::move(module)),
          info_(std::move(info)) {}

    std::unique_ptr<codegen::Instance> instantiate() const override {
        return std::make_unique<NativeInstance>(*sys_, root_, module_);
    }
    const char* backend_name() const override { return "native"; }

    const BuildInfo& info() const { return info_; }

private:
    std::shared_ptr<const NativeModule> module_;
    BuildInfo info_;
};

} // namespace

std::string compiler_driver(const BackendConfig& cfg) {
    if (!cfg.compiler.empty()) return cfg.compiler;
    if (const char* e = std::getenv("SBD_NATIVE_CXX"); e != nullptr && *e != '\0') return e;
    if (const char* e = std::getenv("CXX"); e != nullptr && *e != '\0') return e;
    return "c++";
}

std::optional<std::string> compiler_version(const std::string& driver) {
    std::string output;
    const int status = run_command(shell_quote(driver) + " --version", &output);
    if (status != 0) return std::nullopt;
    const std::size_t eol = output.find('\n');
    if (eol != std::string::npos) output.resize(eol);
    if (output.empty()) return std::nullopt;
    return output;
}

std::shared_ptr<const codegen::Executable>
make_native_executable(const codegen::CompiledSystem& sys, BlockPtr root,
                       const BackendConfig& cfg) {
    const std::string driver = compiler_driver(cfg);
    const std::optional<std::string> version = compiler_version(driver);
    if (!version)
        throw BackendError(BackendError::Code::NoCompiler,
                           "native backend: no usable C++ compiler ('" + driver +
                               "' failed; set $SBD_NATIVE_CXX or $CXX)");

    std::string tu;
    try {
        tu = emit_native_module(sys);
    } catch (const std::exception& e) {
        throw BackendError(BackendError::Code::EmitFailed,
                           std::string("native backend: ") + e.what());
    }

    BuildInfo info;
    info.compiler = driver;
    info.compiler_version = *version;
    info.tu_bytes = tu.size();
    info.key =
        codegen::compile_key(codegen::fingerprint_block(*root), cfg.method, cfg.cluster).hex();
    {
        codegen::Hasher h;
        h.str(tu);
        h.str(*version);
        h.str(kBaseFlags);
        h.str(cfg.extra_flags);
        h.u32(kAbiVersion);
        info.store_key = h.digest().hex();
    }

    fs::path dir = cfg.cache_dir.empty() ? fs::temp_directory_path() / "sbd-native"
                                         : fs::path(cfg.cache_dir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path path = dir / (info.key + "-" + info.store_key + ".so");
    info.artifact_path = path.string();

    ModuleExpectation expect;
    expect.key = codegen::fingerprint_block(*root).hex();
    expect.num_inputs = root->num_inputs();
    expect.num_outputs = root->num_outputs();
    expect.num_functions = sys.root().profile.functions.size();
    expect.state_size = sys.at(*root).state_size;

    const auto [result, first] =
        BuildScheduler::instance().get(path, tu, driver, cfg.extra_flags, expect);
    // A request is a cache hit unless *this call* compiled the artifact —
    // loaded-from-store and served-from-the-build-memo both count.
    const bool compiled_here = first && result.compiled;
    info.cache_hit = !compiled_here;
    info.compile_ns = compiled_here ? result.compile_ns : 0;
    info.load_ns = result.load_ns;
    info.so_bytes = result.so_bytes;

    if (cfg.metrics != nullptr && first) {
        obs::MetricsRegistry& reg = *cfg.metrics;
        if (result.compiled)
            reg.counter("sbd_native_compiles_total", "native module compilations").inc();
        else
            reg.counter("sbd_native_cache_hits_total", "artifacts reused from the store")
                .inc();
        if (result.rejected_artifact)
            reg.counter("sbd_native_cache_rejects_total",
                        "stored artifacts that failed validation and were rebuilt")
                .inc();
        if (result.compiled)
            reg.histogram("sbd_native_compile_ns", obs::exponential_bounds(1000000, 4.0, 12),
                          "native module compile latency")
                .observe(result.compile_ns);
        reg.histogram("sbd_native_load_ns", obs::exponential_bounds(1000, 4.0, 14),
                      "native module dlopen+validate latency")
            .observe(result.load_ns);
        reg.gauge("sbd_native_tu_bytes", "emitted translation-unit size")
            .set(static_cast<std::int64_t>(info.tu_bytes));
        reg.gauge("sbd_native_so_bytes", "built shared-object size")
            .set(static_cast<std::int64_t>(info.so_bytes));
    }

    return std::make_shared<NativeExecutable>(sys, std::move(root), result.module,
                                              std::move(info));
}

const BuildInfo* build_info(const codegen::Executable& e) {
    const auto* ne = dynamic_cast<const NativeExecutable*>(&e);
    return ne != nullptr ? &ne->info() : nullptr;
}

void install() { codegen::register_native_backend(&make_native_executable); }

} // namespace sbd::native
