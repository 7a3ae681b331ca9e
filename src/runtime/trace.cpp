#include "runtime/trace.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/bytes.hpp"
#include "core/exec.hpp"
#include "sim/simulator.hpp"

namespace sbd::runtime {

namespace {

constexpr std::uint32_t kMagic = 0x54444253; // "SBDT"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeader = 4 + 4 + 8 + 8 + 8;

bool rows_bit_equal(const std::vector<std::vector<double>>& a,
                    const std::vector<std::vector<double>>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].size() != b[i].size()) return false;
        if (!a[i].empty() &&
            std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) != 0)
            return false;
    }
    return true;
}

std::vector<std::uint8_t> encode_binary(const Trace& t) {
    bytes::ByteWriter w;
    w.reserve(kHeader + t.instants() * (t.num_inputs + t.num_outputs) * sizeof(double));
    w.u32(kMagic);
    w.u32(kVersion);
    w.u64(t.num_inputs);
    w.u64(t.num_outputs);
    w.u64(t.instants());
    for (std::size_t k = 0; k < t.instants(); ++k) {
        w.f64s(t.inputs[k]);
        w.f64s(t.outputs[k]);
    }
    return w.take();
}

/// Decodes an SBDT file whose magic the caller has checked. The body must
/// be exactly `instants` rows of (inputs + outputs) doubles; that is
/// checked before anything is sized from the header.
Trace decode_binary(std::span<const std::uint8_t> raw) {
    bytes::ByteReader r(raw);
    try {
        (void)r.u32(); // magic
        const auto version = r.u32();
        if (version != kVersion)
            throw std::runtime_error("trace: unsupported version " + std::to_string(version));
        const std::uint64_t ni = r.u64();
        const std::uint64_t no = r.u64();
        const std::uint64_t n = r.u64();
        // Rows of zero width would let a 32-byte header claim any number of
        // empty rows.
        const std::uint64_t cells = r.remaining() / sizeof(double);
        if (n != 0 && (ni > cells || no > cells - ni || ni + no == 0 || n > cells / (ni + no)))
            throw std::runtime_error("trace: truncated binary file");
        if (n * (ni + no) * sizeof(double) != r.remaining())
            throw std::runtime_error("trace: trailing bytes after binary trace");
        Trace t;
        t.num_inputs = static_cast<std::size_t>(ni);
        t.num_outputs = static_cast<std::size_t>(no);
        t.inputs.resize(n);
        t.outputs.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            t.inputs[k].resize(t.num_inputs);
            t.outputs[k].resize(t.num_outputs);
            r.f64s(t.inputs[k]);
            r.f64s(t.outputs[k]);
        }
        return t;
    } catch (const bytes::DecodeError&) {
        throw std::runtime_error("trace: truncated binary file");
    }
}

void save_csv(const Trace& t, std::ostream& os) {
    os << "t";
    for (std::size_t i = 0; i < t.num_inputs; ++i) os << ",in" << i;
    for (std::size_t o = 0; o < t.num_outputs; ++o) os << ",out" << o;
    os << "\n";
    char buf[40];
    for (std::size_t k = 0; k < t.instants(); ++k) {
        os << k;
        for (const double v : t.inputs[k]) {
            std::snprintf(buf, sizeof buf, ",%.17g", v);
            os << buf;
        }
        for (const double v : t.outputs[k]) {
            std::snprintf(buf, sizeof buf, ",%.17g", v);
            os << buf;
        }
        os << "\n";
    }
}

Trace load_csv(std::istream& is) {
    std::string line;
    if (!std::getline(is, line)) throw std::runtime_error("trace: empty CSV file");
    // Count the in*/out* columns of the header.
    Trace t;
    {
        std::stringstream header(line);
        std::string col;
        bool first = true;
        while (std::getline(header, col, ',')) {
            if (first) {
                if (col != "t") throw std::runtime_error("trace: malformed CSV header");
                first = false;
            } else if (col.rfind("in", 0) == 0) {
                ++t.num_inputs;
            } else if (col.rfind("out", 0) == 0) {
                ++t.num_outputs;
            } else {
                throw std::runtime_error("trace: unknown CSV column '" + col + "'");
            }
        }
    }
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        std::stringstream row(line);
        std::string cell;
        std::getline(row, cell, ','); // the instant index; implicit by position
        std::vector<double> in(t.num_inputs), out(t.num_outputs);
        for (double& v : in) {
            if (!std::getline(row, cell, ','))
                throw std::runtime_error("trace: short CSV row");
            v = std::strtod(cell.c_str(), nullptr);
        }
        for (double& v : out) {
            if (!std::getline(row, cell, ','))
                throw std::runtime_error("trace: short CSV row");
            v = std::strtod(cell.c_str(), nullptr);
        }
        t.inputs.push_back(std::move(in));
        t.outputs.push_back(std::move(out));
    }
    return t;
}

bool has_suffix(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

bool bit_equal(const Trace& a, const Trace& b) {
    return a.num_inputs == b.num_inputs && a.num_outputs == b.num_outputs &&
           rows_bit_equal(a.inputs, b.inputs) && rows_bit_equal(a.outputs, b.outputs);
}

TraceRecorder::TraceRecorder(std::size_t num_inputs, std::size_t num_outputs) {
    trace_.num_inputs = num_inputs;
    trace_.num_outputs = num_outputs;
}

void TraceRecorder::record(std::span<const double> inputs, std::span<const double> outputs) {
    if (inputs.size() != trace_.num_inputs || outputs.size() != trace_.num_outputs)
        throw std::invalid_argument("TraceRecorder: row width mismatch");
    trace_.inputs.emplace_back(inputs.begin(), inputs.end());
    trace_.outputs.emplace_back(outputs.begin(), outputs.end());
}

void save_trace(const Trace& t, const std::string& path) {
    std::ofstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("trace: cannot write '" + path + "'");
    if (has_suffix(path, ".csv")) {
        save_csv(t, f);
    } else {
        const std::vector<std::uint8_t> raw = encode_binary(t);
        f.write(reinterpret_cast<const char*>(raw.data()),
                static_cast<std::streamsize>(raw.size()));
    }
    if (!f) throw std::runtime_error("trace: write failed for '" + path + "'");
}

Trace load_trace(const std::string& path) {
    const std::optional<std::vector<std::uint8_t>> raw = bytes::read_file(path);
    if (!raw) throw std::runtime_error("trace: cannot read '" + path + "'");
    if (raw->size() >= sizeof kMagic && std::memcmp(raw->data(), &kMagic, sizeof kMagic) == 0)
        return decode_binary(*raw);
    std::istringstream csv(std::string(raw->begin(), raw->end()));
    return load_csv(csv);
}

Trace replay(const codegen::CompiledSystem& sys, BlockPtr root, const Trace& t,
             const std::shared_ptr<const codegen::Executable>& executable) {
    const std::unique_ptr<codegen::Instance> owned =
        executable != nullptr
            ? executable->instantiate()
            : std::unique_ptr<codegen::Instance>(new codegen::InterpInstance(sys, root));
    codegen::Instance& inst = *owned;
    Trace out;
    out.num_inputs = t.num_inputs;
    out.num_outputs = t.num_outputs;
    out.inputs = t.inputs;
    out.outputs.reserve(t.instants());
    std::vector<double> buf(t.num_outputs);
    for (std::size_t k = 0; k < t.instants(); ++k) {
        inst.step_instant_into(t.inputs[k], buf);
        out.outputs.push_back(buf);
    }
    return out;
}

Trace simulate_reference(const MacroBlock& root, const Trace& t) {
    Trace out;
    out.num_inputs = t.num_inputs;
    out.num_outputs = t.num_outputs;
    out.inputs = t.inputs;
    out.outputs = sim::simulate(root, t.inputs);
    return out;
}

} // namespace sbd::runtime
