// The one little-endian byte codec and the one checksum behind every
// on-disk and on-wire format: SBDS frames and their payloads, SBDJ journal
// segments, SBDK checkpoints, SBDP profile-cache records and SBDT traces
// (DESIGN.md, "Byte formats"). Header-only and standard-library-only, so
// every layer can use it, down to resilience and obs.
//
// Integers and the raw bit patterns of doubles are little-endian; -0.0 and
// NaN payloads survive a round trip bit for bit. A ByteReader never reads
// past its input and never sizes anything from a count the input cannot
// back: every failure is a DecodeError carrying a Reject code, which each
// format maps to the error it reports (BAD_PAYLOAD, DurableError, a cache
// recompute, "trace: ...").
#ifndef SBD_CORE_BYTES_HPP
#define SBD_CORE_BYTES_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sbd::bytes {

static_assert(std::endian::native == std::endian::little,
              "the byte formats are little-endian; big-endian hosts need byte swaps");

/// FNV-1a 64 over a byte range. Resumable: pass the hash of a prefix as
/// `h` to continue it over the next range.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                             std::uint64_t h = 14695981039346656037ull) {
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/// Why a reader refused its input.
enum class Reject : std::uint8_t {
    Truncated, ///< a read ran past the end of the input
    Count,     ///< a declared element count cannot fit in the bytes left
    Trailing,  ///< bytes left over where the input must be fully consumed
    BadValue,  ///< a field holds a value the format does not allow
};

inline const char* to_string(Reject r) {
    switch (r) {
    case Reject::Truncated: return "truncated";
    case Reject::Count: return "count exceeds the bytes left";
    case Reject::Trailing: return "trailing bytes";
    case Reject::BadValue: return "bad value";
    }
    return "unknown";
}

class DecodeError : public std::runtime_error {
public:
    explicit DecodeError(Reject code) : std::runtime_error(to_string(code)), code_(code) {}
    Reject code() const { return code_; }

private:
    Reject code_;
};

/// Appends fixed-width little-endian fields to one growing buffer.
class ByteWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { put(&v, sizeof v); }
    void u32(std::uint32_t v) { put(&v, sizeof v); }
    void u64(std::uint64_t v) { put(&v, sizeof v); }
    void i32(std::int32_t v) { put(&v, sizeof v); }
    void f64(double v) { put(&v, sizeof v); }
    void f64s(std::span<const double> vs) { put(vs.data(), vs.size_bytes()); }
    void bytes(std::span<const std::uint8_t> vs) { put(vs.data(), vs.size()); }
    /// Length-prefixed string; the prefix is a `Len` (u32 in SBDS, u64 in
    /// the profile cache).
    template <typename Len = std::uint32_t> void str(std::string_view s) {
        const auto n = static_cast<Len>(s.size());
        put(&n, sizeof n);
        put(s.data(), s.size());
    }

    void reserve(std::size_t n) { buf_.reserve(n); }
    std::span<const std::uint8_t> view() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    void put(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n);
    }
    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a borrowed byte range. Throws DecodeError.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int32_t i32() { return get<std::int32_t>(); }
    double f64() { return get<double>(); }
    void f64s(std::span<double> out) {
        const std::span<const std::uint8_t> b = bytes(out.size_bytes());
        if (!out.empty()) std::memcpy(out.data(), b.data(), b.size());
    }
    /// The next `n` bytes, borrowed from the input.
    std::span<const std::uint8_t> bytes(std::size_t n) {
        if (remaining() < n) fail(Reject::Truncated);
        const std::span<const std::uint8_t> b = bytes_.subspan(at_, n);
        at_ += n;
        return b;
    }
    template <typename Len = std::uint32_t> std::string str() {
        const std::span<const std::uint8_t> b = bytes(count<Len>(1));
        return std::string(b.begin(), b.end());
    }
    /// Reads an element count (an `N` on the wire) and rejects it unless
    /// `count * elem_bytes` fits in the bytes left, so a caller may size a
    /// container from it. `elem_bytes` (>= 1) is the smallest encoding of
    /// one element.
    template <typename N = std::uint32_t> std::size_t count(std::size_t elem_bytes) {
        const N n = get<N>();
        if (n > remaining() / elem_bytes) fail(Reject::Count);
        return static_cast<std::size_t>(n);
    }

    std::size_t remaining() const { return bytes_.size() - at_; }
    /// Rejects any bytes left over, for inputs that must be fully consumed.
    void done() const {
        if (at_ != bytes_.size()) fail(Reject::Trailing);
    }

private:
    [[noreturn]] static void fail(Reject r) { throw DecodeError(r); }

    template <typename T> T get() {
        T v;
        std::memcpy(&v, bytes(sizeof v).data(), sizeof v);
        return v;
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t at_ = 0;
};

/// Whole-file read; nullopt when the file cannot be opened or read.
inline std::optional<std::vector<std::uint8_t>> read_file(const std::filesystem::path& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) return std::nullopt;
    std::vector<std::uint8_t> raw{std::istreambuf_iterator<char>(f),
                                  std::istreambuf_iterator<char>()};
    if (f.bad()) return std::nullopt;
    return raw;
}

/// `<prefix><seq as 16 lower-case hex digits><suffix>`: journal segments
/// and checkpoints are named so that lexical order is sequence order.
inline std::string seq_file_name(std::string_view prefix, std::uint64_t seq,
                                 std::string_view suffix) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(seq));
    return std::string(prefix).append(hex).append(suffix);
}

inline std::optional<std::uint64_t> parse_seq_file_name(std::string_view name,
                                                        std::string_view prefix,
                                                        std::string_view suffix) {
    if (name.size() != prefix.size() + 16 + suffix.size() || !name.starts_with(prefix) ||
        !name.ends_with(suffix))
        return std::nullopt;
    std::uint64_t v = 0;
    for (const char c : name.substr(prefix.size(), 16)) {
        int d = 0;
        if (c >= '0' && c <= '9') d = c - '0';
        else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
        else return std::nullopt;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    return v;
}

/// Every regular file in `dir` named by seq_file_name(prefix, _, suffix),
/// ascending by sequence number.
inline std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_seq_files(
    const std::filesystem::path& dir, std::string_view prefix, std::string_view suffix) {
    std::vector<std::pair<std::uint64_t, std::filesystem::path>> v;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
        if (!e.is_regular_file(ec)) continue;
        if (const auto seq = parse_seq_file_name(e.path().filename().string(), prefix, suffix))
            v.emplace_back(*seq, e.path());
    }
    std::sort(v.begin(), v.end());
    return v;
}

} // namespace sbd::bytes

#endif
