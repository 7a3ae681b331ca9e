// The sbd-serve wire protocol: versioned, length-prefixed, checksummed
// binary frames over a byte stream (TCP or Unix socket).
//
// Every frame is a fixed 32-byte header followed by `payload_len` bytes:
//
//   u32 magic        "SBDS" (0x53444253, little-endian byte order S B D S)
//   u16 version      kProtocolVersion (responses echo the request's)
//   u16 opcode       Op — requests set it, responses echo it
//   u16 status       Err — 0 (Ok) in requests, the outcome in responses
//   u16 reserved     0
//   u32 payload_len  <= kMaxPayload
//   u64 request_id   chosen by the client, echoed verbatim in the response
//   u64 checksum     FNV-1a 64 over the payload bytes
//
// Headers and payloads use the shared little-endian codec (core/bytes.hpp).
// A frame with a bad magic, unsupported version, oversized payload or
// wrong checksum is *rejected with a coded error*, never partially
// interpreted; a payload that does not decode is the coded BAD_PAYLOAD.
#ifndef SBD_SERVE_PROTOCOL_HPP
#define SBD_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bytes.hpp"

namespace sbd::serve {

inline constexpr std::uint32_t kMagic = 0x53444253; // "SBDS"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::uint32_t kMaxPayload = 64u << 20; ///< 64 MiB
inline constexpr std::size_t kHeaderSize = 32;

/// Request opcodes. Values are wire format — append, never renumber.
enum class Op : std::uint16_t {
    CreateInstances = 1, ///< tenant, count -> handles
    DestroyInstances = 2,///< tenant, handles -> ()
    PostInputs = 3,      ///< tenant, (handle, input row)... -> ()
    Tick = 4,            ///< tenant, n -> server instants executed so far
    ReadOutputs = 5,     ///< tenant, handles -> output rows
    Snapshot = 6,        ///< tenant, handle -> state blob (doubles)
    Stats = 7,           ///< tenant -> Prometheus text exposition
    Shutdown = 8,        ///< tenant -> (); server drains and exits
    UpgradeModel = 9,    ///< tenant, flags, .sbd source -> version, reuse stats
};

/// UPGRADE_MODEL request flag bits.
inline constexpr std::uint32_t kUpgradeAllowDrain = 1u; ///< accept drain-and-replace plans

/// Coded protocol outcomes. Everything a server can refuse is one of these
/// — a client never sees a torn tick or an uncoded failure. CLI tools map
/// any non-Ok status to exit code 8 (kExitProtocol).
enum class Err : std::uint16_t {
    Ok = 0,
    BadFrame = 1,         ///< magic/length/checksum violation
    BadVersion = 2,       ///< unsupported protocol version
    BadOpcode = 3,        ///< unknown Op
    BadPayload = 4,       ///< payload too short / malformed for the Op
    BadHandle = 5,        ///< stale, foreign or out-of-range instance handle
    PoolFull = 6,         ///< shard capacity exhausted
    TenantBudget = 7,     ///< per-tenant instance budget exceeded (shed)
    DeadlineExceeded = 8, ///< tick deadline expired before the instant began
    FaultInjected = 9,    ///< armed fault plan failed the dispatch path
    ShuttingDown = 10,    ///< server is draining; no new work accepted
    Internal = 11,        ///< unexpected server-side exception
    UpgradeRejected = 12, ///< UPGRADE_MODEL refused (bad model, incompatible
                          ///< state, disabled, or lost a concurrent race);
                          ///< the running version is untouched
    DurableFailed = 13,   ///< the write-ahead journal could not make the
                          ///< mutation durable (append or fsync failed);
                          ///< nothing was applied — journal-then-apply means
                          ///< a rejected append leaves state untouched
};

const char* to_string(Op op);
const char* to_string(Err err);

/// Client-side exception carrying the server's coded rejection.
class ServeError : public std::runtime_error {
public:
    ServeError(Err code, const std::string& what) : std::runtime_error(what), code_(code) {}
    Err code() const { return code_; }

private:
    Err code_;
};

/// One decoded frame (header fields + owned payload bytes).
struct Frame {
    std::uint16_t version = kProtocolVersion;
    Op opcode = Op::CreateInstances;
    Err status = Err::Ok;
    std::uint64_t request_id = 0;
    std::vector<std::uint8_t> payload;
};

/// Serializes header + payload + checksum into one contiguous buffer.
std::vector<std::uint8_t> encode_frame(const Frame& f);

enum class DecodeStatus {
    Ok,          ///< one complete frame decoded; `consumed` bytes eaten
    NeedMore,    ///< the buffer holds a valid prefix of an incomplete frame
    BadMagic,    ///< first four bytes are not "SBDS"
    BadVersion,  ///< version field is not kProtocolVersion
    Oversized,   ///< payload_len exceeds kMaxPayload
    BadChecksum, ///< payload bytes do not match the header checksum
};

struct DecodeResult {
    DecodeStatus status = DecodeStatus::NeedMore;
    std::size_t consumed = 0; ///< bytes eaten on Ok (header + payload)
};

/// Attempts to decode one frame from the front of `bytes`. Never throws;
/// malformed input yields a coded status and consumes nothing.
DecodeResult decode_frame(std::span<const std::uint8_t> bytes, Frame& out);

/// A client-visible instance handle: the owning shard plus the shard-local
/// generational id. 96 bits on the wire (3 x u32); opaque to clients.
struct WireHandle {
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;

    bool operator==(const WireHandle&) const = default;
};

inline constexpr std::size_t kWireHandleBytes = 12; ///< 3 x u32

inline void write_handle(bytes::ByteWriter& w, const WireHandle& h) {
    w.u32(h.shard);
    w.u32(h.slot);
    w.u32(h.generation);
}

inline WireHandle read_handle(bytes::ByteReader& r) {
    WireHandle h;
    h.shard = r.u32();
    h.slot = r.u32();
    h.generation = r.u32();
    return h;
}

} // namespace sbd::serve

#endif
