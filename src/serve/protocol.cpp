#include "serve/protocol.hpp"

namespace sbd::serve {

const char* to_string(Op op) {
    switch (op) {
    case Op::CreateInstances: return "CREATE_INSTANCES";
    case Op::DestroyInstances: return "DESTROY_INSTANCES";
    case Op::PostInputs: return "POST_INPUTS";
    case Op::Tick: return "TICK";
    case Op::ReadOutputs: return "READ_OUTPUTS";
    case Op::Snapshot: return "SNAPSHOT";
    case Op::Stats: return "STATS";
    case Op::Shutdown: return "SHUTDOWN";
    case Op::UpgradeModel: return "UPGRADE_MODEL";
    }
    return "UNKNOWN";
}

const char* to_string(Err err) {
    switch (err) {
    case Err::Ok: return "OK";
    case Err::BadFrame: return "BAD_FRAME";
    case Err::BadVersion: return "BAD_VERSION";
    case Err::BadOpcode: return "BAD_OPCODE";
    case Err::BadPayload: return "BAD_PAYLOAD";
    case Err::BadHandle: return "BAD_HANDLE";
    case Err::PoolFull: return "POOL_FULL";
    case Err::TenantBudget: return "TENANT_BUDGET";
    case Err::DeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Err::FaultInjected: return "FAULT_INJECTED";
    case Err::ShuttingDown: return "SHUTTING_DOWN";
    case Err::Internal: return "INTERNAL";
    case Err::UpgradeRejected: return "UPGRADE_REJECTED";
    case Err::DurableFailed: return "DURABLE_FAILED";
    }
    return "UNKNOWN";
}

std::vector<std::uint8_t> encode_frame(const Frame& f) {
    if (f.payload.size() > kMaxPayload)
        throw std::length_error("encode_frame: payload exceeds kMaxPayload");
    bytes::ByteWriter w;
    w.reserve(kHeaderSize + f.payload.size());
    w.u32(kMagic);
    w.u16(f.version);
    w.u16(static_cast<std::uint16_t>(f.opcode));
    w.u16(static_cast<std::uint16_t>(f.status));
    w.u16(0); // reserved
    w.u32(static_cast<std::uint32_t>(f.payload.size()));
    w.u64(f.request_id);
    w.u64(bytes::fnv1a64(f.payload));
    w.bytes(f.payload);
    return w.take();
}

DecodeResult decode_frame(std::span<const std::uint8_t> in, Frame& out) {
    if (in.size() < 4) return {DecodeStatus::NeedMore, 0};
    bytes::ByteReader r(in);
    if (r.u32() != kMagic) return {DecodeStatus::BadMagic, 0};
    if (in.size() < kHeaderSize) return {DecodeStatus::NeedMore, 0};
    const std::uint16_t version = r.u16();
    if (version != kProtocolVersion) return {DecodeStatus::BadVersion, 0};
    const auto opcode = static_cast<Op>(r.u16());
    const auto status = static_cast<Err>(r.u16());
    (void)r.u16(); // reserved
    const std::uint32_t payload_len = r.u32();
    if (payload_len > kMaxPayload) return {DecodeStatus::Oversized, 0};
    if (in.size() < kHeaderSize + payload_len) return {DecodeStatus::NeedMore, 0};
    const std::uint64_t request_id = r.u64();
    const std::uint64_t checksum = r.u64();
    const std::span<const std::uint8_t> payload = r.bytes(payload_len);
    if (bytes::fnv1a64(payload) != checksum) return {DecodeStatus::BadChecksum, 0};
    out.version = version;
    out.opcode = opcode;
    out.status = status;
    out.request_id = request_id;
    out.payload.assign(payload.begin(), payload.end());
    return {DecodeStatus::Ok, kHeaderSize + payload_len};
}

} // namespace sbd::serve
