#include "serve/client.hpp"

#include <stdexcept>

namespace sbd::serve {

namespace {

/// Decodes the payload of an Ok reply with `read`, which must consume all
/// of it; a reply that does not decode is the coded BAD_PAYLOAD.
template <typename F> auto decode_reply(const Frame& resp, F&& read) {
    try {
        bytes::ByteReader r(resp.payload);
        auto out = read(r);
        r.done();
        return out;
    } catch (const bytes::DecodeError&) {
        throw ServeError(Err::BadPayload, "malformed request payload");
    }
}

} // namespace

Frame Client::call_raw(Op op, std::vector<std::uint8_t> payload) {
    Frame req;
    req.opcode = op;
    req.request_id = next_request_id_++;
    req.payload = std::move(payload);
    conn_.send_frame(req);
    std::optional<Frame> resp = conn_.recv_frame();
    if (!resp) throw std::runtime_error("serve: server closed the connection");
    if (resp->request_id != req.request_id)
        throw std::runtime_error("serve: response id does not match the request");
    return std::move(*resp);
}

Frame Client::call(Op op, std::vector<std::uint8_t> payload) {
    Frame resp = call_raw(op, std::move(payload));
    if (resp.status != Err::Ok) {
        std::string message = "(no message)";
        try {
            bytes::ByteReader r(resp.payload);
            message = r.str();
        } catch (const bytes::DecodeError&) {
        }
        throw ServeError(resp.status,
                         std::string(to_string(resp.status)) + ": " + message);
    }
    return resp;
}

std::vector<WireHandle> Client::create_instances(std::uint64_t tenant, std::uint32_t count) {
    bytes::ByteWriter w;
    w.u64(tenant);
    w.u32(count);
    return decode_reply(call(Op::CreateInstances, w.take()), [](bytes::ByteReader& r) {
        std::vector<WireHandle> handles(r.count(kWireHandleBytes));
        for (WireHandle& h : handles) h = read_handle(r);
        return handles;
    });
}

void Client::destroy_instances(std::uint64_t tenant, std::span<const WireHandle> handles) {
    bytes::ByteWriter w;
    w.u64(tenant);
    w.u32(static_cast<std::uint32_t>(handles.size()));
    for (const WireHandle& h : handles) write_handle(w, h);
    call(Op::DestroyInstances, w.take());
}

void Client::post_inputs(std::uint64_t tenant, std::span<const WireHandle> handles,
                         std::span<const double> rows) {
    if (handles.empty() && rows.empty()) {
        bytes::ByteWriter w;
        w.u64(tenant);
        w.u32(0);
        call(Op::PostInputs, w.take());
        return;
    }
    if (handles.empty() || rows.size() % handles.size() != 0)
        throw std::invalid_argument("post_inputs: rows must be handles * num_inputs doubles");
    const std::size_t nin = rows.size() / handles.size();
    bytes::ByteWriter w;
    w.u64(tenant);
    w.u32(static_cast<std::uint32_t>(handles.size()));
    for (std::size_t i = 0; i < handles.size(); ++i) {
        write_handle(w, handles[i]);
        w.f64s(rows.subspan(i * nin, nin));
    }
    call(Op::PostInputs, w.take());
}

TickResult Client::tick(std::uint64_t tenant, std::uint32_t n) {
    bytes::ByteWriter w;
    w.u64(tenant);
    w.u32(n);
    return decode_reply(call(Op::Tick, w.take()), [](bytes::ByteReader& r) {
        TickResult t;
        t.server_ticks = r.u64();
        t.executed = r.u32();
        return t;
    });
}

std::vector<double> Client::read_outputs(std::uint64_t tenant,
                                         std::span<const WireHandle> handles) {
    bytes::ByteWriter w;
    w.u64(tenant);
    w.u32(static_cast<std::uint32_t>(handles.size()));
    for (const WireHandle& h : handles) write_handle(w, h);
    return decode_reply(call(Op::ReadOutputs, w.take()), [](bytes::ByteReader& r) {
        const std::uint32_t count = r.u32();
        if (r.remaining() % 8 != 0 || (count != 0 && (r.remaining() / 8) % count != 0))
            throw ServeError(Err::BadPayload, "malformed READ_OUTPUTS response");
        std::vector<double> rows(r.remaining() / 8);
        r.f64s(rows);
        return rows;
    });
}

std::vector<double> Client::snapshot(std::uint64_t tenant, const WireHandle& handle) {
    bytes::ByteWriter w;
    w.u64(tenant);
    write_handle(w, handle);
    return decode_reply(call(Op::Snapshot, w.take()), [](bytes::ByteReader& r) {
        std::vector<double> blob(r.count(sizeof(double)));
        r.f64s(blob);
        return blob;
    });
}

std::string Client::stats(std::uint64_t tenant) {
    bytes::ByteWriter w;
    w.u64(tenant);
    return decode_reply(call(Op::Stats, w.take()),
                        [](bytes::ByteReader& r) { return r.str(); });
}

void Client::shutdown(std::uint64_t tenant) {
    bytes::ByteWriter w;
    w.u64(tenant);
    call(Op::Shutdown, w.take());
}

UpgradeResult Client::upgrade_model(std::uint64_t tenant, const std::string& source,
                                    bool allow_drain) {
    bytes::ByteWriter w;
    w.u64(tenant);
    w.u32(allow_drain ? kUpgradeAllowDrain : 0);
    w.str(source);
    return decode_reply(call(Op::UpgradeModel, w.take()), [](bytes::ByteReader& r) {
        UpgradeResult u;
        u.version = r.u64();
        u.macro_compiles = r.u64();
        u.macro_reuses = r.u64();
        u.units_total = r.u64();
        u.units_reused = r.u64();
        u.drained = r.u32() != 0;
        u.state_copied = r.u64();
        u.state_initialized = r.u64();
        u.state_dropped = r.u64();
        u.compile_ns = r.u64();
        u.swap_ns = r.u64();
        return u;
    });
}

} // namespace sbd::serve
