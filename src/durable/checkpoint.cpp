#include "durable/durable.hpp"

#include <algorithm>
#include <system_error>

#include "core/bytes.hpp"
#include "core/fsio.hpp"
#include "resilience/fault.hpp"

namespace sbd::durable {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x4b444253; // "SBDK"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kHeader = 4 + 4 + 8 + 8;
constexpr std::string_view kPrefix = "ckpt-";
constexpr std::string_view kSuffix = ".sbdk";

/// The checksum covers seq + length + payload, same discipline as the
/// journal.
std::uint64_t checkpoint_checksum(std::span<const std::uint8_t> seq_len,
                                  std::span<const std::uint8_t> payload) {
    return bytes::fnv1a64(payload, bytes::fnv1a64(seq_len));
}

/// Newest first.
std::vector<std::pair<std::uint64_t, fs::path>> list_checkpoints(const fs::path& dir) {
    auto v = bytes::list_seq_files(dir, kPrefix, kSuffix);
    std::reverse(v.begin(), v.end());
    return v;
}

/// The payload of a checkpoint file named for `seq`, or nullopt when the
/// file is not a complete, intact checkpoint of that seq.
std::optional<std::span<const std::uint8_t>> parse_checkpoint(
    std::span<const std::uint8_t> raw, std::uint64_t seq) {
    if (raw.size() < kHeader + 8) return std::nullopt;
    bytes::ByteReader r(raw);
    if (r.u32() != kMagic || r.u32() != kFormatVersion) return std::nullopt;
    const std::span<const std::uint8_t> seq_len = raw.subspan(8, 16);
    const std::uint64_t stored_seq = r.u64();
    const std::uint64_t len = r.u64();
    if (stored_seq != seq || len != r.remaining() - 8) return std::nullopt;
    const std::span<const std::uint8_t> payload = r.bytes(len);
    if (r.u64() != checkpoint_checksum(seq_len, payload)) return std::nullopt;
    return payload;
}

} // namespace

CheckpointStore::CheckpointStore(const Options& opts) : opts_(opts) {
    c_checkpoints_ = obs::counter_in(opts_.metrics, "sbd_durable_checkpoints_total",
                                     "checkpoints durably published");
    c_failures_ = obs::counter_in(opts_.metrics, "sbd_durable_checkpoint_failures_total",
                                  "failed or injected checkpoint writes");
    c_fallbacks_ = obs::counter_in(opts_.metrics, "sbd_durable_checkpoint_fallbacks_total",
                                   "invalid checkpoints skipped during recovery");
    h_checkpoint_ns_ = obs::histogram_in(opts_.metrics, "sbd_durable_checkpoint_ns",
                                         obs::exponential_bounds(4000, 4.0, 12),
                                         "checkpoint publish duration (ns)");
    std::error_code ec;
    fs::create_directories(opts_.data_dir, ec);
    if (ec)
        throw DurableError("durable: cannot create data dir '" + opts_.data_dir.string() +
                           "': " + ec.message());
}

bool CheckpointStore::write(std::uint64_t seq, std::span<const std::uint8_t> payload) {
    obs::ScopedNsTimer timer(h_checkpoint_ns_);
    if (SBD_FAULT_HIT("durable.checkpoint")) {
        timer.cancel();
        c_failures_.inc();
        return false;
    }
    bytes::ByteWriter w;
    w.reserve(kHeader + payload.size() + 8);
    w.u32(kMagic);
    w.u32(kFormatVersion);
    w.u64(seq);
    w.u64(payload.size());
    const std::uint64_t check = checkpoint_checksum(w.view().subspan(8, 16), payload);
    w.bytes(payload);
    w.u64(check);

    std::uint64_t serial = 0;
    {
        std::lock_guard lock(m_);
        serial = ++tmp_serial_;
    }
    const std::string name = bytes::seq_file_name(kPrefix, seq, kSuffix);
    const fs::path final_path = opts_.data_dir / name;
    const fs::path tmp_path = opts_.data_dir / (name + ".tmp" + std::to_string(serial));
    // Checkpoints are always published with the full fsync discipline —
    // a checkpoint that might vanish in a crash is worse than none, because
    // truncate_until() deletes the journal prefix it supposedly covers.
    if (!fsio::write_file_durable(final_path, tmp_path, w.view(),
                                  /*durable_sync=*/opts_.fsync != FsyncMode::Off)) {
        timer.cancel();
        c_failures_.inc();
        return false;
    }
    c_checkpoints_.inc();
    return true;
}

std::optional<CheckpointStore::Loaded> CheckpointStore::load_latest() {
    Loaded out;
    for (const auto& [seq, path] : list_checkpoints(opts_.data_dir)) {
        const auto reject = [&] {
            ++out.fallbacks;
            c_fallbacks_.inc();
        };
        if (SBD_FAULT_HIT("durable.recover")) { // simulated unreadable checkpoint
            reject();
            continue;
        }
        const std::optional<std::vector<std::uint8_t>> raw = bytes::read_file(path);
        const auto payload = raw ? parse_checkpoint(*raw, seq) : std::nullopt;
        if (!payload) {
            reject();
            continue;
        }
        out.seq = seq;
        out.payload.assign(payload->begin(), payload->end());
        return out;
    }
    return std::nullopt;
}

void CheckpointStore::retain(std::size_t keep) {
    const auto all = list_checkpoints(opts_.data_dir);
    for (std::size_t i = keep; i < all.size(); ++i) {
        std::error_code ec;
        fs::remove(all[i].second, ec);
    }
    if (all.size() > keep && opts_.fsync != FsyncMode::Off)
        fsio::fsync_file(opts_.data_dir);
}

} // namespace sbd::durable
