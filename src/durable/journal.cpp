#include "durable/durable.hpp"

#include <cerrno>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/bytes.hpp"
#include "core/fsio.hpp"
#include "resilience/fault.hpp"

namespace sbd::durable {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x4a444253; // "SBDJ"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::size_t kSegHeader = 4 + 4 + 8;
constexpr std::size_t kRecHeader = 4 + 4 + 8 + 8;
constexpr std::string_view kSegPrefix = "wal-";
constexpr std::string_view kSegSuffix = ".sbdj";

/// Checksum covers the whole record — length, kind and seq included — so a
/// corrupt header is as detectable as a corrupt payload.
std::uint64_t record_checksum(std::span<const std::uint8_t> len_kind_seq,
                              std::span<const std::uint8_t> payload) {
    return bytes::fnv1a64(payload, bytes::fnv1a64(len_kind_seq));
}

bool write_full(int fd, std::span<const std::uint8_t> data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/// One segment's scan outcome. `valid_end` is the byte offset just past the
/// last structurally valid record whose seq continued the expected run.
struct SegmentScan {
    bool header_ok = false;
    std::uint64_t header_first_seq = 0;
    std::uint64_t valid_end = 0;
    std::uint64_t file_size = 0;
    std::uint64_t last_seq = 0; ///< 0 when the segment holds no valid record
    bool torn = false;          ///< bytes exist past valid_end
};

/// Scans one segment file. `expect_seq` == 0 means "trust the header";
/// records are collected into `out` (when non-null) if their seq > from_seq.
SegmentScan scan_segment(const fs::path& path, std::uint64_t expect_seq,
                         std::vector<Record>* out, std::uint64_t from_seq) {
    SegmentScan s;
    const std::optional<std::vector<std::uint8_t>> raw = bytes::read_file(path);
    if (!raw) return s;
    s.file_size = raw->size();
    if (raw->size() < kSegHeader) return s;
    bytes::ByteReader r(*raw);
    if (r.u32() != kMagic || r.u32() != kFormatVersion) return s;
    s.header_ok = true;
    s.header_first_seq = r.u64();
    std::uint64_t expected = expect_seq != 0 ? expect_seq : s.header_first_seq;
    s.valid_end = kSegHeader;
    while (r.remaining() >= kRecHeader) {
        const std::span<const std::uint8_t> len_kind_seq = r.bytes(16);
        bytes::ByteReader h(len_kind_seq);
        const std::uint32_t len = h.u32();
        const std::uint32_t kind = h.u32();
        const std::uint64_t seq = h.u64();
        const std::uint64_t check = r.u64();
        if (len > r.remaining()) break;
        const std::span<const std::uint8_t> payload = r.bytes(len);
        if (check != record_checksum(len_kind_seq, payload)) break;
        if (seq != expected) break;
        if (out != nullptr && seq > from_seq)
            out->push_back({seq, static_cast<RecordKind>(kind), {payload.begin(), payload.end()}});
        s.last_seq = seq;
        ++expected;
        s.valid_end = raw->size() - r.remaining();
    }
    s.torn = s.valid_end < raw->size();
    return s;
}

} // namespace

Journal::Journal(const Options& opts) : opts_(opts) {
    c_records_ = obs::counter_in(opts_.metrics, "sbd_durable_journal_records_total",
                                 "journal records appended");
    c_bytes_ = obs::counter_in(opts_.metrics, "sbd_durable_journal_bytes_total",
                               "journal bytes appended (headers included)");
    c_fsyncs_ = obs::counter_in(opts_.metrics, "sbd_durable_fsyncs_total",
                                "successful journal fsyncs");
    c_fsync_failures_ = obs::counter_in(opts_.metrics, "sbd_durable_fsync_failures_total",
                                        "failed or injected journal fsyncs");
    c_append_failures_ = obs::counter_in(opts_.metrics, "sbd_durable_append_failures_total",
                                         "failed or injected journal appends");
    c_rotations_ = obs::counter_in(opts_.metrics, "sbd_durable_segment_rotations_total",
                                   "journal segment rotations");
    h_fsync_ns_ = obs::histogram_in(opts_.metrics, "sbd_durable_fsync_ns",
                                    obs::exponential_bounds(1000, 4.0, 12),
                                    "journal fsync latency (ns)");

    std::error_code ec;
    fs::create_directories(opts_.journal_dir(), ec);
    if (ec)
        throw DurableError("durable: cannot create journal dir '" +
                           opts_.journal_dir().string() + "': " + ec.message());

    // Repair pass: walk segments in order, stop at the first torn or
    // discontinuous point, truncate there and drop everything beyond it.
    auto segs = bytes::list_seq_files(opts_.journal_dir(), kSegPrefix, kSegSuffix);
    std::size_t keep = 0;
    bool stop = false;
    for (std::size_t i = 0; i < segs.size() && !stop; ++i) {
        const auto& [name_seq, path] = segs[i];
        const std::uint64_t expect = (i == 0 && next_seq_ == 1) ? 0 : next_seq_;
        const SegmentScan s = scan_segment(path, expect, nullptr, 0);
        const bool continuous =
            s.header_ok && s.header_first_seq == name_seq &&
            (i == 0 || s.header_first_seq == next_seq_);
        if (!continuous) {
            // This segment (and everything after it) is unusable; the valid
            // journal ends with the previous segment.
            stop = true;
            break;
        }
        if (i == 0) next_seq_ = s.header_first_seq;
        if (s.last_seq != 0) next_seq_ = s.last_seq + 1;
        if (s.torn) {
            std::error_code tec;
            fs::resize_file(path, s.valid_end, tec);
            if (tec)
                throw DurableError("durable: cannot truncate torn journal tail '" +
                                   path.string() + "': " + tec.message());
            keep = i + 1;
            stop = true;
            break;
        }
        keep = i + 1;
    }
    for (std::size_t i = keep; i < segs.size(); ++i) {
        std::error_code rec;
        fs::remove(segs[i].second, rec);
    }
    segs.resize(keep);
    for (const auto& [seq, path] : segs) segments_.push_back({path, seq});

    std::lock_guard lock(m_);
    if (segments_.empty()) {
        open_segment_locked(next_seq_);
    } else {
        fd_ = ::open(segments_.back().path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
        if (fd_ < 0)
            throw DurableError("durable: cannot open journal segment '" +
                               segments_.back().path.string() + "'");
        std::error_code sec;
        active_bytes_ = fs::file_size(segments_.back().path, sec);
        if (sec) active_bytes_ = kSegHeader;
    }
}

Journal::~Journal() {
    std::lock_guard lock(m_);
    if (fd_ >= 0) {
        if (dirty_ && opts_.fsync != FsyncMode::Off) fsio::fsync_fd(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

void Journal::open_segment_locked(std::uint64_t first_seq) {
    const fs::path path =
        opts_.journal_dir() / bytes::seq_file_name(kSegPrefix, first_seq, kSegSuffix);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                          0644);
    if (fd < 0)
        throw DurableError("durable: cannot create journal segment '" + path.string() +
                           "'");
    bytes::ByteWriter hdr;
    hdr.u32(kMagic);
    hdr.u32(kFormatVersion);
    hdr.u64(first_seq);
    if (!write_full(fd, hdr.view())) {
        ::close(fd);
        throw DurableError("durable: cannot write journal segment header '" +
                           path.string() + "'");
    }
    if (opts_.fsync == FsyncMode::Always) {
        fsio::fsync_fd(fd);
        fsio::fsync_parent_dir(path);
    }
    fd_ = fd;
    active_bytes_ = kSegHeader;
    dirty_ = false;
    segments_.push_back({path, first_seq});
}

void Journal::rotate_locked() {
    if (fd_ >= 0) {
        if (opts_.fsync != FsyncMode::Off) fsio::fsync_fd(fd_);
        ::close(fd_);
        fd_ = -1;
        dirty_ = false;
    }
    c_rotations_.inc();
    open_segment_locked(next_seq_);
}

std::uint64_t Journal::append(RecordKind kind, std::span<const std::uint8_t> payload) {
    std::lock_guard lock(m_);
    if (SBD_FAULT_HIT("durable.append")) {
        c_append_failures_.inc();
        throw DurableError("durable: journal append failed (injected)");
    }
    if (fd_ < 0) {
        c_append_failures_.inc();
        throw DurableError("durable: journal is not writable");
    }
    if (active_bytes_ > kSegHeader &&
        active_bytes_ + kRecHeader + payload.size() > opts_.segment_bytes)
        rotate_locked();

    const std::uint64_t seq = next_seq_;
    bytes::ByteWriter w;
    w.reserve(kRecHeader + payload.size());
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(static_cast<std::uint32_t>(kind));
    w.u64(seq);
    w.u64(record_checksum(w.view(), payload));
    w.bytes(payload);
    const std::span<const std::uint8_t> buf = w.view();
    if (!write_full(fd_, buf)) {
        // A partial write leaves a torn tail the scanner would stop at —
        // but a *later* successful append would then be unreachable behind
        // it. Roll the file back to the last good record; if even that
        // fails the journal is declared unwritable.
        std::error_code ec;
        fs::resize_file(segments_.back().path, active_bytes_, ec);
        if (ec) {
            ::close(fd_);
            fd_ = -1;
        }
        c_append_failures_.inc();
        throw DurableError("durable: journal write failed");
    }
    active_bytes_ += buf.size();
    next_seq_ = seq + 1;
    dirty_ = true;
    c_records_.inc();
    c_bytes_.inc(buf.size());
    appended_bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
    if (opts_.fsync == FsyncMode::Always) sync_locked();
    return seq;
}

void Journal::sync() {
    std::lock_guard lock(m_);
    sync_locked();
}

void Journal::sync_locked() {
    if (!dirty_ || fd_ < 0) return;
    if (SBD_FAULT_HIT("durable.fsync")) {
        c_fsync_failures_.inc();
        throw DurableError("durable: journal fsync failed (injected)");
    }
    obs::ScopedNsTimer timer(h_fsync_ns_);
    if (!fsio::fsync_fd(fd_)) {
        timer.cancel();
        c_fsync_failures_.inc();
        throw DurableError("durable: journal fsync failed");
    }
    dirty_ = false;
    c_fsyncs_.inc();
}

void Journal::truncate_until(std::uint64_t seq) {
    std::lock_guard lock(m_);
    std::size_t removed = 0;
    // A segment is disposable when the *next* segment starts at or before
    // seq+1 — then every record it holds is <= seq. The active (last)
    // segment always stays.
    while (segments_.size() - removed >= 2 &&
           segments_[removed + 1].first_seq <= seq + 1) {
        std::error_code ec;
        fs::remove(segments_[removed].path, ec);
        if (ec) break;
        ++removed;
    }
    if (removed > 0) {
        segments_.erase(segments_.begin(),
                        segments_.begin() + static_cast<std::ptrdiff_t>(removed));
        if (opts_.fsync != FsyncMode::Off)
            fsio::fsync_file(opts_.journal_dir());
    }
}

std::uint64_t Journal::next_seq() const {
    std::lock_guard lock(m_);
    return next_seq_;
}

ScanResult Journal::scan(const fs::path& journal_dir_or_segment, std::uint64_t from_seq) {
    ScanResult r;
    std::error_code ec;
    if (fs::is_regular_file(journal_dir_or_segment, ec)) {
        const SegmentScan s = scan_segment(journal_dir_or_segment, 0, &r.records, from_seq);
        r.segments = 1;
        r.last_seq = s.last_seq;
        r.torn = s.torn || !s.header_ok;
        r.torn_bytes = s.file_size - (s.header_ok ? s.valid_end : 0);
        return r;
    }
    const auto segs = bytes::list_seq_files(journal_dir_or_segment, kSegPrefix, kSegSuffix);
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        const SegmentScan s = scan_segment(segs[i].second, expect, &r.records, from_seq);
        const bool continuous = s.header_ok && s.header_first_seq == segs[i].first &&
                                (expect == 0 || s.header_first_seq == expect);
        if (!continuous) {
            r.torn = true;
            r.dropped_segments = segs.size() - i;
            break;
        }
        ++r.segments;
        if (s.last_seq != 0) {
            r.last_seq = s.last_seq;
            expect = s.last_seq + 1;
        } else if (expect == 0) {
            expect = s.header_first_seq;
        }
        if (s.torn) {
            r.torn = true;
            r.torn_bytes = s.file_size - s.valid_end;
            r.dropped_segments = segs.size() - i - 1;
            break;
        }
    }
    return r;
}

} // namespace sbd::durable
