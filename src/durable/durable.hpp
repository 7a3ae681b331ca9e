#ifndef SBD_DURABLE_DURABLE_HPP
#define SBD_DURABLE_DURABLE_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace sbd::durable {

/// Crash-safe persistence for the serve tier: a checksummed, length-prefixed
/// write-ahead journal plus periodic durable checkpoints. The serving layer
/// journals every mutation *before* applying it (journal-then-apply), so a
/// recovered process replays a prefix of the exact request timeline against
/// the newest valid checkpoint; the generated step functions are
/// deterministic state machines, so the replay reproduces pre-crash state
/// bit-for-bit.
///
/// On-disk layout under one `--data-dir`:
///   journal/wal-<first-seq, 16 hex>.sbdj   journal segments
///   ckpt-<seq, 16 hex>.sbdk                checkpoints (2 newest retained)
///
/// Segment format: 16-byte header (magic "SBDJ", u32 version, u64 first
/// record seq), then records back to back. Record: u32 payload length,
/// u32 kind, u64 seq, u64 FNV-1a-64 checksum over (length, kind, seq,
/// payload), payload bytes. A torn tail — short header, short payload, bad
/// checksum or a sequence gap — truncates the segment at the last valid
/// record on open; later segments are beyond the torn point and deleted.

/// When appends become durable relative to the client's ack.
enum class FsyncMode {
    Always, ///< fsync before every ack: zero acked work can be lost
    Batch,  ///< background flusher syncs on a short cadence; an ack may
            ///< precede durability by up to that interval
    Off,    ///< no fsync (tests/benchmarks; page cache only)
};

std::optional<FsyncMode> parse_fsync_mode(const std::string& s);
const char* to_string(FsyncMode m);

/// What one journal record describes. Values are stable on-disk identifiers.
enum class RecordKind : std::uint32_t {
    Create = 1,
    Destroy = 2,
    PostInputs = 3,
    Tick = 4,
    Upgrade = 5,
};

const char* to_string(RecordKind k);

struct Record {
    std::uint64_t seq = 0;
    RecordKind kind = RecordKind::Tick;
    std::vector<std::uint8_t> payload;
};

/// A durable-store operation failed (real I/O error or injected fault).
/// The serving layer maps this to the coded DURABLE_FAILED rejection —
/// nothing has been applied when an append throws.
class DurableError : public std::runtime_error {
public:
    explicit DurableError(const std::string& what) : std::runtime_error(what) {}
};

struct Options {
    std::filesystem::path data_dir;
    FsyncMode fsync = FsyncMode::Batch;
    /// Checkpoint after this many server ticks; 0 disables the cadence.
    std::uint64_t checkpoint_every_ticks = 1024;
    /// Rotate the active journal segment past this size.
    std::uint64_t segment_bytes = 8ull << 20;
    /// Batch-mode flusher period.
    std::uint64_t batch_flush_ms = 5;
    obs::MetricsRegistry* metrics = nullptr;

    std::filesystem::path journal_dir() const { return data_dir / "journal"; }
};

/// Result of scanning a journal directory (read-only; recovery and
/// `--journal-dump` both use it).
struct ScanResult {
    std::vector<Record> records; ///< valid records with seq > from_seq, in order
    std::uint64_t last_seq = 0;  ///< highest valid seq seen (0 if none)
    std::size_t segments = 0;    ///< segment files visited
    std::uint64_t torn_bytes = 0;     ///< bytes past the last valid record
    std::size_t dropped_segments = 0; ///< segments beyond a torn/corrupt point
    bool torn = false;                ///< a torn tail or corrupt record was found
};

class Journal {
public:
    /// Opens (creating directories as needed) and repairs the journal:
    /// scans existing segments, truncates any torn tail, deletes segments
    /// beyond it, and positions the next append after the last valid
    /// record. Throws DurableError only when the directory itself is
    /// unusable.
    explicit Journal(const Options& opts);
    ~Journal();
    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    /// Appends one record, rotating segments as needed; in FsyncMode::Always
    /// the record is fsynced before returning. Returns the record's seq.
    /// Throws DurableError on write/sync failure (or an injected
    /// durable.append / durable.fsync fault) — the caller must not apply
    /// the mutation it was about to journal.
    std::uint64_t append(RecordKind kind, std::span<const std::uint8_t> payload);

    /// fsyncs the active segment if it has unsynced bytes. Throws
    /// DurableError on failure (or injected durable.fsync).
    void sync();

    /// Deletes whole segments every record of which has seq <= `seq`
    /// (called after a checkpoint covering `seq` became durable). The
    /// active segment is never deleted. Best effort.
    void truncate_until(std::uint64_t seq);

    std::uint64_t next_seq() const;
    std::uint64_t appended_bytes() const { return appended_bytes_.load(std::memory_order_relaxed); }

    /// Read-only scan of a journal directory; returns records with
    /// seq > from_seq. Never modifies files (the constructor is what
    /// repairs). Also accepts a single segment file.
    static ScanResult scan(const std::filesystem::path& journal_dir_or_segment,
                           std::uint64_t from_seq = 0);

private:
    struct Segment {
        std::filesystem::path path;
        std::uint64_t first_seq = 0;
    };

    void open_segment_locked(std::uint64_t first_seq);
    void rotate_locked();
    void sync_locked();

    Options opts_;
    mutable std::mutex m_;
    std::vector<Segment> segments_;
    int fd_ = -1;                   ///< active segment
    std::uint64_t active_bytes_ = 0; ///< size of active segment file
    std::uint64_t next_seq_ = 1;
    bool dirty_ = false; ///< unsynced bytes in the active segment
    std::atomic<std::uint64_t> appended_bytes_{0};

    obs::Counter c_records_;
    obs::Counter c_bytes_;
    obs::Counter c_fsyncs_;
    obs::Counter c_fsync_failures_;
    obs::Counter c_append_failures_;
    obs::Counter c_rotations_;
    obs::Histogram h_fsync_ns_;
};

class CheckpointStore {
public:
    explicit CheckpointStore(const Options& opts);

    /// Durably publishes a checkpoint covering journal records up to and
    /// including `seq`: temp file + fsync(file) + atomic rename +
    /// fsync(dir), content-checksummed. Returns false on failure (including
    /// an injected durable.checkpoint fault) — the caller keeps serving and
    /// keeps its journal; a missed checkpoint only lengthens replay.
    bool write(std::uint64_t seq, std::span<const std::uint8_t> payload);

    struct Loaded {
        std::uint64_t seq = 0;
        std::vector<std::uint8_t> payload;
        std::size_t fallbacks = 0; ///< newer checkpoints skipped as invalid
    };

    /// Loads the newest valid checkpoint, falling back to older ones when a
    /// candidate is unreadable or fails its checksum (or an injected
    /// durable.recover fault). nullopt when no valid checkpoint exists —
    /// recovery then replays the whole journal. Never throws.
    std::optional<Loaded> load_latest();

    /// Deletes all but the `keep` newest checkpoints. Best effort.
    void retain(std::size_t keep = 2);

private:
    Options opts_;
    std::uint64_t tmp_serial_ = 0;
    std::mutex m_;
    obs::Counter c_checkpoints_;
    obs::Counter c_failures_;
    obs::Counter c_fallbacks_;
    obs::Histogram h_checkpoint_ns_;
};

/// One handle owning the journal, the checkpoint store and (in Batch mode)
/// the background flusher thread.
class Store {
public:
    explicit Store(Options opts);
    ~Store();
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;

    Journal& journal() { return journal_; }
    CheckpointStore& checkpoints() { return checkpoints_; }
    const Options& options() const { return opts_; }

    /// Recovery bookkeeping, published as sbd_durable_recovery_* metrics.
    void note_recovery(std::uint64_t replayed_records, std::uint64_t replayed_ticks,
                       std::uint64_t ns);

private:
    void flusher_main();

    Options opts_;
    Journal journal_;
    CheckpointStore checkpoints_;
    obs::Counter c_replayed_records_;
    obs::Counter c_replayed_ticks_;
    obs::Counter c_recovery_ns_;
    obs::Counter c_recoveries_;
    obs::Counter c_flush_failures_;

    std::mutex flush_m_;
    std::condition_variable flush_cv_;
    bool stop_ = false;
    std::thread flusher_;
};

} // namespace sbd::durable

#endif
