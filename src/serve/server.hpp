// sbd_serve — a long-running, sharded, multi-tenant simulation service.
//
// The server hosts N shards, each an Engine-backed InstancePool of one
// compiled model, and speaks the SBDS length-prefixed binary protocol over
// a TCP or Unix socket (protocol.hpp). A connection whose first bytes are
// "GET " instead of the frame magic gets a one-shot HTTP response carrying
// the Prometheus text exposition of the server's metrics registry — the
// `GET /metrics` scrape endpoint, no HTTP library required.
//
// Concurrency model: one accept thread, one handler thread per connection,
// and a server-wide reader/writer lock over shard state. Structural
// operations and the global tick (CREATE / DESTROY / TICK / SHUTDOWN) take
// the lock exclusively; data-plane operations (POST_INPUTS / READ_OUTPUTS /
// SNAPSHOT / STATS) share it — tenants own disjoint slots with disjoint
// arena buffers, so same-mode requests never race. A TICK advances every
// shard one synchronous instant under the exclusive lock; admission checks
// (deadline, fault points, shutdown) all happen *before* the first shard
// steps, so a rejected tick leaves every instance untouched — coded
// rejections, never a torn instant.
#ifndef SBD_SERVE_SERVER_HPP
#define SBD_SERVE_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "durable/durable.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/shard.hpp"
#include "serve/socket.hpp"
#include "upgrade/upgrade.hpp"

namespace sbd::serve {

struct ServerConfig {
    Endpoint endpoint;                 ///< listen address (tcp port 0 = ephemeral)
    std::size_t shards = 1;            ///< engine shards
    /// Execution backend shared by every shard engine (one native artifact
    /// serves the whole daemon). nullptr = interpreter.
    std::shared_ptr<const codegen::Executable> executable;
    std::size_t shard_capacity = 1024; ///< instance slots per shard
    std::size_t engine_threads = 1;    ///< worker threads per shard engine
    /// Wall-clock budget for one TICK request (all requested instants).
    /// Checked before each instant; expiry rejects with DEADLINE_EXCEEDED
    /// before any shard of that instant advances. 0 = no deadline.
    std::uint64_t tick_deadline_ms = 0;
    /// Per-tenant live-instance budget; a CREATE_INSTANCES that would
    /// exceed it is shed with TENANT_BUDGET (nothing is created). 0 = off.
    std::uint64_t tenant_max_instances = 0;
    /// Metrics sink (serve request/tick/latency families, per-shard
    /// gauges). nullptr = the server creates a private registry, so STATS
    /// and /metrics always work. A registry passed here must outlive the
    /// server: connection handler threads update it until the server is
    /// destroyed.
    obs::MetricsRegistry* metrics = nullptr;
    /// Live-upgrade compile context (how to recompile a new model version:
    /// the boot-time clustering method/options, the shared profile cache,
    /// the backend recipe). nullopt = UPGRADE_MODEL is rejected coded —
    /// operators opt into live upgrades by supplying the context.
    std::optional<upgrade::CompileContext> upgrade;
    /// Durable store (write-ahead journal + checkpoints under one data
    /// dir). nullopt = in-memory only, the historical behaviour. With a
    /// store attached every mutation is journaled *before* it is applied —
    /// a rejected append (DURABLE_FAILED) leaves state untouched, and a
    /// crash loses at most unacked work (none at all in FsyncMode::Always).
    std::optional<durable::Options> durable;
    /// Source text of the boot model. Checkpoints carry the live version's
    /// source so recovery can recompile it (required to recover across an
    /// UPGRADE_MODEL; recompiling needs `upgrade` to be set too).
    std::string model_source;
};

/// What Server::recover() found and did. All counters are zero when the
/// data dir was empty (first boot).
struct RecoveryStats {
    bool recovered = false; ///< a checkpoint or journal records were applied
    std::uint64_t checkpoint_seq = 0;       ///< journal seq the checkpoint covered
    std::size_t checkpoint_fallbacks = 0;   ///< newer checkpoints skipped as invalid
    std::uint64_t replayed_records = 0;     ///< journal records applied after the checkpoint
    std::uint64_t replayed_ticks = 0;       ///< TICK records among them
    std::uint64_t recovered_version = 1;    ///< live model version after recovery
    std::uint64_t recovered_ticks = 0;      ///< server tick counter after recovery
    std::size_t live_instances = 0;
    std::uint64_t recovery_ns = 0;
    /// Replay stopped early on a coded fault (only possible under an armed
    /// fault plan or a disabled upgrade context); the recovered state is a
    /// consistent prefix of the journaled timeline.
    bool replay_aborted = false;
};

/// Aggregate counters mirrored from the metrics registry (for tools/tests).
struct ServerStats {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t ticks = 0;
    std::uint64_t shed = 0; ///< TENANT_BUDGET rejections
    std::size_t live_instances = 0;
};

class Server {
public:
    /// Binds the listen socket immediately (so an ephemeral port is known
    /// before start()); throws std::runtime_error on bind failure.
    Server(const codegen::CompiledSystem& sys, BlockPtr root, ServerConfig cfg);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// The bound endpoint (tcp port resolved when 0 was requested).
    const Endpoint& endpoint() const { return listener_.bound_endpoint(); }

    void start();        ///< launches the accept loop in a background thread
    void wait();         ///< blocks until the accept loop exits (shutdown)
    void run() {         ///< start() + wait() — the daemon entry point
        start();
        wait();
    }
    /// Initiates shutdown: stops accepting, unblocks every connection.
    /// Idempotent; safe from any thread (including request handlers).
    void request_stop();
    bool stopping() const { return stopping_.load(std::memory_order_relaxed); }

    /// Rebuilds state from the durable store (newest valid checkpoint +
    /// journal-tail replay). Call once, before start(). Corrupt store
    /// *contents* degrade (checkpoint fallback, torn-tail truncation,
    /// shorter replay) — they never throw; a checkpoint that is intact but
    /// incompatible with the boot configuration (different shard topology,
    /// or an upgraded version with no upgrade context) throws DurableError,
    /// because silently serving the wrong state would be worse. No-op
    /// returning a default RecoveryStats when no durable store is attached.
    RecoveryStats recover();

    /// The attached durable store, or nullptr (tests and tools poke at
    /// journal/checkpoint internals through this).
    durable::Store* durable_store() { return store_.get(); }

    std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
    /// The live model version: 1 at boot, +1 per applied UPGRADE_MODEL.
    std::uint64_t model_version() const {
        return model_version_.load(std::memory_order_relaxed);
    }
    ServerStats stats_view() const;
    obs::MetricsRegistry* metrics() const { return metrics_; }

    /// Prometheus text of the registry with shard gauges refreshed — what
    /// both STATS and GET /metrics return.
    std::string metrics_text();

    /// Executes one decoded request and returns its response; never
    /// throws. Every refusal, a payload that does not decode included, is
    /// a coded error frame.
    Frame handle_request(const Frame& req);

private:
    void accept_loop();
    void handle_conn(std::shared_ptr<Conn> conn);
    void handle_http(Conn& conn);

    Frame do_create(const Frame& req, bytes::ByteReader& r);
    Frame do_destroy(const Frame& req, bytes::ByteReader& r);
    Frame do_post_inputs(const Frame& req, bytes::ByteReader& r);
    Frame do_tick(const Frame& req, bytes::ByteReader& r);
    Frame do_read_outputs(const Frame& req, bytes::ByteReader& r);
    Frame do_snapshot(const Frame& req, bytes::ByteReader& r);
    Frame do_stats(const Frame& req, bytes::ByteReader& r);
    Frame do_shutdown(const Frame& req, bytes::ByteReader& r);
    Frame do_upgrade(const Frame& req, bytes::ByteReader& r);

    Frame ok_frame(const Frame& req, std::vector<std::uint8_t> payload = {});
    Frame error_frame(const Frame& req, Err code, const std::string& message);

    /// Resolves a wire handle to (shard, id); Err::Ok when live and owned.
    Err resolve(const WireHandle& h, std::uint64_t tenant, runtime::InstanceId* out) const;
    void refresh_shard_gauges();

    // ---- durable plumbing (all no-ops when store_ is null) -------------
    /// Appends one journal record; throws durable::DurableError on failure
    /// — callers append *before* applying, so a throw rejects the mutation
    /// coded (DURABLE_FAILED) with state untouched.
    void journal_append(durable::RecordKind kind, std::span<const std::uint8_t> payload);
    /// Advances every shard one instant and bumps the tick counters (the
    /// shared core of do_tick and TICK-record replay).
    void step_instant_locked();
    /// Unused instance slots across all shards.
    std::size_t free_slots() const;
    /// CREATE's placement loop + bookkeeping (shared with replay); the
    /// caller has already admitted the batch.
    std::vector<WireHandle> apply_create_locked(std::uint64_t tenant, std::uint32_t count);
    /// Checkpoint cadence check, called at the end of a TICK batch under
    /// the exclusive lock.
    void maybe_checkpoint_locked();
    void write_checkpoint_locked();
    std::vector<std::uint8_t> checkpoint_payload_locked() const;
    /// Parses + applies a checkpoint payload into a freshly constructed
    /// server (empty shards). Throws DurableError on boot-config mismatch.
    void restore_checkpoint(std::span<const std::uint8_t> payload);
    /// Applies one journal record during recovery (no journaling, no
    /// admission — the record was admitted live).
    void replay_record(const durable::Record& rec);
    /// Recovery-side version install: compiles `source` as `version`
    /// through cfg_.upgrade and rebinds every shard with `migrator`
    /// (DrainMigrator over empty shards when restoring a checkpoint; the
    /// replay of an UPGRADE record plans a real migration first). Runs
    /// single-threaded before start(), so no locking. Throws
    /// upgrade::UpgradeError on compile failure and DurableError when no
    /// upgrade context is configured.
    /// `migrator` nullptr means "plan a real migration from the currently
    /// installed version" (the UPGRADE replay path); a non-null migrator is
    /// used verbatim (checkpoint restore rebinds empty shards with a drain).
    void install_version_for_recovery(const std::string& source, std::uint64_t version,
                                      const runtime::StateMigrator* migrator);

    /// The live model version. sys_/root_ are replaced only under the
    /// exclusive state lock (an UPGRADE_MODEL commit); owned_sys_ and
    /// owned_exec_ keep upgraded versions alive (the boot version is owned
    /// by the caller, so they start null).
    const codegen::CompiledSystem* sys_;
    BlockPtr root_;
    std::shared_ptr<const codegen::CompiledSystem> owned_sys_;
    std::shared_ptr<const codegen::Executable> owned_exec_;
    std::atomic<std::uint64_t> model_version_{1};
    ServerConfig cfg_;
    Listener listener_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /// Exclusive: CREATE/DESTROY/TICK/SHUTDOWN; shared: POST/READ/SNAPSHOT/
    /// STATS. See the concurrency model note above.
    std::shared_mutex state_m_;
    std::unordered_map<std::uint64_t, std::size_t> tenant_instances_;
    std::size_t next_shard_ = 0; ///< round-robin start for balanced creates

    /// Durable store; null when cfg_.durable is unset.
    std::unique_ptr<durable::Store> store_;
    /// Source text of the *live* model version (boot source until an
    /// upgrade commits). Written into every checkpoint. Guarded by state_m_.
    std::string model_source_;
    std::uint64_t last_checkpoint_ticks_ = 0; ///< guarded by state_m_ (exclusive)
    /// POST_INPUTS holds the state lock shared, so two posts to the same
    /// instance could journal in one order and apply in the other. This
    /// mutex spans append+apply for posts, making journal order the apply
    /// order. Only taken when a store is attached.
    std::mutex durable_post_m_;

    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> ticks_{0};
    std::thread accept_thread_;
    std::mutex conns_m_;
    std::vector<std::weak_ptr<Conn>> conns_;
    std::vector<std::thread> handlers_;

    std::shared_ptr<obs::MetricsRegistry> owned_metrics_;
    obs::MetricsRegistry* metrics_ = nullptr;
    obs::Counter c_requests_[10];   ///< by Op (index = opcode, 0 unused)
    obs::Counter c_errors_total_, c_shed_total_, c_ticks_total_, c_accept_faults_,
        c_http_scrapes_, c_connections_total_;
    obs::Counter c_upgrades_applied_, c_upgrades_rejected_, c_upgrade_units_reused_,
        c_upgrade_units_compiled_;
    obs::Histogram h_request_ns_, h_tick_ns_, h_upgrade_swap_ns_;
    obs::Gauge g_connections_, g_queue_depth_, g_model_version_;
    std::vector<obs::Gauge> g_shard_instances_, g_shard_capacity_;
};

} // namespace sbd::serve

#endif
