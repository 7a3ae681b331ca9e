#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/export.hpp"
#include "resilience/budget.hpp"
#include "resilience/fault.hpp"

namespace sbd::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// Lock acquisition that surfaces contention as a queue-depth gauge: the
/// gauge counts requests currently waiting for the state lock.
template <typename LockT> class QueuedLock {
public:
    QueuedLock(std::shared_mutex& m, obs::Gauge& depth) : lk_(m, std::defer_lock) {
        depth.add(1);
        lk_.lock();
        depth.add(-1);
    }

private:
    LockT lk_;
};

using QueuedExclusive = QueuedLock<std::unique_lock<std::shared_mutex>>;
using QueuedShared = QueuedLock<std::shared_lock<std::shared_mutex>>;

} // namespace

Server::Server(const codegen::CompiledSystem& sys, BlockPtr root, ServerConfig cfg)
    : sys_(&sys), root_(std::move(root)), cfg_(std::move(cfg)), listener_(cfg_.endpoint) {
    if (cfg_.shards == 0) throw std::invalid_argument("serve: shards must be > 0");
    if (cfg_.shard_capacity == 0)
        throw std::invalid_argument("serve: shard capacity must be > 0");
    if (cfg_.metrics == nullptr) {
        owned_metrics_ = std::make_shared<obs::MetricsRegistry>();
        metrics_ = owned_metrics_.get();
    } else {
        metrics_ = cfg_.metrics;
    }
    shards_.reserve(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
        runtime::EngineConfig ec;
        ec.capacity = cfg_.shard_capacity;
        ec.threads = cfg_.engine_threads;
        ec.executable = cfg_.executable;
        shards_.push_back(std::make_unique<Shard>(*sys_, root_, ec));
    }
    model_source_ = cfg_.model_source;
    if (cfg_.durable) {
        durable::Options d = *cfg_.durable;
        if (d.metrics == nullptr) d.metrics = metrics_;
        // Throws DurableError when the data dir itself is unusable; torn or
        // corrupt *contents* are repaired/skipped, never fatal.
        store_ = std::make_unique<durable::Store>(std::move(d));
    }
    for (std::uint16_t opv = 1; opv <= 9; ++opv)
        c_requests_[opv] =
            metrics_->counter("sbd_serve_requests_total", "protocol requests received",
                              {{"op", to_string(static_cast<Op>(opv))}});
    c_errors_total_ = metrics_->counter("sbd_serve_errors_total", "coded request rejections");
    c_shed_total_ = metrics_->counter("sbd_serve_shed_total",
                                      "requests shed by per-tenant budget admission");
    c_ticks_total_ = metrics_->counter("sbd_serve_ticks_total",
                                       "global synchronous instants executed");
    c_accept_faults_ = metrics_->counter("sbd_serve_accept_faults_total",
                                         "connections dropped by the accept fault point");
    c_http_scrapes_ = metrics_->counter("sbd_serve_http_scrapes_total",
                                        "HTTP GET /metrics scrapes answered");
    c_connections_total_ =
        metrics_->counter("sbd_serve_connections_total", "connections accepted");
    c_upgrades_applied_ = metrics_->counter("sbd_upgrade_applied_total",
                                            "model upgrades committed into the fleet");
    c_upgrades_rejected_ = metrics_->counter("sbd_upgrade_rejected_total",
                                             "UPGRADE_MODEL requests rejected coded");
    c_upgrade_units_reused_ =
        metrics_->counter("sbd_upgrade_units_reused_total",
                          "macro units served from the shared cache during upgrades");
    c_upgrade_units_compiled_ = metrics_->counter(
        "sbd_upgrade_units_compiled_total", "macro units recompiled during upgrades");
    h_upgrade_swap_ns_ = metrics_->histogram(
        "sbd_upgrade_swap_ns", obs::exponential_bounds(1000, 4.0, 14),
        "exclusive swap pause of an applied upgrade (prepare + commit), nanoseconds");
    g_model_version_ = metrics_->gauge("sbd_upgrade_model_version", "live model version");
    g_model_version_.set(1);
    h_request_ns_ = metrics_->histogram("sbd_serve_request_ns",
                                        obs::exponential_bounds(1000, 4.0, 14),
                                        "request handling latency, nanoseconds");
    h_tick_ns_ = metrics_->histogram("sbd_serve_tick_ns",
                                     obs::exponential_bounds(1000, 4.0, 14),
                                     "whole-instant latency across all shards, nanoseconds");
    g_connections_ = metrics_->gauge("sbd_serve_connections", "open client connections");
    g_queue_depth_ =
        metrics_->gauge("sbd_serve_queue_depth", "requests waiting for the state lock");
    g_shard_instances_.reserve(cfg_.shards);
    g_shard_capacity_.reserve(cfg_.shards);
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
        const obs::Labels labels = {{"shard", std::to_string(s)}};
        g_shard_instances_.push_back(
            metrics_->gauge("sbd_serve_shard_instances", "live instances in the shard", labels));
        g_shard_capacity_.push_back(
            metrics_->gauge("sbd_serve_shard_capacity", "instance slots in the shard", labels));
        g_shard_capacity_.back().set(static_cast<std::int64_t>(cfg_.shard_capacity));
    }
}

Server::~Server() {
    request_stop();
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> handlers;
    {
        std::lock_guard lk(conns_m_);
        handlers.swap(handlers_);
    }
    for (std::thread& t : handlers) t.join();
    // The store's batch flusher touches journal counters backed by the
    // metrics registry; owned_metrics_ is declared after store_ and would
    // be destroyed first, so stop the store while the registry is alive.
    store_.reset();
}

void Server::start() {
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wait() {
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> handlers;
    {
        std::lock_guard lk(conns_m_);
        handlers.swap(handlers_);
    }
    for (std::thread& t : handlers) t.join();
}

void Server::request_stop() {
    stopping_.store(true, std::memory_order_relaxed);
    listener_.shutdown();
    std::lock_guard lk(conns_m_);
    for (const std::weak_ptr<Conn>& w : conns_)
        if (const std::shared_ptr<Conn> c = w.lock()) c->shutdown_both();
}

void Server::accept_loop() {
    for (;;) {
        Conn c = listener_.accept();
        if (stopping_.load(std::memory_order_relaxed)) break;
        if (!c.valid()) {
            // Transient accept failure (e.g. fd pressure): back off instead
            // of spinning; listener shutdown is reported via stopping_.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
        }
        if (SBD_FAULT_HIT("serve.accept")) {
            // Clean degradation: the connection is dropped before any state
            // is touched; the client observes EOF and may reconnect.
            c_accept_faults_.inc();
            continue;
        }
        auto conn = std::make_shared<Conn>(std::move(c));
        std::lock_guard lk(conns_m_);
        std::erase_if(conns_, [](const std::weak_ptr<Conn>& w) { return w.expired(); });
        conns_.push_back(conn);
        handlers_.emplace_back([this, conn] { handle_conn(conn); });
    }
}

void Server::handle_conn(std::shared_ptr<Conn> conn) {
    g_connections_.add(1);
    c_connections_total_.inc();
    try {
        std::uint8_t head[4];
        if (conn->recv_exact(head)) {
            if (std::memcmp(head, "GET ", 4) == 0) {
                conn->unread(head);
                handle_http(*conn);
            } else {
                conn->unread(head);
                for (;;) {
                    std::optional<Frame> req;
                    try {
                        req = conn->recv_frame();
                    } catch (const ServeError& e) {
                        // Framing violation: the stream cannot be resynced,
                        // so answer with the coded error and drop it.
                        Frame err;
                        err.opcode = static_cast<Op>(0);
                        err.status = e.code();
                        bytes::ByteWriter w;
                        w.str(e.what());
                        err.payload = w.take();
                        conn->send_frame(err);
                        break;
                    }
                    if (!req) break; // clean EOF
                    const Frame resp = handle_request(*req);
                    conn->send_frame(resp);
                    if (req->opcode == Op::Shutdown && resp.status == Err::Ok) {
                        request_stop();
                        break;
                    }
                }
            }
        }
    } catch (const std::exception&) {
        // Broken stream (peer vanished, shutdown during a read): drop.
    }
    g_connections_.add(-1);
}

void Server::handle_http(Conn& conn) {
    // Minimal HTTP/1.0 for scrapes: read the request head (we only care
    // about the path), answer one response, close.
    std::string head;
    std::uint8_t buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos && head.size() < 16384) {
        const std::size_t n = conn.recv_some(buf);
        if (n == 0) break;
        head.append(reinterpret_cast<const char*>(buf), n);
    }
    const std::size_t line_end = head.find('\r');
    const std::string line = head.substr(0, line_end == std::string::npos ? 0 : line_end);
    std::string body;
    std::string status = "200 OK";
    if (line.rfind("GET /metrics", 0) == 0) {
        body = metrics_text();
        c_http_scrapes_.inc();
    } else {
        status = "404 Not Found";
        body = "only GET /metrics is served here\n";
    }
    std::string resp = "HTTP/1.0 " + status +
                       "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                       "Content-Length: " +
                       std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
    conn.send_all(std::span(reinterpret_cast<const std::uint8_t*>(resp.data()), resp.size()));
}

std::string Server::metrics_text() {
    {
        QueuedShared lk(state_m_, g_queue_depth_);
        refresh_shard_gauges();
    }
    if (resilience::fault_armed())
        resilience::FaultRegistry::instance().export_metrics(*metrics_);
    return obs::to_prometheus(metrics_->snapshot());
}

void Server::refresh_shard_gauges() {
    for (std::size_t s = 0; s < shards_.size(); ++s)
        g_shard_instances_[s].set(static_cast<std::int64_t>(shards_[s]->size()));
}

ServerStats Server::stats_view() const {
    ServerStats st;
    for (std::uint16_t opv = 1; opv <= 9; ++opv) st.requests += c_requests_[opv].value();
    st.errors = c_errors_total_.value();
    st.ticks = c_ticks_total_.value();
    st.shed = c_shed_total_.value();
    for (const auto& s : shards_) st.live_instances += s->size();
    return st;
}

Frame Server::ok_frame(const Frame& req, std::vector<std::uint8_t> payload) {
    Frame f;
    f.opcode = req.opcode;
    f.status = Err::Ok;
    f.request_id = req.request_id;
    f.payload = std::move(payload);
    return f;
}

Frame Server::error_frame(const Frame& req, Err code, const std::string& message) {
    c_errors_total_.inc();
    metrics_
        ->counter("sbd_serve_errors_by_code_total", "coded request rejections by code",
                  {{"code", to_string(code)}})
        .inc();
    bytes::ByteWriter w;
    w.str(message);
    Frame f;
    f.opcode = req.opcode;
    f.status = code;
    f.request_id = req.request_id;
    f.payload = w.take();
    return f;
}

Frame Server::handle_request(const Frame& req) {
    const Clock::time_point t0 = Clock::now();
    const std::uint16_t opv = static_cast<std::uint16_t>(req.opcode);
    if (opv >= 1 && opv <= 9) c_requests_[opv].inc();
    Frame resp;
    try {
        if (SBD_FAULT_HIT("serve.dispatch")) {
            // Injected before any shard state is read or written: the
            // request fails coded and the service state is untouched.
            resp = error_frame(req, Err::FaultInjected,
                               "injected dispatch fault (" + std::string(to_string(req.opcode)) +
                                   ")");
        } else {
            bytes::ByteReader r(req.payload);
            switch (req.opcode) {
            case Op::CreateInstances: resp = do_create(req, r); break;
            case Op::DestroyInstances: resp = do_destroy(req, r); break;
            case Op::PostInputs: resp = do_post_inputs(req, r); break;
            case Op::Tick: resp = do_tick(req, r); break;
            case Op::ReadOutputs: resp = do_read_outputs(req, r); break;
            case Op::Snapshot: resp = do_snapshot(req, r); break;
            case Op::Stats: resp = do_stats(req, r); break;
            case Op::Shutdown: resp = do_shutdown(req, r); break;
            case Op::UpgradeModel: resp = do_upgrade(req, r); break;
            default:
                resp = error_frame(req, Err::BadOpcode,
                                   "unknown opcode " + std::to_string(opv));
            }
        }
    } catch (const ServeError& e) {
        resp = error_frame(req, e.code(), e.what());
    } catch (const bytes::DecodeError&) {
        resp = error_frame(req, Err::BadPayload, "malformed request payload");
    } catch (const durable::DurableError& e) {
        // journal-then-apply: every append happens before its mutation, so
        // a failed append rejects the request with state untouched.
        resp = error_frame(req, Err::DurableFailed, e.what());
    } catch (const resilience::DeadlineExceeded& e) {
        resp = error_frame(req, Err::DeadlineExceeded, e.what());
    } catch (const resilience::FaultInjected& e) {
        resp = error_frame(req, Err::FaultInjected, e.what());
    } catch (const std::exception& e) {
        resp = error_frame(req, Err::Internal, e.what());
    }
    h_request_ns_.observe(ns_since(t0));
    return resp;
}

Err Server::resolve(const WireHandle& h, std::uint64_t tenant, runtime::InstanceId* out) const {
    if (h.shard >= shards_.size()) return Err::BadHandle;
    const runtime::InstanceId id{h.slot, h.generation};
    if (!shards_[h.shard]->owned_by(id, tenant)) return Err::BadHandle;
    *out = id;
    return Err::Ok;
}

Frame Server::do_create(const Frame& req, bytes::ByteReader& r) {
    const std::uint64_t tenant = r.u64();
    const std::uint32_t count = r.u32();
    r.done();
    QueuedExclusive lk(state_m_, g_queue_depth_);
    if (stopping_.load(std::memory_order_relaxed))
        return error_frame(req, Err::ShuttingDown, "server is shutting down");
    const std::size_t live = tenant_instances_[tenant];
    if (cfg_.tenant_max_instances != 0 && live + count > cfg_.tenant_max_instances) {
        c_shed_total_.inc();
        return error_frame(req, Err::TenantBudget,
                           "tenant " + std::to_string(tenant) + " over budget: " +
                               std::to_string(live) + " live + " + std::to_string(count) +
                               " requested > " + std::to_string(cfg_.tenant_max_instances));
    }
    const std::size_t total_free = free_slots();
    if (count > total_free)
        return error_frame(req, Err::PoolFull,
                           "no capacity: " + std::to_string(count) + " requested, " +
                               std::to_string(total_free) + " free");
    // Admission passed for the whole batch: placement cannot fail now.
    // Journal before applying — replay reruns the same deterministic
    // placement loop against the same pool state, so the handles it mints
    // match the ones acked here bit-for-bit.
    journal_append(durable::RecordKind::Create, req.payload);
    bytes::ByteWriter w;
    w.u32(count);
    for (const WireHandle& h : apply_create_locked(tenant, count)) write_handle(w, h);
    return ok_frame(req, w.take());
}

std::size_t Server::free_slots() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->free();
    return n;
}

std::vector<WireHandle> Server::apply_create_locked(std::uint64_t tenant,
                                                    std::uint32_t count) {
    std::vector<WireHandle> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        while (shards_[next_shard_]->free() == 0)
            next_shard_ = (next_shard_ + 1) % shards_.size();
        const runtime::InstanceId id = shards_[next_shard_]->create(tenant);
        out.push_back({static_cast<std::uint32_t>(next_shard_), id.slot, id.generation});
        next_shard_ = (next_shard_ + 1) % shards_.size();
    }
    tenant_instances_[tenant] += count;
    refresh_shard_gauges();
    return out;
}

Frame Server::do_destroy(const Frame& req, bytes::ByteReader& r) {
    const std::uint64_t tenant = r.u64();
    const std::size_t count = r.count(kWireHandleBytes);
    std::vector<WireHandle> handles(count);
    for (WireHandle& h : handles) h = read_handle(r);
    r.done();
    QueuedExclusive lk(state_m_, g_queue_depth_);
    // Validate the whole batch before destroying anything: a bad handle
    // rejects the request without side effects.
    std::vector<runtime::InstanceId> ids(count);
    for (std::size_t i = 0; i < count; ++i)
        if (resolve(handles[i], tenant, &ids[i]) != Err::Ok)
            return error_frame(req, Err::BadHandle,
                               "stale or foreign handle at index " + std::to_string(i));
    journal_append(durable::RecordKind::Destroy, req.payload);
    for (std::size_t i = 0; i < count; ++i) shards_[handles[i].shard]->destroy(ids[i]);
    tenant_instances_[tenant] -= count;
    refresh_shard_gauges();
    return ok_frame(req);
}

Frame Server::do_post_inputs(const Frame& req, bytes::ByteReader& r) {
    const std::uint64_t tenant = r.u64();
    const std::size_t nin = shards_[0]->pool().num_inputs();
    const std::size_t count = r.count(kWireHandleBytes + nin * sizeof(double));
    std::vector<WireHandle> handles(count);
    std::vector<double> rows(count * nin);
    for (std::size_t i = 0; i < count; ++i) {
        handles[i] = read_handle(r);
        r.f64s(std::span(rows).subspan(i * nin, nin));
    }
    r.done();
    QueuedShared lk(state_m_, g_queue_depth_);
    std::vector<runtime::InstanceId> ids(count);
    for (std::size_t i = 0; i < count; ++i)
        if (resolve(handles[i], tenant, &ids[i]) != Err::Ok)
            return error_frame(req, Err::BadHandle,
                               "stale or foreign handle at index " + std::to_string(i));
    // Posts run under the *shared* lock, so journal order must be pinned to
    // apply order explicitly — durable_post_m_ spans append+apply.
    std::unique_lock<std::mutex> post_order;
    if (store_ != nullptr) {
        post_order = std::unique_lock(durable_post_m_);
        journal_append(durable::RecordKind::PostInputs, req.payload);
    }
    for (std::size_t i = 0; i < count; ++i) {
        const std::span<double> dst = shards_[handles[i].shard]->pool().inputs(ids[i]);
        const std::span<const double> src(rows.data() + i * nin, nin);
        std::copy(src.begin(), src.end(), dst.begin());
    }
    return ok_frame(req);
}

Frame Server::do_tick(const Frame& req, bytes::ByteReader& r) {
    (void)r.u64(); // tenant: the tick is a global instant; admission is per request
    const std::uint32_t n = r.u32();
    r.done();
    QueuedExclusive lk(state_m_, g_queue_depth_);
    if (stopping_.load(std::memory_order_relaxed))
        return error_frame(req, Err::ShuttingDown, "server is shutting down");
    const resilience::Deadline deadline = resilience::Deadline::after_ms(cfg_.tick_deadline_ms);
    std::uint32_t executed = 0;
    for (std::uint32_t t = 0; t < n; ++t) {
        // Every admission check fires before the first shard of the instant
        // steps, so a rejection here leaves all shards at a consistent,
        // fully completed instant — shed, never torn.
        if (deadline.due("serve.deadline"))
            return error_frame(req, Err::DeadlineExceeded,
                               "tick deadline expired after " + std::to_string(executed) +
                                   " of " + std::to_string(n) + " instants");
        if (SBD_FAULT_HIT("serve.tick"))
            return error_frame(req, Err::FaultInjected,
                               "injected tick fault after " + std::to_string(executed) +
                                   " of " + std::to_string(n) + " instants");
        // One journal record per instant, appended before any shard steps:
        // a crash between append and step makes replay complete the instant
        // (unacked, but a valid prefix of the timeline); an append failure
        // sheds the rest of the batch coded, never a torn instant.
        try {
            journal_append(durable::RecordKind::Tick, {});
        } catch (const durable::DurableError& e) {
            return error_frame(req, Err::DurableFailed,
                               std::string(e.what()) + " after " + std::to_string(executed) +
                                   " of " + std::to_string(n) + " instants");
        }
        step_instant_locked();
        ++executed;
    }
    maybe_checkpoint_locked();
    bytes::ByteWriter w;
    w.u64(ticks_.load(std::memory_order_relaxed));
    w.u32(executed);
    return ok_frame(req, w.take());
}

void Server::step_instant_locked() {
    const Clock::time_point t0 = Clock::now();
    for (const auto& s : shards_) s->engine().tick();
    h_tick_ns_.observe(ns_since(t0));
    c_ticks_total_.inc();
    ticks_.fetch_add(1, std::memory_order_relaxed);
}

Frame Server::do_read_outputs(const Frame& req, bytes::ByteReader& r) {
    const std::uint64_t tenant = r.u64();
    const std::size_t count = r.count(kWireHandleBytes);
    std::vector<WireHandle> handles(count);
    for (WireHandle& h : handles) h = read_handle(r);
    r.done();
    QueuedShared lk(state_m_, g_queue_depth_);
    std::vector<runtime::InstanceId> ids(count);
    for (std::size_t i = 0; i < count; ++i)
        if (resolve(handles[i], tenant, &ids[i]) != Err::Ok)
            return error_frame(req, Err::BadHandle,
                               "stale or foreign handle at index " + std::to_string(i));
    bytes::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(count));
    for (std::size_t i = 0; i < count; ++i)
        w.f64s(shards_[handles[i].shard]->pool().outputs(ids[i]));
    return ok_frame(req, w.take());
}

Frame Server::do_snapshot(const Frame& req, bytes::ByteReader& r) {
    const std::uint64_t tenant = r.u64();
    const WireHandle h = read_handle(r);
    r.done();
    QueuedShared lk(state_m_, g_queue_depth_);
    runtime::InstanceId id;
    if (resolve(h, tenant, &id) != Err::Ok)
        return error_frame(req, Err::BadHandle, "stale or foreign handle");
    const std::vector<double> blob = shards_[h.shard]->pool().snapshot_state(id);
    bytes::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(blob.size()));
    w.f64s(blob);
    return ok_frame(req, w.take());
}

Frame Server::do_stats(const Frame& req, bytes::ByteReader& r) {
    (void)r.u64(); // tenant
    r.done();
    bytes::ByteWriter w;
    w.str(metrics_text()); // takes the shared lock itself
    return ok_frame(req, w.take());
}

Frame Server::do_shutdown(const Frame& req, bytes::ByteReader& r) {
    (void)r.u64(); // tenant
    r.done();
    // The reply goes out first; handle_conn() then calls request_stop(), so
    // the client always sees its SHUTDOWN acknowledged.
    return ok_frame(req);
}

Frame Server::do_upgrade(const Frame& req, bytes::ByteReader& r) {
    (void)r.u64(); // tenant: upgrades are control-plane, fleet-wide
    const std::uint32_t flags = r.u32();
    const std::string source = r.str();
    r.done();
    if (!cfg_.upgrade)
        return error_frame(req, Err::UpgradeRejected,
                           "live upgrades are disabled on this server");
    if (SBD_FAULT_HIT("serve.upgrade"))
        // Injected before any compile work: the running version, every
        // shard and every instance are untouched.
        throw resilience::FaultInjected("injected upgrade fault before compile");

    // Phase 1 (shared lock): pin the running version. sys_/root_ only move
    // under the exclusive lock, so a consistent triple read here stays
    // valid until the version counter says otherwise.
    const codegen::CompiledSystem* old_sys;
    BlockPtr old_root;
    std::shared_ptr<const codegen::CompiledSystem> old_owner; // keeps it alive unlocked
    std::uint64_t base_version;
    {
        QueuedShared lk(state_m_, g_queue_depth_);
        if (stopping_.load(std::memory_order_relaxed))
            return error_frame(req, Err::ShuttingDown, "server is shutting down");
        old_sys = sys_;
        old_root = root_;
        old_owner = owned_sys_;
        base_version = model_version_.load(std::memory_order_relaxed);
    }

    // Phase 2 (unlocked — traffic keeps flowing): incremental recompile
    // through the shared profile cache, then diff and migration planning.
    upgrade::ModelVersion next;
    upgrade::ModelDiff diff;
    upgrade::MigrationPlan plan;
    try {
        next = upgrade::compile_version(source, *cfg_.upgrade, base_version + 1);
        diff = upgrade::diff_models(old_root, next.root);
        plan = upgrade::plan_migration(*old_sys, old_root, *next.sys, next.root);
        if (plan.drain_and_replace() && (flags & kUpgradeAllowDrain) == 0)
            throw upgrade::UpgradeError(upgrade::UpgradeError::Code::Incompatible,
                                        "drain-and-replace required (" + plan.drain_reason() +
                                            ") but the request does not allow draining");
    } catch (const upgrade::UpgradeError& e) {
        c_upgrades_rejected_.inc();
        return error_frame(req, Err::UpgradeRejected,
                           std::string(upgrade::to_string(e.code())) + ": " + e.what());
    }

    // Phase 3 (exclusive lock — the instant-boundary quiesce): recheck the
    // race, prepare every shard, then commit every shard. prepare touches
    // nothing and commit cannot throw, so the fleet is never torn: either
    // all shards swap or none do.
    const Clock::time_point swap_t0 = Clock::now();
    {
        QueuedExclusive lk(state_m_, g_queue_depth_);
        if (stopping_.load(std::memory_order_relaxed))
            return error_frame(req, Err::ShuttingDown, "server is shutting down");
        if (model_version_.load(std::memory_order_relaxed) != base_version) {
            c_upgrades_rejected_.inc();
            return error_frame(req, Err::UpgradeRejected,
                               "conflict: a concurrent upgrade was applied first");
        }
        std::vector<runtime::InstancePool::Rebind> staged;
        staged.reserve(shards_.size());
        try {
            for (const auto& s : shards_)
                staged.push_back(s->pool().prepare_rebind(*next.sys, next.root, next.exec, plan));
        } catch (const std::exception& e) {
            c_upgrades_rejected_.inc();
            return error_frame(req, Err::UpgradeRejected,
                               std::string("migration failed: ") + e.what());
        }
        // Journal after prepare succeeded (commit below cannot fail) and
        // before commit: an append failure rejects the upgrade with the old
        // version fully intact, and a crash after the append replays the
        // upgrade deterministically — post-upgrade journal records are
        // never replayed against the pre-upgrade model.
        if (store_ != nullptr) {
            bytes::ByteWriter jw;
            jw.u32(flags);
            jw.str(source);
            const std::vector<std::uint8_t> jrec = jw.take();
            try {
                journal_append(durable::RecordKind::Upgrade, jrec);
            } catch (const durable::DurableError& e) {
                c_upgrades_rejected_.inc();
                return error_frame(req, Err::DurableFailed, e.what());
            }
        }
        for (std::size_t s = 0; s < shards_.size(); ++s)
            shards_[s]->pool().commit_rebind(std::move(staged[s]));
        owned_sys_ = next.sys;
        owned_exec_ = next.exec;
        sys_ = owned_sys_.get();
        root_ = next.root;
        cfg_.executable = next.exec;
        model_source_ = source;
        model_version_.store(next.version, std::memory_order_relaxed);
    }
    const std::uint64_t swap_ns = ns_since(swap_t0);

    c_upgrades_applied_.inc();
    c_upgrade_units_reused_.inc(next.macro_reuses);
    c_upgrade_units_compiled_.inc(next.macro_compiles);
    h_upgrade_swap_ns_.observe(swap_ns);
    g_model_version_.set(static_cast<std::int64_t>(next.version));

    bytes::ByteWriter w;
    w.u64(next.version);
    w.u64(next.macro_compiles);
    w.u64(next.macro_reuses);
    w.u64(diff.units_total);
    w.u64(diff.units_reused);
    w.u32(plan.drain_and_replace() ? 1 : 0);
    w.u64(plan.copied());
    w.u64(plan.initialized());
    w.u64(plan.dropped());
    w.u64(next.compile_ns);
    w.u64(swap_ns);
    return ok_frame(req, w.take());
}

// ------------------------------------------------------------- durability

void Server::journal_append(durable::RecordKind kind, std::span<const std::uint8_t> payload) {
    if (store_ == nullptr) return;
    store_->journal().append(kind, payload);
}

void Server::maybe_checkpoint_locked() {
    if (store_ == nullptr || cfg_.durable->checkpoint_every_ticks == 0) return;
    const std::uint64_t t = ticks_.load(std::memory_order_relaxed);
    if (t - last_checkpoint_ticks_ < cfg_.durable->checkpoint_every_ticks) return;
    write_checkpoint_locked();
}

void Server::write_checkpoint_locked() {
    // The checkpoint covers every record appended so far: mutations only
    // happen under the exclusive lock we hold (posts additionally serialize
    // through durable_post_m_ before their shared-lock apply), so
    // next_seq-1 is exact.
    const std::uint64_t seq = store_->journal().next_seq() - 1;
    const std::vector<std::uint8_t> payload = checkpoint_payload_locked();
    if (store_->checkpoints().write(seq, payload)) {
        store_->checkpoints().retain(2);
        store_->journal().truncate_until(seq);
    }
    // On failure the journal keeps the full tail, so nothing is lost —
    // resetting the cadence marker either way just retries one interval
    // later instead of on every subsequent tick.
    last_checkpoint_ticks_ = ticks_.load(std::memory_order_relaxed);
}

std::vector<std::uint8_t> Server::checkpoint_payload_locked() const {
    bytes::ByteWriter w;
    w.u64(model_version_.load(std::memory_order_relaxed));
    w.str(model_source_);
    w.u64(ticks_.load(std::memory_order_relaxed));
    w.u64(next_shard_);
    w.u32(static_cast<std::uint32_t>(tenant_instances_.size()));
    // Sorted for determinism: two checkpoints of identical state are
    // byte-identical, which makes them trivially diffable in tests.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tenants;
    tenants.reserve(tenant_instances_.size());
    for (const auto& [t, n] : tenant_instances_) tenants.emplace_back(t, n);
    std::sort(tenants.begin(), tenants.end());
    for (const auto& [t, n] : tenants) {
        w.u64(t);
        w.u64(n);
    }
    w.u32(static_cast<std::uint32_t>(shards_.size()));
    for (const auto& shard : shards_) {
        const runtime::InstancePool& pool = shard->pool();
        const runtime::InstancePool::Image img = pool.image();
        w.u32(static_cast<std::uint32_t>(pool.capacity()));
        w.u32(static_cast<std::uint32_t>(img.free_order.size()));
        for (const std::uint32_t s : img.free_order) w.u32(s);
        w.u32(static_cast<std::uint32_t>(img.live_order.size()));
        for (const std::uint32_t s : img.live_order) w.u32(s);
        for (const std::uint32_t g : img.generations) w.u32(g);
        for (const std::uint32_t s : img.live_order) w.u64(shard->owners()[s]);
        for (const std::vector<double>& blob : img.blobs) {
            w.u32(static_cast<std::uint32_t>(blob.size()));
            w.f64s(blob);
        }
    }
    return w.take();
}

void Server::restore_checkpoint(std::span<const std::uint8_t> payload) {
    static const runtime::DrainMigrator kDrain;
    try {
        bytes::ByteReader r(payload);
        const std::uint64_t version = r.u64();
        const std::string source = r.str();
        const std::uint64_t ticks = r.u64();
        const std::uint64_t next_shard = r.u64();
        const std::uint32_t ntenants = r.u32();
        std::unordered_map<std::uint64_t, std::size_t> tenants;
        for (std::uint32_t i = 0; i < ntenants; ++i) {
            const std::uint64_t t = r.u64();
            tenants[t] = static_cast<std::size_t>(r.u64());
        }
        const std::uint32_t nshards = r.u32();
        if (nshards != shards_.size())
            throw durable::DurableError(
                "durable: checkpoint has " + std::to_string(nshards) + " shards, server booted with " +
                std::to_string(shards_.size()) + " — restart with the original topology");
        if (next_shard >= shards_.size()) throw bytes::DecodeError(bytes::Reject::BadValue);
        // The checkpoint's blobs are laid out for the checkpointed model
        // version; rebind the (still empty) shards to it before restoring.
        if (version != 1 || (!source.empty() && source != model_source_))
            install_version_for_recovery(source, version, &kDrain);
        for (auto& shard : shards_) {
            runtime::InstancePool& pool = shard->pool();
            const std::uint32_t cap = r.u32();
            if (cap != pool.capacity())
                throw durable::DurableError(
                    "durable: checkpoint shard capacity " + std::to_string(cap) +
                    " != configured " + std::to_string(pool.capacity()) +
                    " — restart with the original topology");
            runtime::InstancePool::Image img;
            img.free_order.resize(r.count(4));
            for (std::uint32_t& s : img.free_order) s = r.u32();
            img.live_order.resize(r.count(4));
            for (std::uint32_t& s : img.live_order) s = r.u32();
            img.generations.resize(cap);
            for (std::uint32_t& g : img.generations) g = r.u32();
            std::vector<std::uint64_t> owners(cap, 0);
            for (const std::uint32_t s : img.live_order) {
                if (s >= cap) throw durable::DurableError("durable: checkpoint live slot out of range");
                owners[s] = r.u64();
            }
            img.blobs.resize(img.live_order.size());
            for (std::vector<double>& blob : img.blobs) {
                blob.resize(r.count(sizeof(double)));
                r.f64s(blob);
            }
            pool.restore_image(img);
            shard->restore_owners(std::move(owners));
        }
        r.done();
        tenant_instances_ = std::move(tenants);
        next_shard_ = static_cast<std::size_t>(next_shard);
        ticks_.store(ticks, std::memory_order_relaxed);
        c_ticks_total_.inc(ticks); // keep the metrics mirror consistent
        model_source_ = source;
        model_version_.store(version, std::memory_order_relaxed);
        g_model_version_.set(static_cast<std::int64_t>(version));
        last_checkpoint_ticks_ = ticks;
    } catch (const bytes::DecodeError&) {
        throw durable::DurableError(
            "durable: checkpoint payload does not parse — written by an incompatible build?");
    } catch (const std::invalid_argument& e) {
        throw durable::DurableError(
            std::string("durable: checkpoint does not match the boot configuration: ") + e.what());
    } catch (const upgrade::UpgradeError& e) {
        throw durable::DurableError(
            std::string("durable: cannot recompile the checkpointed model version: ") + e.what());
    }
}

void Server::install_version_for_recovery(const std::string& source, std::uint64_t version,
                                          const runtime::StateMigrator* migrator) {
    if (!cfg_.upgrade)
        throw durable::DurableError(
            "durable: the store holds model version " + std::to_string(version) +
            " but live upgrades are disabled — recovery cannot recompile it");
    upgrade::ModelVersion next = upgrade::compile_version(source, *cfg_.upgrade, version);
    std::unique_ptr<upgrade::MigrationPlan> plan;
    if (migrator == nullptr) {
        plan = std::make_unique<upgrade::MigrationPlan>(
            upgrade::plan_migration(*sys_, root_, *next.sys, next.root));
        migrator = plan.get();
    }
    std::vector<runtime::InstancePool::Rebind> staged;
    staged.reserve(shards_.size());
    for (const auto& s : shards_)
        staged.push_back(s->pool().prepare_rebind(*next.sys, next.root, next.exec, *migrator));
    for (std::size_t s = 0; s < shards_.size(); ++s)
        shards_[s]->pool().commit_rebind(std::move(staged[s]));
    owned_sys_ = next.sys;
    owned_exec_ = next.exec;
    sys_ = owned_sys_.get();
    root_ = next.root;
    cfg_.executable = next.exec;
    model_source_ = source;
    model_version_.store(version, std::memory_order_relaxed);
    g_model_version_.set(static_cast<std::int64_t>(version));
}

void Server::replay_record(const durable::Record& rec) {
    bytes::ByteReader r(rec.payload);
    switch (rec.kind) {
    case durable::RecordKind::Create: {
        const std::uint64_t tenant = r.u64();
        const std::uint32_t count = r.u32();
        r.done();
        if (count > free_slots())
            throw durable::DurableError("durable: replay diverged on CREATE count");
        apply_create_locked(tenant, count);
        return;
    }
    case durable::RecordKind::Destroy: {
        const std::uint64_t tenant = r.u64();
        const std::size_t count = r.count(kWireHandleBytes);
        std::vector<WireHandle> handles(count);
        for (WireHandle& h : handles) h = read_handle(r);
        r.done();
        std::vector<runtime::InstanceId> ids(count);
        for (std::size_t i = 0; i < count; ++i)
            if (resolve(handles[i], tenant, &ids[i]) != Err::Ok)
                throw durable::DurableError("durable: replay diverged on DESTROY handle");
        for (std::size_t i = 0; i < count; ++i) shards_[handles[i].shard]->destroy(ids[i]);
        tenant_instances_[tenant] -= count;
        return;
    }
    case durable::RecordKind::PostInputs: {
        const std::uint64_t tenant = r.u64();
        const std::uint32_t count = r.u32();
        const std::size_t nin = shards_[0]->pool().num_inputs();
        for (std::uint32_t i = 0; i < count; ++i) {
            const WireHandle h = read_handle(r);
            runtime::InstanceId id;
            if (resolve(h, tenant, &id) != Err::Ok)
                throw durable::DurableError("durable: replay diverged on POST_INPUTS handle");
            r.f64s(shards_[h.shard]->pool().inputs(id).subspan(0, nin));
        }
        r.done();
        return;
    }
    case durable::RecordKind::Tick: {
        r.done();
        step_instant_locked();
        return;
    }
    case durable::RecordKind::Upgrade: {
        (void)r.u32(); // flags: compatibility was proven when it applied live
        const std::string source = r.str();
        r.done();
        install_version_for_recovery(
            source, model_version_.load(std::memory_order_relaxed) + 1, nullptr);
        return;
    }
    }
    throw durable::DurableError("durable: unknown journal record kind " +
                                std::to_string(static_cast<std::uint32_t>(rec.kind)));
}

RecoveryStats Server::recover() {
    RecoveryStats rs;
    if (store_ == nullptr) return rs;
    const Clock::time_point t0 = Clock::now();
    std::uint64_t from_seq = 0;
    if (auto ck = store_->checkpoints().load_latest()) {
        rs.checkpoint_fallbacks = ck->fallbacks;
        restore_checkpoint(ck->payload);
        from_seq = ck->seq;
        rs.checkpoint_seq = ck->seq;
        rs.recovered = true;
    }
    const durable::ScanResult scan =
        durable::Journal::scan(store_->options().journal_dir(), from_seq);
    for (const durable::Record& rec : scan.records) {
        try {
            replay_record(rec);
        } catch (const std::exception&) {
            // A coded fault (armed chaos plan) or a disabled upgrade
            // context stopped the replay. Everything applied so far is a
            // consistent prefix of the journaled timeline; serving resumes
            // from there rather than dying.
            rs.replay_aborted = true;
            break;
        }
        ++rs.replayed_records;
        if (rec.kind == durable::RecordKind::Tick) ++rs.replayed_ticks;
        rs.recovered = true;
    }
    rs.recovered_version = model_version_.load(std::memory_order_relaxed);
    rs.recovered_ticks = ticks_.load(std::memory_order_relaxed);
    for (const auto& s : shards_) rs.live_instances += s->size();
    rs.recovery_ns = ns_since(t0);
    last_checkpoint_ticks_ = rs.recovered_ticks;
    store_->note_recovery(rs.replayed_records, rs.replayed_ticks, rs.recovery_ns);
    refresh_shard_gauges();
    return rs;
}

} // namespace sbd::serve
