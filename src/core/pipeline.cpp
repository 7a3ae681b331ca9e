#include "core/pipeline.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "core/bytes.hpp"
#include "core/contract.hpp"
#include "core/fsio.hpp"
#include "obs/trace.hpp"
#include "resilience/fault.hpp"
#include "sbd/opaque.hpp"

namespace sbd::codegen {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// ------------------------------------------------------------- wire format
//
// Cache record = header + payload + trailer:
//   magic "SBDP" | version u32 | key.hi u64 | key.lo u64 | payload_len u64
//   payload (serialize_entry)
//   checksum.hi u64 | checksum.lo u64      (Hasher over the payload bytes)
// All integers little-endian. Any structural problem — short file, bad
// magic/version, key mismatch, checksum mismatch, or a payload that fails
// deserialize_entry's bounds checks — downgrades to a recompute.

constexpr std::uint32_t kMagic = 0x50444253; // "SBDP"
constexpr std::uint32_t kFormatVersion = 2; // v2: SatClusterStats::budget_exhausted

// Every count and string length in a record is a u64. Each count<Count>()
// passes the smallest encoding of one element, so no container is sized
// beyond what the bytes left can hold.
using bytes::ByteReader;
using bytes::ByteWriter;
using Count = std::uint64_t;

[[noreturn]] void bad_value() { throw bytes::DecodeError(bytes::Reject::BadValue); }

void write_size_vec(ByteWriter& w, std::span<const std::size_t> v) {
    w.u64(v.size());
    for (const auto x : v) w.u64(x);
}

std::vector<std::size_t> read_size_vec(ByteReader& r) {
    std::vector<std::size_t> v(r.count<Count>(8));
    for (auto& x : v) x = r.u64();
    return v;
}

void write_interface_fn(ByteWriter& w, const InterfaceFunction& fn) {
    w.str<Count>(fn.name);
    write_size_vec(w, fn.reads);
    write_size_vec(w, fn.writes);
}

constexpr std::size_t kInterfaceFnBytes = 24; // name, reads, writes: one u64 count each

InterfaceFunction read_interface_fn(ByteReader& r) {
    InterfaceFunction fn;
    fn.name = r.str<Count>();
    fn.reads = read_size_vec(r);
    fn.writes = read_size_vec(r);
    return fn;
}

void write_profile(ByteWriter& w, const Profile& p) {
    w.u64(p.functions.size());
    for (const auto& fn : p.functions) write_interface_fn(w, fn);
    w.u64(p.pdg_edges.size());
    for (const auto& [a, b] : p.pdg_edges) {
        w.u64(a);
        w.u64(b);
    }
    w.u8(p.sequential ? 1 : 0);
}

Profile read_profile(ByteReader& r) {
    Profile p;
    p.functions.resize(r.count<Count>(kInterfaceFnBytes));
    for (auto& fn : p.functions) fn = read_interface_fn(r);
    p.pdg_edges.resize(r.count<Count>(16));
    for (auto& [a, b] : p.pdg_edges) {
        a = r.u64();
        b = r.u64();
    }
    p.sequential = r.u8() != 0;
    return p;
}

void write_sdg(ByteWriter& w, const Sdg& s) {
    w.u64(s.graph.num_nodes());
    for (const SdgNode& n : s.nodes) {
        w.u8(static_cast<std::uint8_t>(n.kind));
        w.i32(n.port);
        w.i32(n.sub);
        w.i32(n.fn);
        w.i32(n.pt_input);
    }
    // Edges grouped by source, successor lists in stored order, so the
    // rebuilt adjacency is identical (to_dot and every traversal agree).
    w.u64(s.graph.num_edges());
    for (graph::NodeId u = 0; u < s.graph.num_nodes(); ++u)
        for (const graph::NodeId v : s.graph.successors(u)) {
            w.u32(u);
            w.u32(v);
        }
    write_size_vec(w, {}); // reserved
    w.u64(s.input_nodes.size());
    for (const auto v : s.input_nodes) w.u32(v);
    w.u64(s.output_nodes.size());
    for (const auto v : s.output_nodes) w.u32(v);
    w.u64(s.internal_nodes.size());
    for (const auto v : s.internal_nodes) w.u32(v);
}

Sdg read_sdg(ByteReader& r) {
    Sdg s;
    const std::size_t n = r.count<Count>(17); // u8 kind, 4 x i32
    s.graph = graph::Digraph(n);
    s.nodes.resize(n);
    for (SdgNode& node : s.nodes) {
        const auto kind = r.u8();
        if (kind > 2) bad_value();
        node.kind = static_cast<SdgNode::Kind>(kind);
        node.port = r.i32();
        node.sub = r.i32();
        node.fn = r.i32();
        node.pt_input = r.i32();
    }
    const std::size_t ne = r.count<Count>(8);
    for (std::size_t i = 0; i < ne; ++i) {
        const auto u = r.u32();
        const auto v = r.u32();
        if (u >= n || v >= n) bad_value();
        s.graph.add_edge(u, v);
    }
    (void)read_size_vec(r); // reserved
    const auto read_ids = [&](std::vector<graph::NodeId>& out) {
        out.resize(r.count<Count>(4));
        for (auto& v : out) {
            v = r.u32();
            if (v >= n) bad_value();
        }
    };
    read_ids(s.input_nodes);
    read_ids(s.output_nodes);
    read_ids(s.internal_nodes);
    return s;
}

void write_clustering(ByteWriter& w, const Clustering& c) {
    w.u8(static_cast<std::uint8_t>(c.method));
    w.u64(c.clusters.size());
    for (const auto& cl : c.clusters) {
        w.u64(cl.size());
        for (const auto v : cl) w.u32(v);
    }
}

Clustering read_clustering(ByteReader& r) {
    Clustering c;
    const auto m = r.u8();
    if (m > static_cast<std::uint8_t>(Method::Singletons)) bad_value();
    c.method = static_cast<Method>(m);
    c.clusters.resize(r.count<Count>(8));
    for (auto& cl : c.clusters) {
        cl.resize(r.count<Count>(4));
        for (auto& v : cl) v = r.u32();
    }
    return c;
}

void write_value_ref(ByteWriter& w, const ValueRef& v) {
    w.u8(static_cast<std::uint8_t>(v.kind));
    w.i32(v.index);
}

constexpr std::size_t kValueRefBytes = 1 + 4;

ValueRef read_value_ref(ByteReader& r) {
    ValueRef v;
    const auto k = r.u8();
    if (k > 1) bad_value();
    v.kind = static_cast<ValueRef::Kind>(k);
    v.index = r.i32();
    return v;
}

void write_stmt(ByteWriter& w, const Stmt& stmt) {
    if (const auto* call = std::get_if<CallStmt>(&stmt)) {
        w.u8(0);
        w.i32(call->sub);
        w.i32(call->fn);
        w.u64(call->args.size());
        for (const auto& a : call->args) write_value_ref(w, a);
        w.u64(call->results.size());
        for (const auto s : call->results) w.i32(s);
        w.str<Count>(call->callee);
        w.u8(call->trigger ? 1 : 0);
        if (call->trigger) write_value_ref(w, *call->trigger);
    } else if (const auto* assign = std::get_if<AssignStmt>(&stmt)) {
        w.u8(1);
        write_value_ref(w, assign->src);
        w.i32(assign->dst_slot);
    } else if (const auto* gb = std::get_if<GuardBegin>(&stmt)) {
        w.u8(2);
        w.i32(gb->counter);
    } else if (std::get_if<GuardEnd>(&stmt) != nullptr) {
        w.u8(3);
    } else {
        const auto& bump = std::get<BumpStmt>(stmt);
        w.u8(4);
        w.i32(bump.counter);
        w.i32(bump.mod);
    }
}

Stmt read_stmt(ByteReader& r) {
    switch (r.u8()) {
    case 0: {
        CallStmt call;
        call.sub = r.i32();
        call.fn = r.i32();
        call.args.resize(r.count<Count>(kValueRefBytes));
        for (auto& a : call.args) a = read_value_ref(r);
        call.results.resize(r.count<Count>(4));
        for (auto& s : call.results) s = r.i32();
        call.callee = r.str<Count>();
        if (r.u8() != 0) call.trigger = read_value_ref(r);
        return call;
    }
    case 1: {
        AssignStmt a;
        a.src = read_value_ref(r);
        a.dst_slot = r.i32();
        return a;
    }
    case 2: {
        GuardBegin g;
        g.counter = r.i32();
        return g;
    }
    case 3: return GuardEnd{};
    case 4: {
        BumpStmt b;
        b.counter = r.i32();
        b.mod = r.i32();
        return b;
    }
    default: bad_value();
    }
}

void write_code(ByteWriter& w, const CodeUnit& c) {
    w.str<Count>(c.block_name);
    w.u64(c.functions.size());
    for (const auto& fn : c.functions) {
        write_interface_fn(w, fn.sig);
        w.u64(fn.body.size());
        for (const auto& s : fn.body) write_stmt(w, s);
        w.u64(fn.returns.size());
        for (const auto& v : fn.returns) write_value_ref(w, v);
    }
    w.u64(c.num_slots);
    w.u64(c.slot_names.size());
    for (const auto& s : c.slot_names) w.str<Count>(s);
    w.u64(c.counter_mods.size());
    for (const auto m : c.counter_mods) w.i32(m);
    w.u64(c.sequential_subs.size());
    for (const auto s : c.sequential_subs) w.i32(s);
    w.u64(c.param_names.size());
    for (const auto& s : c.param_names) w.str<Count>(s);
    w.u64(c.output_names.size());
    for (const auto& s : c.output_names) w.str<Count>(s);
}

CodeUnit read_code(ByteReader& r) {
    CodeUnit c;
    c.block_name = r.str<Count>();
    c.functions.resize(r.count<Count>(kInterfaceFnBytes + 8 + 8));
    for (GenFunction& fn : c.functions) {
        fn.sig = read_interface_fn(r);
        fn.body.resize(r.count<Count>(1));
        for (Stmt& s : fn.body) s = read_stmt(r);
        fn.returns.resize(r.count<Count>(kValueRefBytes));
        for (ValueRef& v : fn.returns) v = read_value_ref(r);
    }
    c.num_slots = r.u64();
    const auto read_strs = [&](std::vector<std::string>& out) {
        out.resize(r.count<Count>(8));
        for (auto& s : out) s = r.str<Count>();
    };
    read_strs(c.slot_names);
    // One name per slot: codegen emits them together and emit_cpp indexes
    // slot_names by slot.
    if (c.num_slots != c.slot_names.size()) bad_value();
    c.counter_mods.resize(r.count<Count>(4));
    for (auto& m : c.counter_mods) m = r.i32();
    c.sequential_subs.resize(r.count<Count>(4));
    for (auto& s : c.sequential_subs) s = r.i32();
    read_strs(c.param_names);
    read_strs(c.output_names);
    return c;
}

Fingerprint payload_checksum(std::span<const std::uint8_t> payload) {
    Hasher h;
    h.bytes(payload);
    return h.digest();
}

} // namespace

std::vector<std::uint8_t> serialize_entry(const CacheEntry& entry) {
    ByteWriter w;
    write_profile(w, entry.profile);
    w.u8(entry.sdg ? 1 : 0);
    if (entry.sdg) write_sdg(w, *entry.sdg);
    w.u8(entry.clustering ? 1 : 0);
    if (entry.clustering) write_clustering(w, *entry.clustering);
    w.u8(entry.code ? 1 : 0);
    if (entry.code) write_code(w, *entry.code);
    const SatClusterStats& d = entry.sat_delta;
    w.u64(d.iterations);
    w.u64(d.first_k);
    w.u64(d.final_k);
    w.u64(d.vars);
    w.u64(d.clauses);
    w.u64(d.conflicts);
    w.u64(d.decisions);
    w.u64(d.propagations);
    w.u8(d.budget_exhausted ? 1 : 0);
    return w.take();
}

std::optional<CacheEntry> deserialize_entry(std::span<const std::uint8_t> payload) {
    try {
        ByteReader r(payload);
        CacheEntry e;
        e.profile = read_profile(r);
        if (r.u8() != 0) e.sdg = read_sdg(r);
        if (r.u8() != 0) e.clustering = read_clustering(r);
        if (r.u8() != 0) e.code = read_code(r);
        e.sat_delta.iterations = r.u64();
        e.sat_delta.first_k = r.u64();
        e.sat_delta.final_k = r.u64();
        e.sat_delta.vars = r.u64();
        e.sat_delta.clauses = r.u64();
        e.sat_delta.conflicts = r.u64();
        e.sat_delta.decisions = r.u64();
        e.sat_delta.propagations = r.u64();
        e.sat_delta.budget_exhausted = r.u8() != 0;
        r.done();
        return e;
    } catch (const bytes::DecodeError&) {
        return std::nullopt;
    }
}

// ------------------------------------------------------------ PipelineStats

std::string PipelineStats::to_json() const {
    char buf[1536];
    std::snprintf(
        buf, sizeof(buf),
        "{\"cache\": {\"mem_hits\": %llu, \"mem_misses\": %llu, \"evictions\": %llu, "
        "\"disk_hits\": %llu, \"disk_misses\": %llu, \"disk_rejects\": %llu, "
        "\"disk_stores\": %llu}, "
        "\"resilience\": {\"disk_retries\": %llu, \"disk_backoff_ns\": %llu, "
        "\"store_drops\": %llu, \"deadline_misses\": %llu}, "
        "\"work\": {\"macro_compiles\": %llu, \"macro_reuses\": %llu, "
        "\"atomic_profiles\": %llu, \"hit_rate\": %.4f}, "
        "\"timing_ns\": {\"fingerprint\": %llu, \"sdg\": %llu, \"cluster\": %llu, "
        "\"codegen\": %llu, \"contract\": %llu, \"disk\": %llu, \"total\": %llu}}",
        static_cast<unsigned long long>(mem_hits), static_cast<unsigned long long>(mem_misses),
        static_cast<unsigned long long>(evictions), static_cast<unsigned long long>(disk_hits),
        static_cast<unsigned long long>(disk_misses),
        static_cast<unsigned long long>(disk_rejects),
        static_cast<unsigned long long>(disk_stores),
        static_cast<unsigned long long>(disk_retries),
        static_cast<unsigned long long>(disk_backoff_ns),
        static_cast<unsigned long long>(store_drops),
        static_cast<unsigned long long>(deadline_misses),
        static_cast<unsigned long long>(macro_compiles),
        static_cast<unsigned long long>(macro_reuses),
        static_cast<unsigned long long>(atomic_profiles), hit_rate(),
        static_cast<unsigned long long>(fingerprint_ns), static_cast<unsigned long long>(sdg_ns),
        static_cast<unsigned long long>(cluster_ns), static_cast<unsigned long long>(codegen_ns),
        static_cast<unsigned long long>(contract_ns), static_cast<unsigned long long>(disk_ns),
        static_cast<unsigned long long>(total_ns));
    return buf;
}

// ------------------------------------------------------------- ProfileCache

ProfileCache::ProfileCache(std::size_t capacity, std::string cache_dir,
                           obs::MetricsRegistry* metrics, std::size_t max_bytes)
    : capacity_(capacity), max_bytes_(max_bytes), dir_(std::move(cache_dir)) {
    if (!dir_.empty()) {
        std::error_code ec;
        fs::create_directories(dir_, ec);
        if (SBD_FAULT_HIT("cache.dir_create"))
            ec = std::make_error_code(std::errc::permission_denied);
        if (ec)
            throw std::runtime_error("profile cache: cannot create cache dir '" + dir_ +
                                     "': " + ec.message());
    }
    if (metrics == nullptr) {
        owned_metrics_ = std::make_shared<obs::MetricsRegistry>();
        metrics = owned_metrics_.get();
    }
    metrics_ = metrics;
    c_mem_hits_ = metrics_->counter("sbd_cache_mem_hits_total",
                                    "profile-cache lookups served from the in-memory LRU");
    c_mem_misses_ = metrics_->counter("sbd_cache_mem_misses_total",
                                      "profile-cache lookups absent from memory");
    c_evictions_ = metrics_->counter("sbd_cache_evictions_total",
                                     "in-memory LRU entries dropped at capacity");
    c_disk_hits_ = metrics_->counter("sbd_cache_disk_hits_total",
                                     "profile-cache entries loaded from the on-disk store");
    c_disk_misses_ = metrics_->counter("sbd_cache_disk_misses_total",
                                       "profile-cache lookups with no usable file on disk");
    c_disk_rejects_ =
        metrics_->counter("sbd_cache_disk_rejects_total",
                          "corrupt/mismatched cache files rejected and recovered from");
    c_disk_stores_ = metrics_->counter("sbd_cache_disk_stores_total",
                                       "profile-cache entries written to disk");
    c_disk_ns_ = metrics_->counter("sbd_cache_disk_ns_total",
                                   "cumulative wall time spent on cache disk I/O, nanoseconds");
    c_disk_retries_ = metrics_->counter("sbd_cache_disk_retries_total",
                                        "cache disk operations retried after a failure");
    c_disk_backoff_ns_ = metrics_->counter("sbd_cache_disk_backoff_ns_total",
                                           "time slept between cache disk retries, nanoseconds");
    c_store_drops_ = metrics_->counter("sbd_cache_store_drops_total",
                                       "cache disk stores abandoned after exhausting retries");
    g_mem_bytes_ =
        metrics_->gauge("sbd_cache_mem_bytes", "serialized bytes held by the in-memory cache");
}

void ProfileCache::insert_locked(const Fingerprint& key,
                                 std::shared_ptr<const CacheEntry> entry, std::size_t bytes) {
    lru_.push_front(Node{key, std::move(entry), bytes});
    map_.emplace(key, lru_.begin());
    total_bytes_ += bytes;
    // Count budget, then byte budget. Both stop at one entry so the value
    // just inserted survives — a budget too small for a single entry must
    // degrade the cache to "remember the last result", not break it.
    while (capacity_ != 0 && lru_.size() > capacity_) {
        const Node& victim = lru_.back();
        total_bytes_ -= victim.bytes;
        map_.erase(victim.key);
        lru_.pop_back();
        c_evictions_.inc();
    }
    while (max_bytes_ != 0 && total_bytes_ > max_bytes_ && lru_.size() > 1) {
        const Node& victim = lru_.back();
        total_bytes_ -= victim.bytes;
        map_.erase(victim.key);
        lru_.pop_back();
        c_evictions_.inc();
    }
    g_mem_bytes_.set(static_cast<std::int64_t>(total_bytes_));
}

std::shared_ptr<const CacheEntry> ProfileCache::lookup(const Fingerprint& key) {
    {
        std::lock_guard lock(m_);
        const auto it = map_.find(key);
        if (it != map_.end()) {
            c_mem_hits_.inc();
            lru_.splice(lru_.begin(), lru_, it->second); // move to MRU
            return it->second->entry;
        }
        c_mem_misses_.inc();
    }
    if (dir_.empty()) return nullptr;
    auto entry = disk_load(key);
    if (entry) {
        // Promote to memory so repeated hits skip the disk.
        const std::size_t bytes = max_bytes_ != 0 ? serialize_entry(*entry).size() : 0;
        std::lock_guard lock(m_);
        const auto it = map_.find(key);
        if (it != map_.end()) return it->second->entry;
        insert_locked(key, entry, bytes);
    }
    return entry;
}

std::shared_ptr<const CacheEntry> ProfileCache::store(const Fingerprint& key, CacheEntry entry) {
    auto shared = std::make_shared<const CacheEntry>(std::move(entry));
    const std::size_t bytes = max_bytes_ != 0 ? serialize_entry(*shared).size() : 0;
    bool won = false;
    {
        std::lock_guard lock(m_);
        const auto it = map_.find(key);
        if (it != map_.end()) {
            // Concurrent same-key compile: first store wins, the duplicate
            // result (bit-identical by determinism) is discarded.
            shared = it->second->entry;
        } else {
            insert_locked(key, shared, bytes);
            won = true;
        }
    }
    if (won && !dir_.empty()) disk_store(key, *shared);
    return shared;
}

std::size_t ProfileCache::mem_bytes() const {
    std::lock_guard lock(m_);
    return total_bytes_;
}

bool ProfileCache::contains(const Fingerprint& key) const {
    std::lock_guard lock(m_);
    return map_.contains(key);
}

std::size_t ProfileCache::size() const {
    std::lock_guard lock(m_);
    return lru_.size();
}

PipelineStats ProfileCache::stats() const {
    // No lock: each field is one relaxed read of a registry cell.
    PipelineStats s;
    s.mem_hits = c_mem_hits_.value();
    s.mem_misses = c_mem_misses_.value();
    s.evictions = c_evictions_.value();
    s.disk_hits = c_disk_hits_.value();
    s.disk_misses = c_disk_misses_.value();
    s.disk_rejects = c_disk_rejects_.value();
    s.disk_stores = c_disk_stores_.value();
    s.disk_ns = c_disk_ns_.value();
    s.disk_retries = c_disk_retries_.value();
    s.disk_backoff_ns = c_disk_backoff_ns_.value();
    s.store_drops = c_store_drops_.value();
    return s;
}

void ProfileCache::clear() {
    std::lock_guard lock(m_);
    lru_.clear();
    map_.clear();
    total_bytes_ = 0;
    g_mem_bytes_.set(0);
}

std::shared_ptr<const CacheEntry> ProfileCache::disk_load(const Fingerprint& key) {
    const auto t0 = Clock::now();
    obs::TraceSpan span("disk-load", "cache", key.hex());
    const fs::path path = fs::path(dir_) / (key.hex() + ".sbdp");
    std::vector<std::uint8_t> raw;
    // Transient read failures (injected or real stream errors) are retried
    // with backoff; a read that stays broken degrades to a recompute, never
    // an error — a sick disk cache may only cost time.
    bool read_ok = false;
    for (int attempt = 1; attempt <= retry_.attempts && !read_ok; ++attempt) {
        if (attempt > 1) {
            c_disk_retries_.inc();
            c_disk_backoff_ns_.inc(resilience::backoff_sleep(retry_.backoff_ns(attempt - 1)));
        }
        if (SBD_FAULT_HIT("cache.disk_read")) continue; // simulated EIO
        std::ifstream f(path, std::ios::binary);
        if (!f) {
            // Absent file: the everyday miss, not a transient failure.
            c_disk_misses_.inc();
            c_disk_ns_.inc(ns_since(t0));
            return nullptr;
        }
        raw.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
        read_ok = !f.bad();
    }
    if (!read_ok) {
        c_disk_misses_.inc();
        c_disk_ns_.inc(ns_since(t0));
        return nullptr;
    }
    if (SBD_FAULT_HIT("cache.disk_corrupt") && !raw.empty())
        raw[raw.size() / 2] ^= 0xFF; // flips through the checksum/reject path
    const auto reject = [&]() -> std::shared_ptr<const CacheEntry> {
        // Corrupt/truncated/foreign record: drop the file (best effort) and
        // recompute — a bad cache must never be able to produce bad output.
        std::error_code ec;
        fs::remove(path, ec);
        c_disk_rejects_.inc();
        c_disk_ns_.inc(ns_since(t0));
        return nullptr;
    };
    constexpr std::size_t kHeader = 4 + 4 + 8 + 8 + 8;
    constexpr std::size_t kTrailer = 16;
    if (raw.size() < kHeader + kTrailer) return reject();
    ByteReader r(raw);
    if (r.u32() != kMagic || r.u32() != kFormatVersion) return reject();
    Fingerprint stored;
    stored.hi = r.u64();
    stored.lo = r.u64();
    if (!(stored == key)) return reject();
    const std::uint64_t payload_len = r.u64();
    if (payload_len != r.remaining() - kTrailer) return reject();
    const std::span<const std::uint8_t> payload = r.bytes(payload_len);
    Fingerprint check;
    check.hi = r.u64();
    check.lo = r.u64();
    if (!(check == payload_checksum(payload))) return reject();
    auto entry = deserialize_entry(payload);
    if (!entry) return reject();
    c_disk_hits_.inc();
    c_disk_ns_.inc(ns_since(t0));
    return std::make_shared<const CacheEntry>(std::move(*entry));
}

void ProfileCache::disk_store(const Fingerprint& key, const CacheEntry& entry) {
    const auto t0 = Clock::now();
    obs::TraceSpan span("disk-store", "cache", key.hex());
    const auto payload = serialize_entry(entry);
    ByteWriter w;
    w.reserve(payload.size() + 48);
    w.u32(kMagic);
    w.u32(kFormatVersion);
    w.u64(key.hi);
    w.u64(key.lo);
    w.u64(payload.size());
    w.bytes(payload);
    const Fingerprint check = payload_checksum(payload);
    w.u64(check.hi);
    w.u64(check.lo);
    const std::span<const std::uint8_t> record = w.view();

    std::uint64_t serial = 0;
    {
        std::lock_guard lock(m_);
        serial = ++tmp_serial_;
    }
    const fs::path final_path = fs::path(dir_) / (key.hex() + ".sbdp");
    const fs::path tmp_path =
        fs::path(dir_) / (key.hex() + ".tmp" +
                          std::to_string(std::hash<std::thread::id>{}(
                              std::this_thread::get_id()) %
                          1000000) +
                          "." + std::to_string(serial));

    // Losing a disk store is recoverable (the entry stays in memory, the
    // next run recomputes), so every failure here degrades instead of
    // throwing — but transient EEXIST/EACCES-class errors get retried with
    // backoff first, and an abandoned store is counted and warned about
    // once rather than dropped silently.
    const auto drop = [&]() {
        std::error_code rc;
        fs::remove(tmp_path, rc);
        c_store_drops_.inc();
        bool warn = false;
        {
            std::lock_guard lock(m_);
            warn = !warned_store_drop_;
            warned_store_drop_ = true;
        }
        if (warn)
            std::fprintf(stderr,
                         "sbd: warning: profile cache '%s' is not accepting writes "
                         "(entry %s dropped after %d attempts); compilation continues "
                         "without disk caching\n",
                         dir_.c_str(), key.hex().c_str(), retry_.attempts);
        c_disk_ns_.inc(ns_since(t0));
    };
    const auto retry_pause = [&](int failures) {
        c_disk_retries_.inc();
        c_disk_backoff_ns_.inc(resilience::backoff_sleep(retry_.backoff_ns(failures)));
    };

    bool written = false;
    for (int attempt = 1; attempt <= retry_.attempts && !written; ++attempt) {
        if (attempt > 1) retry_pause(attempt - 1);
        if (SBD_FAULT_HIT("cache.disk_write")) continue; // simulated ENOSPC/EIO
        std::ofstream f(tmp_path, std::ios::binary | std::ios::trunc);
        if (!f) continue;
        f.write(reinterpret_cast<const char*>(record.data()),
                static_cast<std::streamsize>(record.size()));
        f.close();
        written = f.good();
    }
    if (!written) return drop();

    bool renamed = false;
    for (int attempt = 1; attempt <= retry_.attempts && !renamed; ++attempt) {
        if (attempt > 1) retry_pause(attempt - 1);
        if (SBD_FAULT_HIT("cache.disk_rename")) continue; // simulated EACCES
        // fsync(tmp) + atomic rename + fsync(dir): a crash right after the
        // rename must not be able to resurrect a zero-length "valid-looking"
        // entry. Failure keeps the temp file and retries.
        renamed = fsio::publish_file_durable(tmp_path, final_path);
    }
    if (!renamed) return drop();
    c_disk_stores_.inc();
    c_disk_ns_.inc(ns_since(t0));
}

// ----------------------------------------------------------------- Pipeline

namespace {

/// One macro-block compilation task of the dependency DAG.
struct Task {
    BlockPtr block;
    Fingerprint key;
    std::vector<std::size_t> parents; ///< task indices waiting on this one
    std::size_t pending = 0;          ///< unfinished macro-sub dependencies
    std::size_t order_pos = 0;        ///< position in the post-order

    // Outcome (written by exactly one worker, read after the join).
    CompiledBlock result;
    bool has_result = false;
    SatClusterStats sat_delta;
    std::exception_ptr error;
    bool dep_failed = false;
    bool reused = false;
    std::uint64_t sdg_ns = 0, cluster_ns = 0, codegen_ns = 0, contract_ns = 0;
};

CompiledBlock block_from_entry(const BlockPtr& block, const CacheEntry& e) {
    CompiledBlock cb;
    cb.block = block;
    cb.profile = e.profile;
    cb.sdg = e.sdg;
    cb.clustering = e.clustering;
    cb.code = e.code;
    return cb;
}

/// Replays a per-block SatClusterStats delta with exactly the assign/add
/// semantics of cluster_disjoint_sat, so accumulating deltas in post-order
/// reproduces the serial path's accumulator byte for byte.
void merge_sat_delta(SatClusterStats& acc, const SatClusterStats& d) {
    acc.budget_exhausted = acc.budget_exhausted || d.budget_exhausted;
    if (d.iterations == 0) return; // block did no SAT work
    acc.iterations += d.iterations;
    acc.first_k = d.first_k;
    acc.final_k = d.final_k;
    acc.vars = d.vars;
    acc.clauses = d.clauses;
    acc.conflicts += d.conflicts;
    acc.decisions += d.decisions;
    acc.propagations += d.propagations;
}

} // namespace

Pipeline::Pipeline(PipelineOptions opts) : opts_(std::move(opts)) {
    init_metrics();
    cache_ = std::make_shared<ProfileCache>(opts_.cache_capacity, opts_.cache_dir, metrics_,
                                            opts_.budgets.memory_bytes);
}

Pipeline::Pipeline(PipelineOptions opts, std::shared_ptr<ProfileCache> cache)
    : opts_(std::move(opts)), cache_(std::move(cache)) {
    init_metrics();
    if (!cache_)
        cache_ = std::make_shared<ProfileCache>(opts_.cache_capacity, opts_.cache_dir, metrics_,
                                                opts_.budgets.memory_bytes);
}

void Pipeline::init_metrics() {
    if (opts_.metrics != nullptr) {
        metrics_ = opts_.metrics;
    } else {
        owned_metrics_ = std::make_shared<obs::MetricsRegistry>();
        metrics_ = owned_metrics_.get();
    }
    c_macro_compiles_ = metrics_->counter("sbd_pipeline_macro_compiles_total",
                                          "macro blocks compiled (cache misses)");
    c_macro_reuses_ = metrics_->counter("sbd_pipeline_macro_reuses_total",
                                        "macro blocks served from the profile cache");
    c_atomic_profiles_ = metrics_->counter("sbd_pipeline_atomic_profiles_total",
                                           "atomic/opaque profiles computed");
    const auto phase_ns = [&](const char* phase) {
        return metrics_->counter("sbd_pipeline_phase_ns_total",
                                 "cumulative wall time per compile phase, nanoseconds",
                                 {{"phase", phase}});
    };
    c_fingerprint_ns_ = phase_ns("fingerprint");
    c_sdg_ns_ = phase_ns("sdg");
    c_cluster_ns_ = phase_ns("cluster");
    c_codegen_ns_ = phase_ns("codegen");
    c_contract_ns_ = phase_ns("contract");
    c_total_ns_ = phase_ns("total");
    const auto phase_hist = [&](const char* phase) {
        return metrics_->histogram("sbd_pipeline_phase_latency_ns",
                                   obs::exponential_bounds(1000, 4.0, 12),
                                   "per-block compile-phase latency, nanoseconds",
                                   {{"phase", phase}});
    };
    h_sdg_ = phase_hist("sdg");
    h_cluster_ = phase_hist("cluster");
    h_codegen_ = phase_hist("codegen");
    h_contract_ = phase_hist("contract");
    h_task_ = metrics_->histogram("sbd_pipeline_task_ns", obs::exponential_bounds(1000, 4.0, 12),
                                  "whole per-block task latency including cache, nanoseconds");
    g_ready_depth_ = metrics_->gauge("sbd_pipeline_ready_depth",
                                     "ready-queue depth of the task-graph driver");
    c_sat_iterations_ =
        metrics_->counter("sbd_sat_iterations_total", "F_k SAT instances solved");
    c_sat_conflicts_ = metrics_->counter("sbd_sat_conflicts_total", "SAT solver conflicts");
    c_sat_decisions_ = metrics_->counter("sbd_sat_decisions_total", "SAT solver decisions");
    c_sat_propagations_ =
        metrics_->counter("sbd_sat_propagations_total", "SAT solver unit propagations");
    c_sat_budget_exhausted_ = metrics_->counter(
        "sbd_sat_budget_exhausted_total",
        "macro compiles whose SAT conflict budget tripped (degraded or aborted)");
    c_deadline_misses_ = metrics_->counter(
        "sbd_pipeline_deadline_misses_total",
        "pipeline tasks refused because the wall-clock deadline had expired");
    g_sat_first_k_ =
        metrics_->gauge("sbd_sat_first_k", "k of the first (smallest) F_k instance");
    g_sat_final_k_ = metrics_->gauge("sbd_sat_final_k", "k of the satisfiable F_k instance");
    g_sat_vars_ = metrics_->gauge("sbd_sat_vars", "variables of the final F_k instance");
    g_sat_clauses_ = metrics_->gauge("sbd_sat_clauses", "clauses of the final F_k instance");
}

/// Registry twin of merge_sat_delta: replayed deltas (cache hits) drive the
/// same counters the cold path does, so a warm compile's registry snapshot
/// equals a cold one's byte for byte.
void Pipeline::record_sat_delta(const SatClusterStats& d) {
    if (d.budget_exhausted) c_sat_budget_exhausted_.inc();
    if (d.iterations == 0) return; // block did no SAT work
    c_sat_iterations_.inc(d.iterations);
    g_sat_first_k_.set(static_cast<std::int64_t>(d.first_k));
    g_sat_final_k_.set(static_cast<std::int64_t>(d.final_k));
    g_sat_vars_.set(static_cast<std::int64_t>(d.vars));
    g_sat_clauses_.set(static_cast<std::int64_t>(d.clauses));
    c_sat_conflicts_.inc(d.conflicts);
    c_sat_decisions_.inc(d.decisions);
    c_sat_propagations_.inc(d.propagations);
}

PipelineStats Pipeline::stats() const {
    PipelineStats s = cache_->stats();
    s.macro_compiles = c_macro_compiles_.value();
    s.macro_reuses = c_macro_reuses_.value();
    s.atomic_profiles = c_atomic_profiles_.value();
    s.fingerprint_ns = c_fingerprint_ns_.value();
    s.sdg_ns = c_sdg_ns_.value();
    s.cluster_ns = c_cluster_ns_.value();
    s.codegen_ns = c_codegen_ns_.value();
    s.contract_ns = c_contract_ns_.value();
    s.total_ns = c_total_ns_.value();
    s.deadline_misses = c_deadline_misses_.value();
    return s;
}

CompiledSystem Pipeline::compile(BlockPtr root, SatClusterStats* sat_stats) {
    if (!root) throw std::invalid_argument("compile_hierarchy: null root");
    const auto t_total = Clock::now();
    obs::TraceSpan compile_span("compile", "pipeline", root->type_name());
    // Armed once per compile; every task boundary is a cooperative
    // cancellation point. The pipeline.deadline fault forces the verdict
    // deterministically in tests.
    const resilience::Deadline deadline =
        resilience::Deadline::after_ms(opts_.budgets.deadline_ms);

    CompiledSystem sys;
    sys.root_ = root;

    // ---- Phase 1 (serial): discovery. Walks the hierarchy in the same
    // deterministic post-order of first visit as the original recursion,
    // computing atomic profiles inline (they are cheap and pure) and one
    // structural fingerprint per unique block. Macro blocks become tasks of
    // the dependency DAG; `order` becomes CompiledSystem::order() verbatim,
    // independent of scheduling.
    const auto t_fp = Clock::now();
    BlockFingerprinter fper;
    std::vector<Task> tasks;
    std::unordered_map<const Block*, std::size_t> task_of; // macro -> task index
    std::vector<const Block*> order;

    {
        struct Frame {
            BlockPtr block;
            std::size_t next_sub = 0;
        };
        std::vector<Frame> stack;
        std::unordered_map<const Block*, bool> visited; // false = on stack
        const std::function<void(const BlockPtr&)> visit = [&](const BlockPtr& b) {
            if (visited.contains(b.get())) return;
            if (b->is_atomic()) {
                visited.emplace(b.get(), true);
                CompiledBlock cb;
                cb.block = b;
                cb.profile = b->is_opaque()
                                 ? opaque_profile(static_cast<const OpaqueBlock&>(*b))
                                 : atomic_profile(static_cast<const AtomicBlock&>(*b));
                sys.blocks_.emplace(b.get(), std::move(cb));
                order.push_back(b.get());
                c_atomic_profiles_.inc();
                return;
            }
            const auto& macro = static_cast<const MacroBlock&>(*b);
            for (std::size_t s = 0; s < macro.num_subs(); ++s) visit(macro.sub(s).type);
            visited.emplace(b.get(), true);
            Task t;
            t.block = b;
            t.key = compile_key(fper.of(*b), opts_.method, opts_.cluster);
            t.order_pos = order.size();
            order.push_back(b.get());
            task_of.emplace(b.get(), tasks.size());
            tasks.push_back(std::move(t));
        };
        visit(root);
    }
    c_fingerprint_ns_.inc(ns_since(t_fp));

    // Dependency edges: a macro waits for its unique macro sub types.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto& macro = static_cast<const MacroBlock&>(*tasks[i].block);
        std::unordered_map<const Block*, bool> seen;
        for (std::size_t s = 0; s < macro.num_subs(); ++s) {
            const Block* sub = macro.sub(s).type.get();
            if (sub->is_atomic() || seen.contains(sub)) continue;
            seen.emplace(sub, true);
            tasks[task_of.at(sub)].parents.push_back(i);
            ++tasks[i].pending;
        }
    }

    // The profile of an already-settled block (atomic or compiled macro).
    const auto profile_of = [&](const Block* b) -> const Profile* {
        const auto it = sys.blocks_.find(b);
        if (it != sys.blocks_.end()) return &it->second.profile;
        return &tasks[task_of.at(b)].result.profile;
    };

    // ---- Phase 2: execute the task DAG bottom-up. run_task is the whole
    // modular compilation of one macro block, through the cache.
    const auto run_task = [&](Task& t) {
        obs::TraceSpan task_span("compile-block", "pipeline", t.block->type_name());
        const auto t_task = Clock::now();
        try {
            if (deadline.due("pipeline.deadline")) {
                c_deadline_misses_.inc();
                throw resilience::DeadlineExceeded(
                    "pipeline: deadline expired before compiling subtree '" +
                    t.block->type_name() + "' (partial result discarded)");
            }
            if (SBD_FAULT_HIT("pipeline.task"))
                throw resilience::FaultInjected("pipeline: injected task fault at subtree '" +
                                                t.block->type_name() + "'");
            if (auto entry = cache_->lookup(t.key)) {
                t.result = block_from_entry(t.block, *entry);
                t.sat_delta = entry->sat_delta;
                t.has_result = true;
                t.reused = true;
                h_task_.observe(ns_since(t_task));
                return;
            }
            const auto& macro = static_cast<const MacroBlock&>(*t.block);
            std::vector<const Profile*> sub_profiles;
            sub_profiles.reserve(macro.num_subs());
            for (std::size_t s = 0; s < macro.num_subs(); ++s)
                sub_profiles.push_back(profile_of(macro.sub(s).type.get()));

            CompiledBlock cb;
            cb.block = t.block;
            auto t0 = Clock::now();
            {
                obs::TraceSpan span("sdg", "compile", macro.type_name());
                cb.sdg = build_sdg(macro, sub_profiles);
            }
            t.sdg_ns = ns_since(t0);
            h_sdg_.observe(t.sdg_ns);
            t0 = Clock::now();
            SatClusterStats delta;
            {
                obs::TraceSpan span("cluster", "compile", macro.type_name());
                cb.clustering = cluster(*cb.sdg, opts_.method, opts_.cluster, &delta);
            }
            t.cluster_ns = ns_since(t0);
            h_cluster_.observe(t.cluster_ns);
            t0 = Clock::now();
            CodegenResult gen;
            {
                obs::TraceSpan span("codegen", "compile", macro.type_name());
                gen = generate_code(macro, sub_profiles, *cb.sdg, *cb.clustering);
            }
            cb.code = std::move(gen.code);
            cb.profile = std::move(gen.profile);
            t.codegen_ns = ns_since(t0);
            h_codegen_.observe(t.codegen_ns);
            if (opts_.cluster.verify_contracts) {
                t0 = Clock::now();
                obs::TraceSpan span("contract", "compile", macro.type_name());
                const auto findings = check_profile_contract(macro, sub_profiles, *cb.sdg,
                                                             *cb.clustering, cb.profile);
                t.contract_ns = ns_since(t0);
                h_contract_.observe(t.contract_ns);
                if (any_fatal(findings)) {
                    std::string msg = "contract violation in generated profile:";
                    for (const auto& f : findings)
                        if (f.fatal)
                            msg += "\n  [" + std::string(to_string(f.kind)) + "] " + f.message;
                    throw std::logic_error(msg);
                }
            }
            CacheEntry entry;
            entry.profile = cb.profile;
            entry.sdg = cb.sdg;
            entry.clustering = cb.clustering;
            entry.code = cb.code;
            entry.sat_delta = delta;
            cache_->store(t.key, std::move(entry));
            t.result = std::move(cb);
            t.sat_delta = delta;
            t.has_result = true;
        } catch (...) {
            t.error = std::current_exception();
        }
        h_task_.observe(ns_since(t_task));
    };

    const std::size_t nthreads =
        opts_.threads == 0 ? 1 : std::min(opts_.threads, std::max<std::size_t>(1, tasks.size()));
    if (nthreads <= 1) {
        // Serial: post-order is already a topological order of the DAG.
        for (auto& t : tasks)
            if (t.dep_failed || [&] {
                    const auto& macro = static_cast<const MacroBlock&>(*t.block);
                    for (std::size_t s = 0; s < macro.num_subs(); ++s) {
                        const Block* sub = macro.sub(s).type.get();
                        if (!sub->is_atomic() && !tasks[task_of.at(sub)].has_result) return true;
                    }
                    return false;
                }())
                t.dep_failed = true;
            else
                run_task(t);
    } else {
        std::mutex m;
        std::condition_variable cv;
        std::deque<std::size_t> ready;
        std::size_t settled = 0;
        for (std::size_t i = 0; i < tasks.size(); ++i)
            if (tasks[i].pending == 0) ready.push_back(i);
        g_ready_depth_.set(static_cast<std::int64_t>(ready.size()));

        const auto settle = [&](std::size_t i) {
            // Called with the lock held: propagate completion/failure to
            // parents and wake anyone waiting for work or the join.
            for (const auto p : tasks[i].parents) {
                if (!tasks[i].has_result) tasks[p].dep_failed = true;
                if (--tasks[p].pending == 0) ready.push_back(p);
            }
            g_ready_depth_.set(static_cast<std::int64_t>(ready.size()));
            ++settled;
            cv.notify_all();
        };
        const auto worker = [&] {
            std::unique_lock lock(m);
            for (;;) {
                cv.wait(lock, [&] { return !ready.empty() || settled == tasks.size(); });
                if (ready.empty()) return; // all settled
                const std::size_t i = ready.front();
                ready.pop_front();
                g_ready_depth_.set(static_cast<std::int64_t>(ready.size()));
                if (tasks[i].dep_failed) {
                    // Failed dependency: never run, counts as settled. No
                    // cancellation of independent subtrees — the set of
                    // tasks that run is schedule-independent, which keeps
                    // the reported error deterministic.
                    settle(i);
                    continue;
                }
                lock.unlock();
                run_task(tasks[i]);
                lock.lock();
                settle(i);
            }
        };
        std::vector<std::thread> team;
        team.reserve(nthreads - 1);
        for (std::size_t k = 0; k + 1 < nthreads; ++k) team.emplace_back(worker);
        worker();
        for (auto& th : team) th.join();
    }

    // ---- Phase 3 (serial): deterministic assembly. Errors are reported in
    // post-order — exactly the block the serial recursion would have thrown
    // on — and SAT deltas are merged in the same order the serial path
    // accumulated them.
    for (const auto& t : tasks)
        if (t.error) {
            c_total_ns_.inc(ns_since(t_total));
            std::rethrow_exception(t.error);
        }
    for (auto& t : tasks) {
        if (sat_stats != nullptr) merge_sat_delta(*sat_stats, t.sat_delta);
        record_sat_delta(t.sat_delta);
        if (t.reused)
            c_macro_reuses_.inc();
        else
            c_macro_compiles_.inc();
        c_sdg_ns_.inc(t.sdg_ns);
        c_cluster_ns_.inc(t.cluster_ns);
        c_codegen_ns_.inc(t.codegen_ns);
        c_contract_ns_.inc(t.contract_ns);
        sys.blocks_.emplace(t.block.get(), std::move(t.result));
    }
    // State layout sizes, bottom-up: `order` lists every sub before its
    // parent.
    for (const Block* b : order) {
        CompiledBlock& cb = sys.blocks_.at(b);
        if (b->is_opaque()) continue;
        if (b->is_atomic()) {
            cb.state_size = static_cast<const AtomicBlock&>(*b).initial_state().size();
            continue;
        }
        const auto& macro = static_cast<const MacroBlock&>(*b);
        cb.state_size = cb.code->num_slots + cb.code->counter_mods.size();
        for (std::size_t s = 0; s < macro.num_subs(); ++s)
            cb.state_size += sys.blocks_.at(macro.sub(s).type.get()).state_size;
    }
    sys.order_ = std::move(order);
    c_total_ns_.inc(ns_since(t_total));
    return sys;
}

} // namespace sbd::codegen
