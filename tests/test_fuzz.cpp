// Seeded mutation fuzzing of every decoder that takes bytes from outside
// the process: SBDS frames, request payloads through Server::handle_request,
// journal segments, checkpoints with their server state image and journal
// replay, profile-cache entries, SBDT/CSV traces and `.sbd` source text
// (UPGRADE_MODEL carries up to 64 MiB of it from the network).
//
// Each decoder starts from valid inputs and decodes splitmix-driven
// mutants of them. Every mutant must end as a valid decode or as the coded
// rejection that decoder documents, and no single allocation made while
// decoding may exceed kSlackBytes + kBytesPerInputByte * input size: a
// count read from the input must never size anything the input cannot back.
// The global operator new below records the largest request.
//
// Usage: test_fuzz [gtest flags] [--mutants N]   (N per decoder, default 3000)

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/bytes.hpp"
#include "core/compiler.hpp"
#include "core/exec.hpp"
#include "core/pipeline.hpp"
#include "durable/durable.hpp"
#include "runtime/trace.hpp"
#include "sbd/text_format.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "suite/figures.hpp"
#include "suite/models.hpp"

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest{0};
std::atomic<std::size_t> g_total{0};
std::atomic<std::size_t> g_count{0};

void note_allocation(std::size_t n) {
    if (!g_tracking.load(std::memory_order_relaxed)) return;
    g_total.fetch_add(n, std::memory_order_relaxed);
    g_count.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
    }
}

} // namespace

// The replaced operator new and delete pair malloc with free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
    note_allocation(n);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace fs = std::filesystem;
using namespace sbd;
using bytes::ByteWriter;

std::size_t g_mutants = 3000;

constexpr std::size_t kSlackBytes = 64 << 10;
constexpr std::size_t kBytesPerInputByte = 128;

std::size_t allocation_bound(std::size_t input_bytes) {
    return kSlackBytes + kBytesPerInputByte * input_bytes;
}

/// Records allocations made while it is alive.
class AllocWindow {
public:
    AllocWindow() {
        g_largest = 0;
        g_total = 0;
        g_count = 0;
        g_tracking = true;
    }
    ~AllocWindow() { g_tracking = false; }
    AllocWindow(const AllocWindow&) = delete;
    AllocWindow& operator=(const AllocWindow&) = delete;

    std::size_t largest() const { return g_largest.load(); }
    std::size_t total() const { return g_total.load(); }
    std::size_t count() const { return g_count.load(); }
};

struct SplitMix {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(next() % n); }
};

/// One to four edits: bit flips, random and boundary bytes, boundary u32
/// and u64 words (where counts and lengths live), truncation, insertion,
/// deletion and duplication of a range.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> m, SplitMix& rng) {
    static constexpr std::uint8_t kBytes[] = {0, 1, 0x7f, 0x80, 0xff};
    static constexpr std::uint64_t kWords[] = {0, 1, 2, 0xff, 0x7fffffff, 0x80000000,
                                               0xffffffff, 1ull << 24, 1ull << 40,
                                               ~0ull};
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t at = rng.below(m.size() + 1);
        switch (rng.below(9)) {
        case 0:
            if (at < m.size()) m[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
            break;
        case 1:
            if (at < m.size()) m[at] = static_cast<std::uint8_t>(rng.next());
            break;
        case 2:
            if (at < m.size()) m[at] = kBytes[rng.below(std::size(kBytes))];
            break;
        case 3:
        case 4: {
            const std::size_t width = rng.below(2) == 0 ? 4 : 8;
            const std::uint64_t w = kWords[rng.below(std::size(kWords))];
            for (std::size_t i = 0; i < width && at + i < m.size(); ++i)
                m[at + i] = static_cast<std::uint8_t>(w >> (8 * i));
            break;
        }
        case 5: m.resize(at); break;
        case 6: {
            const std::size_t n = 1 + rng.below(8);
            for (std::size_t i = 0; i < n; ++i)
                m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                         static_cast<std::uint8_t>(rng.next()));
            break;
        }
        case 7: {
            const std::size_t n = std::min(m.size() - at, 1 + rng.below(16));
            m.erase(m.begin() + static_cast<std::ptrdiff_t>(at),
                    m.begin() + static_cast<std::ptrdiff_t>(at + n));
            break;
        }
        default: {
            const std::size_t n = std::min(m.size() - at, 1 + rng.below(32));
            const std::vector<std::uint8_t> chunk(m.begin() + static_cast<std::ptrdiff_t>(at),
                                                  m.begin() +
                                                      static_cast<std::ptrdiff_t>(at + n));
            m.insert(m.begin() + static_cast<std::ptrdiff_t>(rng.below(m.size() + 1)),
                     chunk.begin(), chunk.end());
            break;
        }
        }
    }
    return m;
}

/// Runs `decode` on g_mutants mutants of the seeds. `decode` returns
/// normally on a valid decode or a coded rejection (it catches the
/// exceptions its decoder documents); anything escaping it fails the test,
/// as does an allocation over the bound or a mutant taking over 5 s.
template <typename Decode>
void fuzz(const char* decoder, const std::vector<std::vector<std::uint8_t>>& seeds,
          std::uint64_t seed, Decode&& decode) {
    ASSERT_FALSE(seeds.empty());
    SplitMix rng{seed};
    for (std::size_t i = 0; i < g_mutants; ++i) {
        const std::vector<std::uint8_t> input = mutate(seeds[i % seeds.size()], rng);
        const auto t0 = std::chrono::steady_clock::now();
        std::size_t largest = 0;
        try {
            AllocWindow window;
            decode(input, rng);
            largest = window.largest();
        } catch (const std::exception& e) {
            FAIL() << decoder << " mutant " << i << " escaped with: " << e.what();
        }
        ASSERT_LE(largest, allocation_bound(input.size()))
            << decoder << " mutant " << i << " of " << input.size() << " bytes";
        ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
            << decoder << " mutant " << i;
    }
}

std::vector<std::uint8_t> bytes_of(const std::string& s) { return {s.begin(), s.end()}; }

void write_file(const fs::path& path, std::span<const std::uint8_t> data) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(data.size()));
}

struct TempDir {
    fs::path path;
    TempDir() {
        static std::size_t counter = 0;
        path = fs::temp_directory_path() /
               ("sbd_fuzz_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
};

/// A thermostat server that never listens for clients: requests go straight
/// to handle_request. A short tick deadline bounds mutated TICK counts.
struct ServedModel {
    std::shared_ptr<const MacroBlock> model = suite::thermostat();
    codegen::CompiledSystem sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);

    serve::ServerConfig config() const {
        serve::ServerConfig cfg;
        cfg.endpoint = serve::Endpoint::parse("tcp:127.0.0.1:0");
        cfg.shards = 2;
        cfg.shard_capacity = 4;
        cfg.tick_deadline_ms = 2;
        cfg.model_source = text::to_sbd(*model);
        return cfg;
    }
};

serve::Frame request(serve::Op op, std::vector<std::uint8_t> payload) {
    serve::Frame f;
    f.opcode = op;
    f.request_id = 1;
    f.payload = std::move(payload);
    return f;
}

/// Valid payloads of every op, addressing `handles`.
std::vector<serve::Frame> valid_requests(const std::vector<serve::WireHandle>& handles,
                                         std::size_t nin, const std::string& source) {
    const auto with_handles = [&](serve::Op op, bool rows) {
        ByteWriter w;
        w.u64(1);
        w.u32(static_cast<std::uint32_t>(handles.size()));
        for (const serve::WireHandle& h : handles) {
            serve::write_handle(w, h);
            for (std::size_t i = 0; rows && i < nin; ++i) w.f64(0.5 * static_cast<double>(i));
        }
        return request(op, w.take());
    };
    std::vector<serve::Frame> out;
    ByteWriter create;
    create.u64(1);
    create.u32(2);
    out.push_back(request(serve::Op::CreateInstances, create.take()));
    out.push_back(with_handles(serve::Op::DestroyInstances, false));
    out.push_back(with_handles(serve::Op::PostInputs, true));
    ByteWriter tick;
    tick.u64(1);
    tick.u32(1);
    out.push_back(request(serve::Op::Tick, tick.take()));
    out.push_back(with_handles(serve::Op::ReadOutputs, false));
    ByteWriter snap;
    snap.u64(1);
    serve::write_handle(snap, handles.front());
    out.push_back(request(serve::Op::Snapshot, snap.take()));
    for (const serve::Op op : {serve::Op::Stats, serve::Op::Shutdown}) {
        ByteWriter tenant;
        tenant.u64(1);
        out.push_back(request(op, tenant.take()));
    }
    ByteWriter upgrade;
    upgrade.u64(1);
    upgrade.u32(0);
    upgrade.str(source);
    out.push_back(request(serve::Op::UpgradeModel, upgrade.take()));
    return out;
}

/// Creates `count` instances for tenant 1; none when the pool is full.
std::vector<serve::WireHandle> create_handles(serve::Server& server, std::uint32_t count) {
    ByteWriter w;
    w.u64(1);
    w.u32(count);
    const serve::Frame resp = server.handle_request(request(serve::Op::CreateInstances, w.take()));
    if (resp.status != serve::Err::Ok) return {};
    bytes::ByteReader r(resp.payload);
    std::vector<serve::WireHandle> handles(r.count(serve::kWireHandleBytes));
    for (serve::WireHandle& h : handles) h = serve::read_handle(r);
    return handles;
}

bool known_status(serve::Err e) {
    return static_cast<std::uint16_t>(e) <= static_cast<std::uint16_t>(serve::Err::DurableFailed);
}

// ---------------------------------------------------------------------------
// Regression: counts read from the input are bounded before allocating

TEST(AllocationBound, OversizedWireCountsAreRejectedBeforeAllocating) {
    // 44-byte frames (32-byte header + tenant + count) claiming 2^24
    // handles and carrying none.
    const ServedModel served;
    serve::Server server(served.sys, served.model, served.config());
    for (const serve::Op op :
         {serve::Op::DestroyInstances, serve::Op::ReadOutputs, serve::Op::PostInputs}) {
        ByteWriter w;
        w.u64(1);
        w.u32(1u << 24);
        serve::Frame f = request(op, w.take());
        const std::vector<std::uint8_t> wire = serve::encode_frame(f);
        ASSERT_EQ(wire.size(), 44u);
        serve::Frame decoded;
        ASSERT_EQ(serve::decode_frame(wire, decoded).status, serve::DecodeStatus::Ok);
        AllocWindow window;
        const serve::Frame resp = server.handle_request(decoded);
        EXPECT_EQ(resp.status, serve::Err::BadPayload) << serve::to_string(op);
        EXPECT_LE(window.largest(), allocation_bound(wire.size())) << serve::to_string(op);
    }
}

TEST(AllocationBound, CraftedTraceHeaderIsRejectedBeforeAllocating) {
    // 32 bytes claiming 4096 instants of 4096 inputs, with no body.
    ByteWriter w;
    w.u32(0x54444253); // "SBDT"
    w.u32(1);
    w.u64(4096);
    w.u64(0);
    w.u64(4096);
    TempDir dir;
    const fs::path path = dir.path / "crafted.sbdt";
    write_file(path, w.view());
    AllocWindow window;
    try {
        (void)runtime::load_trace(path.string());
        ADD_FAILURE() << "a header without its body must be rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "trace: truncated binary file");
    }
    EXPECT_LE(window.total(), allocation_bound(w.view().size()));
}

TEST(AllocationBound, CacheEntryCountsAreBoundedByThePayload) {
    codegen::CacheEntry entry;
    entry.profile.functions.push_back({"f", {}, {}});
    std::vector<std::uint8_t> payload = codegen::serialize_entry(entry);
    ASSERT_TRUE(codegen::deserialize_entry(payload).has_value());
    // Layout: u64 function count, u64 name length, 'f', u64 reads count.
    const std::uint64_t huge = (1ull << 24) - 1;
    std::memcpy(payload.data() + 17, &huge, sizeof huge);
    AllocWindow window;
    EXPECT_FALSE(codegen::deserialize_entry(payload).has_value());
    EXPECT_LE(window.largest(), allocation_bound(payload.size()));
}

/// A durable server's newest checkpoint payload and the journal tail after
/// it, from a deterministic session: create, post and tick up to the
/// checkpoint cadence, then post, destroy, create and tick again.
struct DurableCorpus {
    std::vector<std::uint8_t> checkpoint;
    std::vector<durable::Record> tail;
};

durable::Options durable_options(const fs::path& dir) {
    durable::Options o;
    o.data_dir = dir;
    o.fsync = durable::FsyncMode::Off;
    o.checkpoint_every_ticks = 2;
    return o;
}

DurableCorpus durable_corpus(const ServedModel& served) {
    TempDir dir;
    serve::ServerConfig cfg = served.config();
    cfg.durable = durable_options(dir.path);
    {
        serve::Server server(served.sys, served.model, cfg);
        const std::vector<serve::WireHandle> handles = create_handles(server, 3);
        EXPECT_EQ(handles.size(), 3u);
        if (handles.empty()) return {};
        const auto requests = valid_requests(handles, served.model->num_inputs(), "");
        for (const serve::Op op :
             {serve::Op::PostInputs, serve::Op::Tick, serve::Op::Tick, serve::Op::PostInputs,
              serve::Op::DestroyInstances, serve::Op::CreateInstances, serve::Op::Tick})
            for (const serve::Frame& f : requests)
                if (f.opcode == op) (void)server.handle_request(f);
    }
    durable::Store store(durable_options(dir.path));
    DurableCorpus c;
    const auto loaded = store.checkpoints().load_latest();
    EXPECT_TRUE(loaded.has_value());
    if (!loaded) return c;
    c.checkpoint = loaded->payload;
    c.tail = durable::Journal::scan(dir.path / "journal", loaded->seq).records;
    EXPECT_FALSE(c.tail.empty());
    return c;
}

/// Boots a server on `dir` and recovers it. A store that does not decode
/// is a DurableError or a shorter replay, never anything else.
void recover_from(const ServedModel& served, const fs::path& dir) {
    serve::ServerConfig cfg = served.config();
    cfg.durable = durable_options(dir);
    try {
        serve::Server server(served.sys, served.model, cfg);
        (void)server.recover();
    } catch (const durable::DurableError&) {
    }
}

TEST(AllocationBound, CheckpointCountsAreBoundedByThePayload) {
    const ServedModel served;
    const DurableCorpus corpus = durable_corpus(served);
    ASSERT_FALSE(corpus.checkpoint.empty());
    // Walk the image to the first shard's free-order count: version,
    // source, ticks, next shard, tenants, shard count, capacity.
    bytes::ByteReader r(corpus.checkpoint);
    (void)r.u64();
    (void)r.str();
    (void)r.u64();
    (void)r.u64();
    const std::size_t tenants = r.count(16);
    for (std::size_t i = 0; i < 2 * tenants; ++i) (void)r.u64();
    (void)r.u32();
    (void)r.u32();
    std::vector<std::uint8_t> payload = corpus.checkpoint;
    const std::uint32_t huge = 1u << 24;
    std::memcpy(payload.data() + (payload.size() - r.remaining()), &huge, sizeof huge);

    TempDir dir;
    ASSERT_TRUE(durable::CheckpointStore(durable_options(dir.path)).write(1, payload));
    serve::ServerConfig cfg = served.config();
    cfg.durable = durable_options(dir.path);
    serve::Server server(served.sys, served.model, cfg);
    AllocWindow window;
    EXPECT_THROW((void)server.recover(), durable::DurableError);
    EXPECT_LE(window.largest(), allocation_bound(payload.size()));
}

TEST(CheckpointImage, OutOfRangeNextShardIsRejected) {
    // The placement cursor indexes the shard array on the next CREATE,
    // replayed or live; a checkpoint may not point it past the shards.
    const ServedModel served;
    const DurableCorpus corpus = durable_corpus(served);
    ASSERT_FALSE(corpus.checkpoint.empty());
    bytes::ByteReader r(corpus.checkpoint);
    (void)r.u64();
    (void)r.str();
    (void)r.u64();
    std::vector<std::uint8_t> payload = corpus.checkpoint;
    const std::uint64_t next_shard = 7;
    std::memcpy(payload.data() + (payload.size() - r.remaining()), &next_shard,
                sizeof next_shard);
    TempDir dir;
    const durable::Options opts = durable_options(dir.path);
    ASSERT_TRUE(durable::CheckpointStore(opts).write(0, payload));
    {
        durable::Journal j(opts);
        ByteWriter create;
        create.u64(1);
        create.u32(1);
        j.append(durable::RecordKind::Create, create.view());
    }
    serve::ServerConfig cfg = served.config();
    cfg.durable = opts;
    serve::Server server(served.sys, served.model, cfg);
    EXPECT_THROW((void)server.recover(), durable::DurableError);
}

TEST(CheckpointImage, OutOfRangeGuardCounterIsRejected) {
    // A checksummed checkpoint may still carry a guard counter outside
    // [0, mod); recovery must refuse it rather than convert it to int.
    const ServedModel served;
    const codegen::CodeUnit& code = *served.sys.root().code;
    ASSERT_FALSE(code.counter_mods.empty());
    const DurableCorpus corpus = durable_corpus(served);
    ASSERT_FALSE(corpus.checkpoint.empty());
    // Walk the image to the first live instance's state blob.
    bytes::ByteReader r(corpus.checkpoint);
    (void)r.u64();
    (void)r.str();
    (void)r.u64();
    (void)r.u64();
    const std::size_t tenants = r.count(16);
    for (std::size_t i = 0; i < 2 * tenants; ++i) (void)r.u64();
    std::size_t blob_at = 0;
    for (std::uint32_t shards = r.u32(); shards > 0 && blob_at == 0; --shards) {
        const std::uint32_t cap = r.u32();
        for (std::size_t n = r.count(4); n > 0; --n) (void)r.u32();
        const std::size_t live = r.count(4);
        for (std::size_t n = live; n > 0; --n) (void)r.u32();
        for (std::uint32_t n = cap; n > 0; --n) (void)r.u32();
        for (std::size_t n = live; n > 0; --n) (void)r.u64();
        if (live == 0) continue;
        ASSERT_GT(r.count(sizeof(double)), code.num_slots);
        blob_at = corpus.checkpoint.size() - r.remaining();
    }
    ASSERT_NE(blob_at, 0u);

    const std::size_t counter_at = blob_at + code.num_slots * sizeof(double);
    const auto recover = [&](const std::vector<std::uint8_t>& payload) {
        TempDir dir;
        EXPECT_TRUE(durable::CheckpointStore(durable_options(dir.path)).write(1, payload));
        serve::ServerConfig cfg = served.config();
        cfg.durable = durable_options(dir.path);
        serve::Server server(served.sys, served.model, cfg);
        (void)server.recover();
    };
    double counter = -1;
    std::memcpy(&counter, corpus.checkpoint.data() + counter_at, sizeof counter);
    const double mod = code.counter_mods[0];
    ASSERT_TRUE(counter >= 0 && counter < mod) << counter;
    EXPECT_NO_THROW(recover(corpus.checkpoint));
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.5, -1.0, mod, 1e30}) {
        std::vector<std::uint8_t> payload = corpus.checkpoint;
        std::memcpy(payload.data() + counter_at, &bad, sizeof bad);
        EXPECT_THROW(recover(payload), durable::DurableError) << "counter " << bad;
    }
}

TEST(AllocationBound, InterpInstanceAllocationsDoNotGrowWithTheTree) {
    // An interpreter instance keeps its whole tree in one state vector and
    // one frame table: a 16-stage chain costs as many allocations as a
    // 2-stage one.
    const auto allocations = [](std::size_t stages) {
        const auto m = suite::figure4_chain(stages);
        const codegen::CompiledSystem sys = codegen::compile_hierarchy(m, codegen::Method::Dynamic);
        AllocWindow window;
        const codegen::InterpInstance inst(sys, m);
        return window.count();
    };
    EXPECT_EQ(allocations(16), allocations(2));
}

// ---------------------------------------------------------------------------
// Mutation fuzzing, one test per decoder

TEST(Fuzz, DecodeFrame) {
    std::vector<std::vector<std::uint8_t>> seeds;
    for (const serve::Frame& f : valid_requests({{0, 0, 1}, {1, 0, 1}}, 2, "model M {}"))
        seeds.push_back(serve::encode_frame(f));
    fuzz("decode_frame", seeds, 101, [](std::vector<std::uint8_t> in, SplitMix& rng) {
        // Half the mutants get their checksum recomputed, so payload and
        // length edits reach past the checksum check.
        if (rng.below(2) == 0 && in.size() >= serve::kHeaderSize) {
            std::uint32_t len = 0;
            std::memcpy(&len, in.data() + 12, 4);
            if (len <= in.size() - serve::kHeaderSize) {
                const std::uint64_t check =
                    bytes::fnv1a64({in.data() + serve::kHeaderSize, len});
                std::memcpy(in.data() + 24, &check, 8);
            }
        }
        serve::Frame out;
        const serve::DecodeResult r = serve::decode_frame(in, out);
        if (r.status == serve::DecodeStatus::Ok) {
            EXPECT_EQ(r.consumed, serve::kHeaderSize + out.payload.size());
            EXPECT_LE(r.consumed, in.size());
        } else {
            EXPECT_EQ(r.consumed, 0u);
        }
    });
}

TEST(Fuzz, HandleRequest) {
    const ServedModel served;
    serve::Server server(served.sys, served.model, served.config());
    const std::vector<serve::WireHandle> handles = create_handles(server, 2);
    ASSERT_EQ(handles.size(), 2u);
    const std::size_t nin = served.model->num_inputs();
    std::vector<std::vector<std::uint8_t>> seeds;
    std::vector<serve::Op> ops;
    for (const serve::Frame& f : valid_requests(handles, nin, served.config().model_source)) {
        seeds.push_back(f.payload);
        ops.push_back(f.opcode);
    }
    std::size_t i = 0;
    fuzz("handle_request", seeds, 202, [&](std::vector<std::uint8_t> in, SplitMix& rng) {
        // Mostly the op the seed was built for; sometimes any opcode.
        const auto op = rng.below(8) == 0 ? static_cast<serve::Op>(rng.below(11))
                                          : ops[i % ops.size()];
        ++i;
        const serve::Frame resp = server.handle_request(request(op, std::move(in)));
        EXPECT_TRUE(known_status(resp.status));
        EXPECT_EQ(resp.request_id, 1u);
        // Keep live instances around for the handle-carrying seeds.
        if (rng.below(16) == 0) (void)create_handles(server, 1);
    });
}

TEST(Fuzz, JournalScanAndRepair) {
    TempDir seed_dir;
    {
        durable::Journal j(durable_options(seed_dir.path));
        j.append(durable::RecordKind::Create, bytes_of("create-payload"));
        j.append(durable::RecordKind::Tick, {});
        j.append(durable::RecordKind::PostInputs, bytes_of("post"));
        j.append(durable::RecordKind::Upgrade, bytes_of("model M {}"));
    }
    const fs::path segment = seed_dir.path / "journal" / "wal-0000000000000001.sbdj";
    const std::vector<std::vector<std::uint8_t>> seeds = {*bytes::read_file(segment)};
    fuzz("journal", seeds, 303, [&](const std::vector<std::uint8_t>& in, SplitMix&) {
        TempDir dir;
        const fs::path jdir = dir.path / "journal";
        fs::create_directories(jdir);
        write_file(jdir / segment.filename(), in);
        const durable::ScanResult scan = durable::Journal::scan(jdir);
        EXPECT_LE(scan.records.size(), in.size() / 24);
        // Opening repairs: truncates a torn tail, then appends after it.
        durable::Journal j(durable_options(dir.path));
        EXPECT_EQ(j.append(durable::RecordKind::Tick, {}), scan.last_seq + 1);
    });
}

TEST(Fuzz, CheckpointRestoreAndReplay) {
    const ServedModel served;
    const DurableCorpus corpus = durable_corpus(served);
    ASSERT_FALSE(corpus.checkpoint.empty());
    // Seed 0 is the checkpoint image; the others are the journal tail's
    // payloads. Mutants go to disk either sealed (written through the
    // store, so the envelope is valid and the payload reaches the server's
    // decoders) or raw (the checkpoint file's own bytes mutated). The
    // checkpoint is written as seq 0, so every journal record replays.
    std::vector<std::vector<std::uint8_t>> seeds = {corpus.checkpoint};
    for (const durable::Record& rec : corpus.tail) seeds.push_back(rec.payload);
    const std::string name = bytes::seq_file_name("ckpt-", 0, ".sbdk");
    std::vector<std::uint8_t> sealed;
    {
        TempDir dir;
        durable::CheckpointStore store(durable_options(dir.path));
        ASSERT_TRUE(store.write(0, corpus.checkpoint));
        sealed = *bytes::read_file(dir.path / name);
    }
    std::size_t i = 0;
    fuzz("checkpoint", seeds, 404, [&](const std::vector<std::uint8_t>& in, SplitMix& rng) {
        const std::size_t which = i++ % seeds.size();
        TempDir dir;
        const durable::Options opts = durable_options(dir.path);
        if (which == 0 && rng.below(2) == 0)
            write_file(dir.path / name, mutate(sealed, rng));
        else
            ASSERT_TRUE(
                durable::CheckpointStore(opts).write(0, which == 0 ? in : corpus.checkpoint));
        {
            durable::Journal j(opts);
            for (std::size_t k = 0; k < corpus.tail.size(); ++k)
                j.append(corpus.tail[k].kind, k + 1 == which ? in : corpus.tail[k].payload);
        }
        recover_from(served, dir.path);
    });
}

TEST(Fuzz, DeserializeCacheEntry) {
    codegen::Pipeline pipeline{codegen::PipelineOptions{}};
    std::vector<std::vector<std::uint8_t>> seeds;
    for (const auto& m : {suite::thermostat(), suite::fuel_controller()}) {
        const codegen::CompiledSystem sys = pipeline.compile(m);
        const codegen::CompiledBlock& cb = sys.root();
        codegen::CacheEntry entry;
        entry.profile = cb.profile;
        entry.sdg = cb.sdg;
        entry.clustering = cb.clustering;
        entry.code = cb.code;
        seeds.push_back(codegen::serialize_entry(entry));
    }
    fuzz("deserialize_entry", seeds, 505, [](const std::vector<std::uint8_t>& in, SplitMix&) {
        // Whatever decodes must encode to something that decodes again.
        if (const auto e = codegen::deserialize_entry(in)) {
            EXPECT_TRUE(codegen::deserialize_entry(codegen::serialize_entry(*e)).has_value());
        }
    });
}

TEST(Fuzz, LoadTrace) {
    runtime::Trace t;
    t.num_inputs = 2;
    t.num_outputs = 1;
    t.inputs = {{0.0, -0.0}, {1.5, 2.5}, {3.0, -4.0}};
    t.outputs = {{1.0}, {-2.0}, {0.25}};
    TempDir seed_dir;
    std::vector<std::vector<std::uint8_t>> seeds;
    for (const char* name : {"t.sbdt", "t.csv"}) {
        runtime::save_trace(t, (seed_dir.path / name).string());
        seeds.push_back(*bytes::read_file(seed_dir.path / name));
    }
    TempDir dir;
    const std::string path = (dir.path / "mutant").string();
    fuzz("load_trace", seeds, 606, [&](const std::vector<std::uint8_t>& in, SplitMix&) {
        write_file(path, in);
        try {
            const runtime::Trace got = runtime::load_trace(path);
            EXPECT_EQ(got.inputs.size(), got.outputs.size());
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind("trace: ", 0), 0u) << e.what();
        }
    });
}

TEST(Fuzz, ParseSbdSource) {
    std::vector<fs::path> models;
    for (const auto& e : fs::directory_iterator(SBD_MODELS_DIR))
        if (e.path().extension() == ".sbd") models.push_back(e.path());
    std::sort(models.begin(), models.end()); // directory order is unspecified
    std::vector<std::vector<std::uint8_t>> seeds;
    for (const fs::path& m : models) seeds.push_back(*bytes::read_file(m));
    fuzz("parse_sbd_string", seeds, 707, [](const std::vector<std::uint8_t>& in, SplitMix&) {
        try {
            (void)text::parse_sbd_string(std::string(in.begin(), in.end()));
        } catch (const ModelError&) {
        }
    });
}

} // namespace

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--mutants") g_mutants = std::stoul(argv[i + 1]);
    return RUN_ALL_TESTS();
}
