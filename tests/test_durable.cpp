// Crash-safe serving: the durable store (write-ahead journal + checkpoint
// files), boot-time recovery, and the fork/SIGKILL crash-chaos harness.
//
// The harness is the tentpole gate: it boots the real sbd-serve binary on a
// durable data dir, drives a deterministic session against it, SIGKILLs it
// at a random point (including mid-append and mid-checkpoint via directed
// fault plans), recovers the store in-process and proves that
//
//   * no acked tick is ever lost (recovered_ticks >= acked ticks), and
//   * the recovered state is bit-identical to an uninterrupted oracle run
//     of the same prefix (instance state and output rows compared with
//     memcmp; input rows are excluded because a journaled-but-unacked
//     trailing POST_INPUTS may legitimately be one row ahead).
//
// Run count is environment-tunable: SBD_DURABLE_CRASH_RUNS (default 200
// random-kill runs) on top of the directed fault-plan runs and the
// native-backend and live-upgrade runs.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/bytes.hpp"
#include "core/compiler.hpp"
#include "core/fsio.hpp"
#include "durable/durable.hpp"
#include "helpers.hpp"
#include "resilience/fault.hpp"
#include "sbd/library.hpp"
#include "sbd/text_format.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite/models.hpp"
#include "upgrade/upgrade.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sbd;
using durable::DurableError;
using durable::FsyncMode;
using durable::Journal;
using durable::Record;
using durable::RecordKind;
using durable::ScanResult;

struct TempDir {
    fs::path path;
    TempDir() {
        path = fs::temp_directory_path() /
               ("sbd_durable_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    static std::size_t& counter() {
        static std::size_t c = 0;
        return c;
    }
};

durable::Options opts_for(const fs::path& dir, FsyncMode mode = FsyncMode::Off) {
    durable::Options o;
    o.data_dir = dir;
    o.fsync = mode;
    return o;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// fsio (the shared fsync helper the cache, the native artifact store and the
// durable store all publish through)

TEST(Fsio, WriteFileDurableRoundTrip) {
    TempDir dir;
    const fs::path final_path = dir.path / "out.bin";
    const fs::path tmp_path = dir.path / "out.tmp";
    const std::vector<std::uint8_t> payload = bytes_of("durable payload");
    ASSERT_TRUE(fsio::write_file_durable(final_path, tmp_path, payload));
    EXPECT_FALSE(fs::exists(tmp_path)) << "temp file must not survive a publish";
    std::ifstream in(final_path, std::ios::binary);
    std::string got((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_of(got), payload);
}

TEST(Fsio, PublishFailsIntoMissingDirectory) {
    TempDir dir;
    const fs::path tmp_path = dir.path / "t.tmp";
    std::ofstream(tmp_path) << "x";
    EXPECT_FALSE(fsio::publish_file_durable(tmp_path, dir.path / "no" / "such" / "dir" / "f"));
    EXPECT_TRUE(fs::exists(tmp_path)) << "a failed publish leaves the temp file for the caller";
}

TEST(Fsio, Fnv1a64IsResumable) {
    const auto all = bytes_of("hello, journal");
    const std::span<const std::uint8_t> head(all.data(), 5);
    const std::span<const std::uint8_t> tail(all.data() + 5, all.size() - 5);
    EXPECT_EQ(bytes::fnv1a64(all), bytes::fnv1a64(tail, bytes::fnv1a64(head)));
    EXPECT_NE(bytes::fnv1a64(bytes_of("a")), bytes::fnv1a64(bytes_of("b")));
}

// ---------------------------------------------------------------------------
// Journal

TEST(DurableJournal, AppendScanRoundTrip) {
    TempDir dir;
    const auto opts = opts_for(dir.path);
    {
        Journal j(opts);
        EXPECT_EQ(j.append(RecordKind::Create, bytes_of("c0")), 1u);
        EXPECT_EQ(j.append(RecordKind::Tick, {}), 2u);
        EXPECT_EQ(j.append(RecordKind::PostInputs, bytes_of("rows")), 3u);
        j.sync();
    }
    const ScanResult scan = Journal::scan(opts.journal_dir());
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_FALSE(scan.torn);
    EXPECT_EQ(scan.last_seq, 3u);
    EXPECT_EQ(scan.records[0].kind, RecordKind::Create);
    EXPECT_EQ(scan.records[0].payload, bytes_of("c0"));
    EXPECT_EQ(scan.records[1].kind, RecordKind::Tick);
    EXPECT_TRUE(scan.records[1].payload.empty());
    EXPECT_EQ(scan.records[2].seq, 3u);

    // from_seq filters strictly-greater records.
    EXPECT_EQ(Journal::scan(opts.journal_dir(), 2).records.size(), 1u);
    EXPECT_EQ(Journal::scan(opts.journal_dir(), 3).records.size(), 0u);
}

TEST(DurableJournal, SegmentBytesMatchGolden) {
    // One record of each kind, payloads in their SBDS request layouts
    // (written out byte by byte so the pin does not depend on any codec).
    const std::vector<std::pair<RecordKind, std::vector<std::uint8_t>>> records = {
        {RecordKind::Create, {7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}},
        {RecordKind::Destroy,
         {7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0}},
        {RecordKind::PostInputs,
         {7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
          0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f}},
        {RecordKind::Tick, {}},
        {RecordKind::Upgrade, {1, 0, 0, 0, 3, 0, 0, 0, 'a', 'b', 'c'}},
    };
    TempDir dir;
    const auto opts = opts_for(dir.path);
    {
        Journal j(opts);
        for (const auto& [kind, payload] : records) j.append(kind, payload);
    }
    const fs::path segment = opts.journal_dir() / "wal-0000000000000001.sbdj";
    sbd::testing::expect_matches_golden(SBD_GOLDEN_DIR, "journal_segment.sbdj.bin",
                                        sbd::testing::read_bytes(segment));
    const ScanResult scan =
        Journal::scan(fs::path(SBD_GOLDEN_DIR) / "journal_segment.sbdj.bin");
    ASSERT_EQ(scan.records.size(), records.size());
    EXPECT_FALSE(scan.torn);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(scan.records[i].seq, i + 1);
        EXPECT_EQ(scan.records[i].kind, records[i].first);
        EXPECT_EQ(scan.records[i].payload, records[i].second);
    }
}

TEST(DurableJournal, ReopenContinuesTheSequence) {
    TempDir dir;
    const auto opts = opts_for(dir.path);
    {
        Journal j(opts);
        j.append(RecordKind::Tick, {});
        j.append(RecordKind::Tick, {});
    }
    {
        Journal j(opts);
        EXPECT_EQ(j.next_seq(), 3u);
        EXPECT_EQ(j.append(RecordKind::Destroy, bytes_of("d")), 3u);
    }
    const ScanResult scan = Journal::scan(opts.journal_dir());
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[2].kind, RecordKind::Destroy);
}

TEST(DurableJournal, RotatesSegmentsAndScansAcrossThem) {
    TempDir dir;
    auto opts = opts_for(dir.path);
    opts.segment_bytes = 128; // force rotation every few records
    {
        Journal j(opts);
        for (int i = 0; i < 32; ++i) j.append(RecordKind::Tick, bytes_of("payload"));
    }
    const ScanResult scan = Journal::scan(opts.journal_dir());
    EXPECT_GT(scan.segments, 3u);
    ASSERT_EQ(scan.records.size(), 32u);
    for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(scan.records[i].seq, i + 1);
}

TEST(DurableJournal, TruncateUntilDropsSealedSegmentsOnly) {
    TempDir dir;
    auto opts = opts_for(dir.path);
    opts.segment_bytes = 128;
    Journal j(opts);
    for (int i = 0; i < 32; ++i) j.append(RecordKind::Tick, bytes_of("payload"));
    const std::size_t before = Journal::scan(opts.journal_dir()).segments;
    ASSERT_GT(before, 2u);
    j.truncate_until(30);
    const ScanResult scan = Journal::scan(opts.journal_dir());
    EXPECT_LT(scan.segments, before);
    // Everything after seq 30 must still be there; earlier whole segments
    // may be gone, but records are never cut mid-segment.
    ASSERT_FALSE(scan.records.empty());
    EXPECT_EQ(scan.last_seq, 32u);
    std::uint64_t prev = scan.records.front().seq;
    EXPECT_LE(prev, 31u);
    for (std::size_t i = 1; i < scan.records.size(); ++i) {
        EXPECT_EQ(scan.records[i].seq, prev + 1);
        prev = scan.records[i].seq;
    }
}

TEST(DurableJournal, TornTailIsTruncatedOnOpen) {
    TempDir dir;
    const auto opts = opts_for(dir.path);
    fs::path segment;
    {
        Journal j(opts);
        j.append(RecordKind::Create, bytes_of("keep me"));
        j.append(RecordKind::Tick, {});
        segment = *fs::directory_iterator(opts.journal_dir());
    }
    // Simulate a crash mid-append: garbage half-record at the tail.
    {
        std::ofstream out(segment, std::ios::binary | std::ios::app);
        out.write("\x07\x00\x00\x00garbage", 11);
    }
    // A read-only scan reports the tear without touching the file.
    const auto dirty = Journal::scan(opts.journal_dir());
    EXPECT_TRUE(dirty.torn);
    EXPECT_EQ(dirty.records.size(), 2u);
    EXPECT_GT(dirty.torn_bytes, 0u);

    // Re-opening repairs: the tail is truncated and appends continue.
    {
        Journal j(opts);
        EXPECT_EQ(j.next_seq(), 3u);
        j.append(RecordKind::Destroy, bytes_of("after repair"));
    }
    const auto clean = Journal::scan(opts.journal_dir());
    EXPECT_FALSE(clean.torn);
    ASSERT_EQ(clean.records.size(), 3u);
    EXPECT_EQ(clean.records[2].payload, bytes_of("after repair"));
}

TEST(DurableJournal, CorruptRecordStopsTheScanAndDropsLaterSegments) {
    TempDir dir;
    auto opts = opts_for(dir.path);
    opts.segment_bytes = 96; // several segments
    std::vector<fs::path> segments;
    {
        Journal j(opts);
        for (int i = 0; i < 16; ++i) j.append(RecordKind::Tick, bytes_of("abcdefgh"));
    }
    for (const auto& e : fs::directory_iterator(opts.journal_dir()))
        segments.push_back(e.path());
    std::sort(segments.begin(), segments.end());
    ASSERT_GT(segments.size(), 2u);
    // Flip one payload byte in the middle of the *first* segment.
    {
        std::fstream f(segments.front(), std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(fs::file_size(segments.front())) / 2);
        f.put('\xff');
    }
    const ScanResult scan = Journal::scan(opts.journal_dir());
    EXPECT_TRUE(scan.torn);
    EXPECT_GT(scan.dropped_segments, 0u) << "segments past the corruption are unreachable";
    EXPECT_LT(scan.records.size(), 16u);
    // The valid prefix is still contiguous from seq 1.
    for (std::size_t i = 0; i < scan.records.size(); ++i)
        EXPECT_EQ(scan.records[i].seq, i + 1);
    // Repair-on-open keeps exactly that prefix and serves new appends.
    Journal j(opts);
    EXPECT_EQ(j.next_seq(), scan.last_seq + 1);
}

TEST(DurableJournal, InjectedAppendFaultThrowsAndLeavesJournalUsable) {
    TempDir dir;
    const auto opts = opts_for(dir.path, FsyncMode::Always);
    Journal j(opts);
    j.append(RecordKind::Tick, {});
    {
        resilience::ScopedFaultPlan armed(
            resilience::FaultPlan::parse("seed=7;durable.append=nth:1"));
        EXPECT_THROW(j.append(RecordKind::Tick, {}), DurableError);
    }
    // The failed append must not have burned a sequence number or left
    // partial bytes behind.
    EXPECT_EQ(j.append(RecordKind::Tick, {}), 2u);
    const ScanResult scan = Journal::scan(opts.journal_dir());
    EXPECT_FALSE(scan.torn);
    EXPECT_EQ(scan.records.size(), 2u);
}

TEST(DurableJournal, InjectedFsyncFaultThrowsInAlwaysMode) {
    TempDir dir;
    Journal j(opts_for(dir.path, FsyncMode::Always));
    resilience::ScopedFaultPlan armed(
        resilience::FaultPlan::parse("seed=7;durable.fsync=nth:1"));
    EXPECT_THROW(j.append(RecordKind::Tick, {}), DurableError);
}

// ---------------------------------------------------------------------------
// Checkpoints

TEST(DurableCheckpoint, WriteLoadRetain) {
    TempDir dir;
    const auto opts = opts_for(dir.path);
    durable::CheckpointStore cs(opts);
    EXPECT_FALSE(cs.load_latest().has_value());
    ASSERT_TRUE(cs.write(10, bytes_of("v10")));
    ASSERT_TRUE(cs.write(20, bytes_of("v20")));
    ASSERT_TRUE(cs.write(30, bytes_of("v30")));
    const auto loaded = cs.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->seq, 30u);
    EXPECT_EQ(loaded->payload, bytes_of("v30"));
    EXPECT_EQ(loaded->fallbacks, 0u);
    cs.retain(2);
    std::size_t ckpts = 0;
    for (const auto& e : fs::directory_iterator(dir.path))
        if (e.path().extension() == ".sbdk") ++ckpts;
    EXPECT_EQ(ckpts, 2u);
}

TEST(DurableCheckpoint, CorruptNewestFallsBackToPrevious) {
    TempDir dir;
    const auto opts = opts_for(dir.path);
    durable::CheckpointStore cs(opts);
    ASSERT_TRUE(cs.write(10, bytes_of("good old")));
    ASSERT_TRUE(cs.write(20, bytes_of("bad new")));
    // Corrupt the newest checkpoint's payload in place.
    fs::path newest;
    for (const auto& e : fs::directory_iterator(dir.path))
        if (e.path().extension() == ".sbdk" && (newest.empty() || e.path() > newest))
            newest = e.path();
    ASSERT_FALSE(newest.empty());
    {
        std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(-3, std::ios::end);
        f.put('\xee');
    }
    const auto loaded = cs.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->seq, 10u);
    EXPECT_EQ(loaded->payload, bytes_of("good old"));
    EXPECT_EQ(loaded->fallbacks, 1u);
}

TEST(DurableCheckpoint, InjectedRecoverFaultFallsBack) {
    TempDir dir;
    durable::CheckpointStore cs(opts_for(dir.path));
    ASSERT_TRUE(cs.write(5, bytes_of("only")));
    resilience::ScopedFaultPlan armed(
        resilience::FaultPlan::parse("seed=7;durable.recover=nth:1"));
    const auto loaded = cs.load_latest();
    // The single checkpoint was rejected by the injected fault: recovery
    // degrades to journal-only replay, never to a crash.
    EXPECT_FALSE(loaded.has_value());
}

TEST(DurableCheckpoint, InjectedCheckpointFaultIsAbsorbed) {
    TempDir dir;
    durable::CheckpointStore cs(opts_for(dir.path));
    resilience::ScopedFaultPlan armed(
        resilience::FaultPlan::parse("seed=7;durable.checkpoint=nth:1"));
    EXPECT_FALSE(cs.write(5, bytes_of("dropped")));
    EXPECT_TRUE(cs.write(6, bytes_of("kept")));
    const auto loaded = cs.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->seq, 6u);
}

// ---------------------------------------------------------------------------
// Server-level recovery (in-process): deterministic round trips

serve::ServerConfig durable_server_config(const fs::path& data_dir, const std::string& source,
                                          FsyncMode mode = FsyncMode::Always,
                                          std::uint64_t ckpt_every = 4) {
    serve::ServerConfig cfg;
    cfg.endpoint = serve::Endpoint::parse("tcp:127.0.0.1:0");
    cfg.shards = 2;
    cfg.shard_capacity = 4;
    upgrade::CompileContext uctx;
    cfg.upgrade = std::move(uctx);
    cfg.model_source = source;
    durable::Options dopts;
    dopts.data_dir = data_dir;
    dopts.fsync = mode;
    dopts.checkpoint_every_ticks = ckpt_every;
    cfg.durable = dopts;
    return cfg;
}

/// Runs a deterministic session (create, post+tick loop, optional upgrade,
/// partial destroy) against `server` and returns per-handle snapshots.
struct SessionResult {
    std::vector<serve::WireHandle> handles;
    std::vector<std::vector<double>> snapshots;
    std::vector<double> outputs;
    std::uint64_t ticks = 0;
};

SessionResult run_session(serve::Server& server, const BlockPtr& model,
                          const std::string& upgrade_source = "") {
    serve::Client client = serve::Client::connect(server.endpoint());
    SessionResult r;
    r.handles = client.create_instances(1, 3);
    std::vector<double> row(model->num_inputs());
    for (std::uint64_t t = 0; t < 9; ++t) {
        for (std::size_t j = 0; j < row.size(); ++j)
            row[j] = 0.25 * static_cast<double>(t) + static_cast<double>(j);
        for (const serve::WireHandle& h : r.handles) {
            const serve::WireHandle one[] = {h};
            client.post_inputs(1, one, row);
        }
        (void)client.tick(1, 1);
        if (t == 4 && !upgrade_source.empty()) (void)client.upgrade_model(1, upgrade_source);
    }
    // Churn: destroy one instance so the recovered free/live lists are
    // non-trivial.
    const serve::WireHandle victim[] = {r.handles.back()};
    client.destroy_instances(1, victim);
    r.handles.pop_back();
    for (const serve::WireHandle& h : r.handles) r.snapshots.push_back(client.snapshot(1, h));
    r.outputs = client.read_outputs(1, r.handles);
    r.ticks = server.ticks();
    return r;
}

void expect_bitexact(const SessionResult& before, serve::Server& recovered) {
    recovered.start();
    serve::Client client = serve::Client::connect(recovered.endpoint());
    for (std::size_t i = 0; i < before.handles.size(); ++i) {
        const std::vector<double> snap = client.snapshot(1, before.handles[i]);
        ASSERT_EQ(snap.size(), before.snapshots[i].size());
        EXPECT_EQ(std::memcmp(snap.data(), before.snapshots[i].data(),
                              snap.size() * sizeof(double)),
                  0)
            << "instance " << i << " state diverged after recovery";
    }
    const std::vector<double> outs = client.read_outputs(1, before.handles);
    ASSERT_EQ(outs.size(), before.outputs.size());
    EXPECT_EQ(std::memcmp(outs.data(), before.outputs.data(), outs.size() * sizeof(double)),
              0);
}

TEST(DurableRecovery, CleanShutdownRoundTripWithCheckpoints) {
    TempDir dir;
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*model);
    const auto cfg = durable_server_config(dir.path / "data", source);
    SessionResult before;
    {
        serve::Server server(sys, model, cfg);
        server.start();
        before = run_session(server, model);
    }
    serve::Server recovered(sys, model, cfg);
    const serve::RecoveryStats rs = recovered.recover();
    EXPECT_TRUE(rs.recovered);
    EXPECT_FALSE(rs.replay_aborted);
    EXPECT_EQ(rs.recovered_ticks, before.ticks);
    EXPECT_EQ(rs.live_instances, before.handles.size());
    EXPECT_GT(rs.checkpoint_seq, 0u) << "cadence 4 with 9 ticks must have checkpointed";
    expect_bitexact(before, recovered);
}

TEST(DurableRecovery, CheckpointFileBytesMatchGolden) {
    // Pins both layers of a checkpoint file: the SBDK envelope and the
    // server's state image inside it, after a deterministic session.
    TempDir dir;
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*model);
    const auto cfg = durable_server_config(dir.path / "data", source, FsyncMode::Off);
    std::vector<std::uint8_t> newest;
    {
        serve::Server server(sys, model, cfg);
        server.start();
        (void)run_session(server, model);
        fs::path latest;
        for (const auto& e : fs::directory_iterator(dir.path / "data"))
            if (e.path().extension() == ".sbdk" && e.path() > latest) latest = e.path();
        ASSERT_FALSE(latest.empty());
        EXPECT_EQ(latest.filename(), "ckpt-0000000000000021.sbdk");
        newest = sbd::testing::read_bytes(latest);
    }
    sbd::testing::expect_matches_golden(SBD_GOLDEN_DIR, "checkpoint.sbdk.bin", newest);
}

TEST(DurableRecovery, JournalOnlyReplayWhenCheckpointsDisabled) {
    TempDir dir;
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*model);
    const auto cfg =
        durable_server_config(dir.path / "data", source, FsyncMode::Always, /*ckpt_every=*/0);
    SessionResult before;
    {
        serve::Server server(sys, model, cfg);
        server.start();
        before = run_session(server, model);
    }
    serve::Server recovered(sys, model, cfg);
    const serve::RecoveryStats rs = recovered.recover();
    EXPECT_EQ(rs.checkpoint_seq, 0u);
    EXPECT_EQ(rs.recovered_ticks, before.ticks);
    EXPECT_GE(rs.replayed_ticks, before.ticks) << "everything must come from the journal";
    expect_bitexact(before, recovered);
}

TEST(DurableRecovery, BatchFsyncModeRecoversACompleteSession) {
    // Batch mode may lose the un-synced tail on a *crash*; on a clean
    // shutdown the Store destructor drains, so nothing is lost.
    TempDir dir;
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*model);
    const auto cfg = durable_server_config(dir.path / "data", source, FsyncMode::Batch);
    SessionResult before;
    {
        serve::Server server(sys, model, cfg);
        server.start();
        before = run_session(server, model);
    }
    serve::Server recovered(sys, model, cfg);
    const serve::RecoveryStats rs = recovered.recover();
    EXPECT_EQ(rs.recovered_ticks, before.ticks);
    expect_bitexact(before, recovered);
}

TEST(DurableRecovery, RecoversAcrossALiveUpgrade) {
    TempDir dir;
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*model);
    // v2 = v1 plus an appended state-bearing sub: same root interface, so
    // the live migration is a copy + init, not a drain.
    const auto& m = static_cast<const MacroBlock&>(*model);
    std::vector<std::string> ins, outs;
    for (std::size_t i = 0; i < m.num_inputs(); ++i) ins.push_back(m.input_name(i));
    for (std::size_t o = 0; o < m.num_outputs(); ++o) outs.push_back(m.output_name(o));
    auto v2 = std::make_shared<MacroBlock>(m.type_name(), std::move(ins), std::move(outs));
    for (std::size_t s = 0; s < m.num_subs(); ++s) {
        const auto& sub = m.sub(s);
        const auto id = v2->add_sub(sub.name, sub.type);
        if (sub.trigger) v2->set_trigger(id, *sub.trigger);
    }
    for (const Connection& conn : m.connections()) v2->connect(conn.src, conn.dst);
    v2->add_sub("DurAdded", lib::unit_delay(1.5));
    v2->connect(m.input_name(0), "DurAdded.u");
    v2->validate();
    const std::string source_v2 = text::to_sbd(*v2);

    const auto cfg = durable_server_config(dir.path / "data", source);
    SessionResult before;
    {
        serve::Server server(sys, model, cfg);
        server.start();
        before = run_session(server, model, source_v2);
        EXPECT_EQ(server.model_version(), 2u);
    }
    serve::Server recovered(sys, model, cfg);
    const serve::RecoveryStats rs = recovered.recover();
    EXPECT_FALSE(rs.replay_aborted);
    EXPECT_EQ(rs.recovered_version, 2u) << "the journaled upgrade must replay";
    EXPECT_EQ(rs.recovered_ticks, before.ticks);
    expect_bitexact(before, recovered);
}

TEST(DurableRecovery, BootConfigMismatchIsACodedError) {
    TempDir dir;
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*model);
    const auto cfg = durable_server_config(dir.path / "data", source);
    {
        serve::Server server(sys, model, cfg);
        server.start();
        (void)run_session(server, model);
    }
    // Restart with a different shard count: the checkpoint cannot be laid
    // onto this topology; the failure must be the coded DurableError, not a
    // crash or silent partial restore.
    auto bad = cfg;
    bad.shards = 3;
    serve::Server recovered(sys, model, bad);
    EXPECT_THROW((void)recovered.recover(), DurableError);
}

TEST(DurableRecovery, EmptyDataDirRecoversToNothing) {
    TempDir dir;
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const auto cfg = durable_server_config(dir.path / "data", text::to_sbd(*model));
    serve::Server server(sys, model, cfg);
    const serve::RecoveryStats rs = server.recover();
    EXPECT_FALSE(rs.recovered);
    EXPECT_EQ(rs.recovered_ticks, 0u);
    EXPECT_EQ(rs.live_instances, 0u);
}

// ---------------------------------------------------------------------------
// Crash-chaos harness: exec the real daemon, SIGKILL it, prove recovery.

#ifndef SBD_SERVE_BIN
#define SBD_SERVE_BIN ""
#endif

struct CrashRunConfig {
    std::uint64_t seed = 1;
    std::string fault_plan;     ///< child-side --fault-plan (directed runs)
    std::string parent_plan;    ///< armed in-parent around recover()
    bool with_upgrade = false;  ///< hot-swap after acked tick 5
    bool native = false;        ///< child serves --backend native
    std::uint32_t kill_after_us = 20000;
};

struct CrashRunStats {
    std::uint64_t acked_ticks = 0;
    std::uint64_t recovered_ticks = 0;
    bool upgrade_acked = false;
};

constexpr std::uint64_t kUpgradeAtTick = 5;
constexpr std::uint64_t kMaxTicks = 24;

pid_t spawn_serve(const fs::path& dir, const fs::path& model_path, const CrashRunConfig& cfg) {
    const fs::path ep_file = dir / "ep.txt";
    const fs::path log = dir / "serve.log";
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    // Child: plain exec of the real daemon — no in-process state survives
    // the fork, so SIGKILL timing exercises exactly what production sees.
    const int logfd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (logfd >= 0) {
        ::dup2(logfd, 1);
        ::dup2(logfd, 2);
        ::close(logfd);
    }
    std::vector<std::string> args = {SBD_SERVE_BIN,
                                     "--listen",
                                     "unix:" + (dir / "s.sock").string(),
                                     "--endpoint-file",
                                     ep_file.string(),
                                     "--data-dir",
                                     (dir / "data").string(),
                                     "--fsync",
                                     "always",
                                     "--checkpoint-every-ticks",
                                     "2",
                                     "--shards",
                                     "2",
                                     "--capacity",
                                     "4"};
    if (!cfg.fault_plan.empty()) {
        args.push_back("--fault-plan");
        args.push_back(cfg.fault_plan);
    }
    if (cfg.native) {
        args.push_back("--backend");
        args.push_back("native");
    }
    args.push_back(model_path.string());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(SBD_SERVE_BIN, argv.data());
    ::_exit(127);
}

bool wait_for_socket(const fs::path& sock, int timeout_ms) {
    for (int i = 0; i < timeout_ms; ++i) {
        struct ::stat st{};
        if (::stat(sock.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

/// One kill/recover trial. Returns nullopt when the daemon died before the
/// session even started (kill landed pre-boot) — nothing to verify then.
std::optional<CrashRunStats> crash_run(const BlockPtr& model,
                                       const codegen::CompiledSystem& sys,
                                       const std::string& source, const std::string& source_v2,
                                       const CrashRunConfig& cfg) {
    TempDir dir;
    const fs::path model_path = dir.path / "model.sbd";
    std::ofstream(model_path) << source;
    const pid_t pid = spawn_serve(dir.path, model_path, cfg);
    EXPECT_GT(pid, 0);
    if (pid <= 0) return std::nullopt;

    CrashRunStats stats;
    std::vector<serve::WireHandle> handles;
    bool created = false;
    if (wait_for_socket(dir.path / "s.sock", cfg.native ? 30000 : 5000)) {
        // The killer arms only once the server is up, so the random delay
        // lands across the whole session — boot, appends, checkpoints.
        std::thread killer([pid, &cfg] {
            std::this_thread::sleep_for(std::chrono::microseconds(cfg.kill_after_us));
            ::kill(pid, SIGKILL);
        });
        try {
            serve::Client client = serve::Client::connect(
                serve::Endpoint::parse("unix:" + (dir.path / "s.sock").string()));
            handles = client.create_instances(1, 3);
            created = true;
            std::vector<double> row(model->num_inputs());
            for (std::uint64_t t = 0; t < kMaxTicks; ++t) {
                for (std::size_t j = 0; j < row.size(); ++j)
                    row[j] = 0.25 * static_cast<double>(t) + static_cast<double>(j);
                for (const serve::WireHandle& h : handles) {
                    const serve::WireHandle one[] = {h};
                    try {
                        client.post_inputs(1, one, row);
                    } catch (const serve::ServeError&) {
                        // DURABLE_FAILED and friends: not acked, not applied.
                    }
                }
                try {
                    (void)client.tick(1, 1);
                    ++stats.acked_ticks;
                } catch (const serve::ServeError&) {
                }
                if (cfg.with_upgrade && stats.acked_ticks == kUpgradeAtTick &&
                    !stats.upgrade_acked) {
                    try {
                        (void)client.upgrade_model(1, source_v2);
                        stats.upgrade_acked = true;
                    } catch (const serve::ServeError&) {
                    }
                }
            }
        } catch (const std::exception&) {
            // Transport error: the SIGKILL landed. Everything acked so far
            // is what recovery must reproduce.
        }
        killer.join();
    }
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);

    // Recover in-process from the survivor files.
    auto rcfg = durable_server_config(dir.path / "data", source, FsyncMode::Off, 2);
    serve::Server recovered(sys, model, rcfg);
    serve::RecoveryStats rs;
    {
        std::optional<resilience::ScopedFaultPlan> armed;
        if (!cfg.parent_plan.empty())
            armed.emplace(resilience::FaultPlan::parse(cfg.parent_plan));
        rs = recovered.recover();
    }
    EXPECT_FALSE(rs.replay_aborted) << "no faults are armed during this replay";
    stats.recovered_ticks = rs.recovered_ticks;

    // Gate 1: no acked work is ever lost.
    EXPECT_GE(rs.recovered_ticks, stats.acked_ticks) << "acked ticks lost";
    EXPECT_LE(rs.recovered_ticks, kMaxTicks);
    if (created) {
        EXPECT_EQ(rs.live_instances, 3u);
    }
    if (stats.upgrade_acked) {
        EXPECT_EQ(rs.recovered_version, 2u) << "acked upgrade lost";
    }
    if (!created) {
        EXPECT_EQ(stats.acked_ticks, 0u);
        return stats;
    }
    if (rs.live_instances != 3u) return stats;

    // Gate 2: bit-exact against an uninterrupted oracle of the same prefix.
    // Skipped for child-side fault plans: a coded append rejection drops the
    // record (or, for a failed fsync, persists it un-acked), so the journal
    // timeline is a legitimate consistent prefix that differs from the
    // "every post succeeded" script the oracle runs. Parent-side recover
    // faults only change *which* checkpoint recovery starts from, so they
    // keep the gate.
    if (!cfg.fault_plan.empty()) return stats;
    // The oracle replays the deterministic script for exactly the recovered
    // tick count; the upgrade slots in at its scripted position iff the
    // recovered version says it happened before the crash point.
    serve::ServerConfig ocfg;
    ocfg.endpoint = serve::Endpoint::parse("tcp:127.0.0.1:0");
    ocfg.shards = 2;
    ocfg.shard_capacity = 4;
    upgrade::CompileContext uctx;
    ocfg.upgrade = std::move(uctx);
    serve::Server oracle(sys, model, ocfg);
    oracle.start();
    serve::Client oclient = serve::Client::connect(oracle.endpoint());
    const std::vector<serve::WireHandle> ohandles = oclient.create_instances(1, 3);
    std::vector<double> row(model->num_inputs());
    for (std::uint64_t t = 0; t <= rs.recovered_ticks; ++t) {
        if (rs.recovered_version == 2 && t == kUpgradeAtTick)
            (void)oclient.upgrade_model(1, source_v2);
        if (t == rs.recovered_ticks) break;
        for (std::size_t j = 0; j < row.size(); ++j)
            row[j] = 0.25 * static_cast<double>(t) + static_cast<double>(j);
        for (const serve::WireHandle& h : ohandles) {
            const serve::WireHandle one[] = {h};
            oclient.post_inputs(1, one, row);
        }
        (void)oclient.tick(1, 1);
    }

    recovered.start();
    serve::Client rclient = serve::Client::connect(recovered.endpoint());
    const std::size_t nin = model->num_inputs();
    const std::size_t nout = model->num_outputs();
    for (std::size_t i = 0; i < ohandles.size(); ++i) {
        // Deterministic placement: the recovered pool re-mints the same
        // handles the oracle (and the dead daemon) minted.
        const std::vector<double> want = oclient.snapshot(1, ohandles[i]);
        const std::vector<double> got = rclient.snapshot(1, ohandles[i]);
        EXPECT_EQ(got.size(), want.size());
        if (got.size() != want.size()) return stats;
        // Layout is [persistent state..., input row, output row]. The input
        // row is excluded: a journaled-but-unacked trailing POST_INPUTS may
        // put the recovered row one step ahead of the oracle.
        const std::size_t state_n = want.size() - nin - nout;
        EXPECT_EQ(std::memcmp(got.data(), want.data(), state_n * sizeof(double)), 0)
            << "instance " << i << " persistent state diverged (seed " << cfg.seed << ")";
        EXPECT_EQ(std::memcmp(got.data() + state_n + nin, want.data() + state_n + nin,
                              nout * sizeof(double)),
                  0)
            << "instance " << i << " output row diverged (seed " << cfg.seed << ")";
    }
    return stats;
}

TEST(DurableCrashChaos, KillRecoverCampaign) {
    ASSERT_NE(std::string(SBD_SERVE_BIN), "") << "SBD_SERVE_BIN not configured";
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*model);
    // v2: append a state-bearing sub (same interface, copy+init migration).
    std::string source_v2;
    {
        const auto& m = static_cast<const MacroBlock&>(*model);
        std::vector<std::string> ins, outs;
        for (std::size_t i = 0; i < m.num_inputs(); ++i) ins.push_back(m.input_name(i));
        for (std::size_t o = 0; o < m.num_outputs(); ++o) outs.push_back(m.output_name(o));
        auto v2 = std::make_shared<MacroBlock>(m.type_name(), std::move(ins), std::move(outs));
        for (std::size_t s = 0; s < m.num_subs(); ++s) {
            const auto& sub = m.sub(s);
            const auto id = v2->add_sub(sub.name, sub.type);
            if (sub.trigger) v2->set_trigger(id, *sub.trigger);
        }
        for (const Connection& conn : m.connections()) v2->connect(conn.src, conn.dst);
        v2->add_sub("DurAdded", lib::unit_delay(1.5));
        v2->connect(m.input_name(0), "DurAdded.u");
        v2->validate();
        source_v2 = text::to_sbd(*v2);
    }

    std::size_t random_runs = 200;
    if (const char* env = std::getenv("SBD_DURABLE_CRASH_RUNS"))
        random_runs = std::strtoull(env, nullptr, 10);
    std::uint64_t campaign_seed = 77;
    if (const char* env = std::getenv("SBD_CHAOS_SEED"))
        campaign_seed = std::strtoull(env, nullptr, 10);

    std::size_t runs = 0, sessions_with_acks = 0, upgrades_acked = 0, full_sessions = 0;

    // Directed phase: pin each durable fault point so every degradation
    // path runs regardless of random timing. Child-side plans hit the
    // daemon's append/fsync/checkpoint paths; the recover plan is armed in
    // the parent, where load_latest actually executes.
    struct Directed {
        std::uint64_t seed;
        const char* child_plan;
        const char* parent_plan;
        std::uint32_t kill_after_us;
    };
    const Directed directed[] = {
        {1, "seed=1;durable.append=nth:6", "", 30000},
        {2, "seed=2;durable.append=every:7", "", 40000},
        {3, "seed=3;durable.fsync=nth:9", "", 30000},
        {4, "seed=4;durable.fsync=p:0.1", "", 40000},
        {5, "seed=5;durable.checkpoint=nth:1", "", 30000},
        {6, "seed=6;durable.checkpoint=every:2", "", 50000},
        {7, "", "seed=7;durable.recover=nth:1", 30000},
        {8, "", "seed=8;durable.recover=every:2", 50000},
    };
    for (const Directed& d : directed) {
        CrashRunConfig cfg;
        cfg.seed = d.seed;
        cfg.fault_plan = d.child_plan;
        cfg.parent_plan = d.parent_plan;
        cfg.kill_after_us = d.kill_after_us;
        const auto stats = crash_run(model, sys, source, source_v2, cfg);
        ++runs;
        if (stats && stats->acked_ticks > 0) ++sessions_with_acks;
    }

    // Random phase: seeded kill timing over the full session window, with
    // upgrades mixed in. Early kills catch mid-boot and mid-create; late
    // kills catch mid-checkpoint, mid-append and post-upgrade appends.
    std::mt19937_64 rng(campaign_seed);
    for (std::size_t i = 0; i < random_runs; ++i) {
        CrashRunConfig cfg;
        cfg.seed = 1000 + i;
        cfg.kill_after_us = static_cast<std::uint32_t>(rng() % 80000);
        cfg.with_upgrade = (rng() % 2) == 0;
        const auto stats = crash_run(model, sys, source, source_v2, cfg);
        ++runs;
        if (stats && stats->acked_ticks > 0) ++sessions_with_acks;
        if (stats && stats->upgrade_acked) ++upgrades_acked;
        if (stats && stats->recovered_ticks == kMaxTicks) ++full_sessions;
    }

    // The campaign is only meaningful if the kill timing actually sampled
    // real sessions (not all pre-boot kills). The 200-run floor is the
    // acceptance default; SBD_DURABLE_CRASH_RUNS can shrink it for quick
    // local iteration.
    EXPECT_EQ(runs, sizeof(directed) / sizeof(directed[0]) + random_runs);
    EXPECT_GT(sessions_with_acks, runs / 4) << "kill timing never let sessions progress";
    if (random_runs >= 50) {
        EXPECT_GT(upgrades_acked, 0u) << "no run survived to the upgrade point";
        EXPECT_GT(full_sessions, 0u) << "no run completed the full session";
    }
    std::printf("crash campaign: %zu runs, %zu with acks, %zu upgrades acked, %zu full\n",
                runs, sessions_with_acks, upgrades_acked, full_sessions);
}

TEST(DurableCrashChaos, NativeBackendKillRecover) {
    ASSERT_NE(std::string(SBD_SERVE_BIN), "") << "SBD_SERVE_BIN not configured";
    const auto model = suite::thermostat();
    const auto sys = codegen::compile_hierarchy(model, codegen::Method::Dynamic);
    const std::string source = text::to_sbd(*model);
    std::size_t native_runs = 3;
    if (const char* env = std::getenv("SBD_DURABLE_NATIVE_RUNS"))
        native_runs = std::strtoull(env, nullptr, 10);
    std::mt19937_64 rng(99);
    std::size_t with_acks = 0;
    for (std::size_t i = 0; i < native_runs; ++i) {
        CrashRunConfig cfg;
        cfg.seed = 5000 + i;
        cfg.native = true;
        // Native boot AOT-compiles the model: give the session room to run
        // before the kill lands (timing is relative to socket readiness).
        cfg.kill_after_us = 20000 + static_cast<std::uint32_t>(rng() % 60000);
        const auto stats = crash_run(model, sys, source, "", cfg);
        if (stats && stats->acked_ticks > 0) ++with_acks;
    }
    // The recovery/oracle servers run interp: the state-blob layout is
    // backend-invariant (the cross-backend portability contract), so a
    // native daemon's journal+checkpoints must restore bit-exactly here.
    EXPECT_GT(with_acks, 0u) << "no native session progressed before the kill";
}

} // namespace
