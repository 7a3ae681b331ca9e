#ifndef SBD_RUNTIME_ENGINE_HPP
#define SBD_RUNTIME_ENGINE_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "resilience/budget.hpp"
#include "runtime/pool.hpp"

namespace sbd::runtime {

/// Deterministic input generator (a 64-bit LCG, values in [-8, 8)), one row
/// at a time, so drivers can feed millions of instance-instants without
/// materializing the whole trace. Seeding each instance with a distinct
/// seed (e.g. base + instance index) gives independent, reproducible
/// workloads regardless of thread count.
struct LcgInputSource {
    std::uint64_t state = 1;

    explicit LcgInputSource(std::uint64_t seed) : state(seed) {}

    void fill(std::span<double> row) {
        for (double& v : row) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            v = static_cast<double>((state >> 33) & 0xFFFF) / 4096.0 - 8.0;
        }
    }
};

struct EngineConfig {
    std::size_t capacity = 1024; ///< maximum live instances (pool size)
    /// Backend recipe for every pooled instance (see codegen::Executable).
    /// nullptr = the interpreter built from (sys, root) — existing callers
    /// and `--backend=interp` both land here; `--backend=native` passes a
    /// native executable and nothing else in the engine changes.
    std::shared_ptr<const codegen::Executable> executable;
    std::size_t threads = 1;     ///< total threads stepping a tick, incl. the caller
    std::size_t chunk = 64;      ///< instances per work unit on the tick hot path
    /// Observability sink for tick/step latency histograms, throughput
    /// counters and pool gauges. nullptr (the default) disables engine
    /// instrumentation entirely: the hot path takes one branch per tick and
    /// zero per step, and outputs are bit-identical to an uninstrumented
    /// build.
    obs::MetricsRegistry* metrics = nullptr;
    /// Per-instance step latency is sampled 1-in-step_sample (clamped to
    /// >= 1) so instrumentation stays off the clock on the step hot path.
    std::size_t step_sample = 16;
    /// Wall-clock budget for the engine's lifetime, armed at construction
    /// and checked cooperatively between batches (at every tick() start,
    /// before workers are released). 0 = no deadline. Expiry throws
    /// resilience::DeadlineExceeded; instances keep the state of the last
    /// completed tick, so the caller can drain or extend.
    std::uint64_t deadline_ms = 0;
};

/// Hosts a pool of independent instances of one compiled block and advances
/// all of them one synchronous instant per tick(), batched across a
/// persistent thread pool.
///
/// Scheduling: each tick the dense live-slot list is carved into fixed-size
/// chunks claimed via a single atomic fetch_add — no locks and no allocation
/// on the hot path; the caller's thread participates as the K-th worker.
/// Instances are mutually independent (each steps against its own state and
/// its own arena I/O buffers), so the result is bitwise identical for every
/// thread count and every chunk size.
///
/// Protocol per tick: write each live instance's inputs via
/// pool().inputs(id), call tick(), read pool().outputs(id). Structural
/// operations (create/destroy/reset) must not overlap a running tick() —
/// the engine is externally synchronous, like the blocks it hosts.
class Engine {
public:
    Engine(const codegen::CompiledSystem& sys, BlockPtr root, EngineConfig cfg = {});
    ~Engine();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    InstancePool& pool() { return pool_; }
    const InstancePool& pool() const { return pool_; }

    InstanceId create() { return pool_.create(); }
    std::vector<InstanceId> create(std::size_t n);
    void destroy(InstanceId id) { pool_.destroy(id); }

    /// Hot-swaps the hosted model between instants: prepares and commits an
    /// InstancePool rebind (see prepare_rebind/commit_rebind) under the
    /// given migrator. Like create()/destroy(), this is a structural
    /// operation — it must not overlap a running tick(); the engine is
    /// externally synchronous, so the caller provides the quiesce point
    /// (the serve layer uses its exclusive state lock, which by construction
    /// is an instant boundary). Throws without touching any instance when
    /// instantiation or migration fails.
    void rebind(const codegen::CompiledSystem& sys, BlockPtr root,
                std::shared_ptr<const codegen::Executable> executable,
                const StateMigrator& migrate);

    /// Advances every live instance one synchronous instant.
    void tick();
    /// Convenience: tick() n times (inputs held constant between ticks
    /// unless the caller rewrites them — mainly for benchmarks).
    void tick(std::size_t n);

    /// Number of ticks executed so far.
    std::uint64_t instants() const { return ticks_; }
    std::size_t threads() const { return workers_.size() + 1; }

private:
    void worker_loop();
    void run_chunks();
    void step_range(const std::vector<std::uint32_t>& live, std::size_t begin, std::size_t end);

    InstancePool pool_;
    EngineConfig cfg_;
    resilience::Deadline deadline_; ///< armed at construction when deadline_ms != 0
    std::vector<std::thread> workers_;

    // Observability (all detached when cfg_.metrics == nullptr).
    bool obs_on_ = false;
    obs::Counter ticks_total_, steps_total_, deadline_misses_;
    obs::Histogram tick_ns_, step_ns_;
    obs::Gauge pool_live_, pool_capacity_;

    // Tick coordination. The mutex/condvars only frame a tick (start/finish
    // barriers); work distribution inside a tick is the lock-free counter.
    std::mutex m_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    std::uint64_t epoch_ = 0; ///< guarded by m_; bumped to release workers
    std::size_t done_ = 0;    ///< guarded by m_; workers finished this epoch
    bool stop_ = false;       ///< guarded by m_
    std::atomic<std::size_t> next_chunk_{0};
    std::exception_ptr error_; ///< guarded by m_; first failure in a tick
    std::uint64_t ticks_ = 0;
};

} // namespace sbd::runtime

#endif
