// serve_native and serve_journal: the real sbd-serve daemon, driven open loop
// by the benchmark's own generator. Each served tick is the POST_INPUTS ->
// TICK -> READ_OUTPUTS sequence, timed from when it was due.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "compile_work.hpp"
#include "core/exec.hpp"
#include "runtime/engine.hpp"
#include "sbd/text_format.hpp"
#include "serve/client.hpp"
#include "suite/models.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using sbd::serve::Client;
using sbd::serve::WireHandle;

namespace {

struct ServedSpec {
    const char* name;
    const char* backend;
    std::size_t shards;
    std::size_t tenants;   ///< one connection and one client thread each
    std::uint32_t instances; ///< per tenant
    bool journal;
    double nominal_tps;    ///< total served ticks/s of the latency phase
    std::vector<double> ladder; ///< total ticks/s rungs of the goodput search
    double p99_limit_us;
    /// Ladder steps are judged per window of this length (median window);
    /// it is at least the durable checkpoint period at the rates near
    /// goodput, so checkpoint stalls count and rare host stalls do not.
    double window_s;
    int windows_per_step;
};

const ServedSpec kServeNative{"serve_native", "native", 1, 1, 32, false, 4000,
                              {2000, 4000, 6000, 8000, 9000, 10000, 11000, 12000}, 1000,
                              0.15, 5};
const ServedSpec kServeJournal{"serve_journal", "interp", 2, 2, 32, true, 2000,
                               {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}, 5000,
                               0.5, 3};

constexpr std::size_t kVerifyInstants = 32;
constexpr std::size_t kInputBatches = 64;

/// The sbd-serve process: spawned with its output in `dir`, killed and
/// reaped on destruction unless it already exited.
class Daemon {
public:
    Daemon(const RunOptions& o, const ServedSpec& spec, const std::string& model,
           const std::string& dir) {
        fs::create_directories(dir);
        endpoint_file_ = dir + "/endpoint";
        std::vector<std::string> args = {o.serve_bin,
                                         "--listen", "tcp:127.0.0.1:0",
                                         "--endpoint-file", endpoint_file_,
                                         "--backend", spec.backend,
                                         "--shards", std::to_string(spec.shards),
                                         "--cache-dir", dir + "/cache"};
        if (spec.journal) {
            args.push_back("--data-dir");
            args.push_back(dir + "/data");
        }
        args.push_back(model);
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        const std::string log = dir + "/daemon.log";
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }
    ~Daemon() { stop(0); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Waits until the daemon published its bound endpoint.
    sbd::serve::Endpoint endpoint() {
        const std::uint64_t t0 = now_ns();
        while (now_ns() - t0 < 120'000'000'000ULL) {
            std::ifstream in(endpoint_file_);
            std::string line;
            if (std::getline(in, line) && !in.eof()) return sbd::serve::Endpoint::parse(line);
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("sbd-serve exited during start-up");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        throw std::runtime_error("sbd-serve did not publish its endpoint");
    }

    /// Peak resident set (VmHWM) from /proc, MB.
    double peak_rss_mb() const {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
        return 0;
    }

    /// Waits up to `grace_ms` for a clean exit, then kills. True = clean.
    bool stop(int grace_ms) {
        if (pid_ <= 0) return true;
        const std::uint64_t t0 = now_ns();
        int status = 0;
        while (now_ns() - t0 < static_cast<std::uint64_t>(grace_ms) * 1'000'000ULL) {
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
    }

private:
    pid_t pid_ = -1;
    std::string endpoint_file_;
};

/// The daemon's Prometheus exposition, read with GET /metrics.
class Scrape {
public:
    explicit Scrape(const sbd::serve::Endpoint& ep) {
        sbd::serve::Conn conn = sbd::serve::Conn::connect(ep);
        const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
        conn.send_all({reinterpret_cast<const std::uint8_t*>(req.data()), req.size()});
        std::string body;
        std::uint8_t buf[65536];
        while (const std::size_t n = conn.recv_some(buf)) body.append(buf, buf + n);
        std::istringstream in(body.substr(std::min(body.size(), body.find("\r\n\r\n") + 4)));
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#') continue;
            const auto sp = line.rfind(' ');
            if (sp == std::string::npos) continue;
            std::string name = line.substr(0, sp);
            name = name.substr(0, name.find('{')); // sum over label sets
            series_[name] += std::stod(line.substr(sp + 1));
        }
    }
    double operator[](const std::string& name) const {
        const auto it = series_.find(name);
        return it == series_.end() ? 0 : it->second;
    }

private:
    std::map<std::string, double> series_;
};

/// Mean of a histogram between two scrapes (0 when nothing was observed).
double hist_mean(const Scrape& a, const Scrape& b, const std::string& name) {
    const double n = b[name + "_count"] - a[name + "_count"];
    return n > 0 ? (b[name + "_sum"] - a[name + "_sum"]) / n : 0;
}

struct Tenant {
    std::uint64_t id = 0;
    std::unique_ptr<Client> client;
    std::vector<WireHandle> handles;
    std::vector<std::vector<double>> batches; ///< pre-generated input rows, cycled
};

/// One open-loop step's results, all connections merged.
struct StepResult {
    std::vector<double> due_s;      ///< due time after the step start, per sequence
    std::vector<double> latency_us; ///< due -> READ_OUTPUTS reply, per sequence
    std::vector<double> lag_us;     ///< due -> POST_INPUTS sent
    std::vector<double> post_us, tick_us, read_us;
    std::uint64_t sent = 0, failed = 0;
};

/// Judgement of a step over consecutive windows of its due times: the
/// median window's p99, and how much the generator's median lag grew from
/// the first window to the last. A stall that hits one window moves
/// neither; an overloaded server moves both.
struct WindowedStep {
    double p99_us = 0;
    double lag_growth_us = 0;
};

WindowedStep judge(const StepResult& r, double seconds, int windows) {
    std::vector<std::vector<double>> lat(windows), lag(windows);
    for (std::size_t i = 0; i < r.due_s.size(); ++i) {
        const int w = std::min(windows - 1, static_cast<int>(r.due_s[i] / seconds * windows));
        lat[w].push_back(r.latency_us[i]);
        lag[w].push_back(r.lag_us[i]);
    }
    std::vector<double> p99s;
    for (const auto& l : lat) p99s.push_back(quantile(l, 0.99));
    return {median(p99s), median(lag.back()) - median(lag.front())};
}

/// One POST_INPUTS -> TICK -> READ_OUTPUTS sequence that was due at `due`.
/// Returns false when the connection is gone.
bool run_sequence(Tenant& t, std::uint64_t n, std::uint64_t due, std::uint64_t start,
                  std::uint64_t corr, StepResult& r) {
    const bool traced = tracing();
    const std::uint32_t root = traced ? reserve_span() : 0;
    const std::uint64_t t0 = now_ns();
    ++r.sent;
    try {
        t.client->post_inputs(t.id, t.handles, t.batches[n % t.batches.size()]);
        const std::uint64_t t1 = now_ns();
        t.client->tick(t.id, 1);
        const std::uint64_t t2 = now_ns();
        (void)t.client->read_outputs(t.id, t.handles);
        const std::uint64_t t3 = now_ns();
        r.due_s.push_back(static_cast<double>(due - start) / 1e9);
        r.latency_us.push_back(static_cast<double>(t3 - due) / 1e3);
        r.lag_us.push_back(static_cast<double>(t0 - due) / 1e3);
        if (traced) {
            r.post_us.push_back(static_cast<double>(t1 - t0) / 1e3);
            r.tick_us.push_back(static_cast<double>(t2 - t1) / 1e3);
            r.read_us.push_back(static_cast<double>(t3 - t2) / 1e3);
            span("loadgen.lag", due, t0, root, corr);
            span("serve.post_inputs", t0, t1, root, corr);
            span("serve.tick", t1, t2, root, corr);
            span("serve.read_outputs", t2, t3, root, corr);
            record_span(root, "bench.served_tick", due, now_ns(), 0, corr);
        }
    } catch (const sbd::serve::ServeError&) {
        ++r.failed; // coded rejection: counts as a missed limit
    } catch (const std::exception&) {
        ++r.failed; // transport error
        return false;
    }
    return true;
}

StepResult merge(std::vector<StepResult>& per) {
    StepResult all;
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    for (StepResult& r : per) {
        append(all.due_s, r.due_s);
        append(all.latency_us, r.latency_us);
        append(all.lag_us, r.lag_us);
        append(all.post_us, r.post_us);
        append(all.tick_us, r.tick_us);
        append(all.read_us, r.read_us);
        all.sent += r.sent;
        all.failed += r.failed;
    }
    return all;
}

/// Runs every tenant's connection open loop at `tps` total ticks/s for
/// `seconds`: sequence n of a connection is due at start + offset + n/rate,
/// whether or not the previous one finished.
StepResult open_loop(std::vector<Tenant>& tenants, double tps, double seconds,
                     std::uint64_t& corr_base) {
    const std::size_t conns = tenants.size();
    const double period_ns = 1e9 * static_cast<double>(conns) / tps;
    const auto n_per_conn = static_cast<std::uint64_t>(seconds * tps / static_cast<double>(conns));
    std::vector<StepResult> per(conns);
    const std::uint64_t start = now_ns() + 2'000'000;
    const std::uint64_t corr0 = corr_base;
    corr_base += n_per_conn * conns + 1;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c)
        threads.emplace_back([&, c] {
            ::prctl(PR_SET_TIMERSLACK, 1UL);
            for (std::uint64_t n = 0; n < n_per_conn; ++n) {
                const auto due = start + static_cast<std::uint64_t>(
                                             (static_cast<double>(n) +
                                              static_cast<double>(c) / static_cast<double>(conns)) *
                                             period_ns);
                // Sleep to just before the due time, then spin to it.
                if (const std::uint64_t now = now_ns(); due > now + 100'000)
                    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 50'000));
                while (now_ns() < due) {
                }
                if (!run_sequence(tenants[c], n, due, start, corr0 + n * conns + c + 1, per[c])) {
                    // The connection is gone: the rest of its schedule fails.
                    per[c].sent += n_per_conn - n - 1;
                    per[c].failed += n_per_conn - n - 1;
                    break;
                }
            }
        });
    for (std::thread& th : threads) th.join();
    return merge(per);
}

/// Every connection sends its next sequence as soon as the previous one
/// completed, for `seconds`; latency is timed from each send.
StepResult closed_loop(std::vector<Tenant>& tenants, double seconds, std::uint64_t& corr_base) {
    const std::size_t conns = tenants.size();
    std::vector<StepResult> per(conns);
    const std::uint64_t start = now_ns();
    const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t corr0 = corr_base;
    corr_base += 1ULL << 32;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c)
        threads.emplace_back([&, c] {
            for (std::uint64_t n = 0;; ++n) {
                const std::uint64_t due = now_ns();
                if (due >= end ||
                    !run_sequence(tenants[c], n, due, start, corr0 + n * conns + c + 1, per[c]))
                    break;
            }
        });
    for (std::thread& th : threads) th.join();
    return merge(per);
}

/// A ladder step meets the limit when nothing failed, the median window's
/// p99 is within the limit and the generator's lag did not grow.
bool meets_limit(const StepResult& r, const ServedSpec& spec) {
    const double seconds = spec.window_s * spec.windows_per_step;
    const WindowedStep w = judge(r, seconds, spec.windows_per_step);
    std::printf("  ladder %7.0f/s: p50 %8.1f us  p99 %8.1f us  window p99 %8.1f us  "
                "lag growth %8.1f us  failed %llu\n",
                static_cast<double>(r.sent) / seconds, quantile(r.latency_us, 0.5),
                quantile(r.latency_us, 0.99), w.p99_us, w.lag_growth_us,
                static_cast<unsigned long long>(r.failed));
    return r.failed == 0 && !r.latency_us.empty() && w.p99_us <= spec.p99_limit_us &&
           w.lag_growth_us <= spec.p99_limit_us / 2;
}

/// Mean ns of one Instance::step_instant_into fed seeded inputs, over
/// about 20 ms, recorded as one span named `span_name`.
double step_ns(sbd::codegen::Instance& inst, std::size_t nin, std::size_t nout,
               std::uint64_t seed, const char* span_name) {
    sbd::runtime::LcgInputSource src(seed);
    std::vector<double> in(nin * 64), out(nout);
    src.fill(in);
    const Scope s(span_name);
    std::size_t steps = 0;
    const std::uint64_t t0 = now_ns();
    while (now_ns() - t0 < 20'000'000)
        for (std::size_t k = 0; k < 64; ++k, ++steps)
            inst.step_instant_into(std::span<const double>(in).subspan(k * nin, nin), out);
    return static_cast<double>(now_ns() - t0) / static_cast<double>(steps);
}

struct Booted {
    std::unique_ptr<Daemon> daemon;
    sbd::serve::Endpoint endpoint;
    std::vector<Tenant> tenants;
    std::string dir;
};

/// Spawns a fresh daemon (fresh artifact store and data dir) and creates
/// every tenant's instances; returns the time from spawn to the first acked
/// CREATE_INSTANCES.
double boot(const RunOptions& o, const ServedSpec& spec, const std::string& model,
            const std::string& dir, Booted& b) {
    b.dir = dir;
    const std::uint64_t t0 = now_ns();
    b.daemon = std::make_unique<Daemon>(o, spec, model, dir);
    b.endpoint = b.daemon->endpoint();
    double setup = 0;
    b.tenants.resize(spec.tenants);
    for (std::size_t i = 0; i < spec.tenants; ++i) {
        Tenant& t = b.tenants[i];
        t.id = i + 1;
        t.client = std::make_unique<Client>(Client::connect(b.endpoint));
        const Scope s("serve.create_instances");
        t.handles = t.client->create_instances(t.id, spec.instances);
        if (i == 0) setup = static_cast<double>(now_ns() - t0) / 1e9;
    }
    return setup;
}

void shutdown(Booted& b) {
    if (!b.daemon) return;
    try {
        b.tenants.front().client->shutdown(0);
    } catch (const std::exception&) {
    }
    b.tenants.clear();
    b.daemon->stop(10'000);
    b.daemon.reset();
}

Outcome run_served(const RunOptions& o, const ServedSpec& spec) {
    Outcome out;
    const std::string root_dir = o.work_dir + "/" + spec.name;
    fs::remove_all(root_dir);
    fs::create_directories(root_dir);
    const auto model = sbd::suite::thermostat();
    const std::string source = sbd::text::to_sbd(*model);
    const std::string model_path = root_dir + "/thermostat.sbd";
    std::ofstream(model_path) << source;

    // Set-up: the boot that serves the run, plus a fresh boot (shut down at
    // once) after every closed-loop slice, so the median samples the whole
    // run and not one moment of the host.
    Booted b;
    std::vector<double> setups{boot(o, spec, model_path, root_dir + "/boot0", b)};
    const auto extra_boot = [&] {
        Booted extra;
        setups.push_back(boot(o, spec, model_path,
                              root_dir + "/boot" + std::to_string(setups.size()), extra));
        shutdown(extra);
        fs::remove_all(extra.dir);
    };

    // Seeded inputs, identical for the served instances and the in-process
    // reference engine.
    const auto parsed = sbd::text::parse_sbd_string(source).root;
    sbd::codegen::Pipeline pipeline;
    const sbd::codegen::CompiledSystem sys = pipeline.compile(parsed);
    sbd::runtime::EngineConfig ecfg;
    ecfg.capacity = spec.tenants * spec.instances;
    sbd::runtime::Engine ref(sys, parsed, ecfg);
    const std::size_t nin = ref.pool().num_inputs(), nout = ref.pool().num_outputs();
    std::vector<std::vector<sbd::runtime::InstanceId>> ref_ids;
    std::vector<std::vector<sbd::runtime::LcgInputSource>> sources;
    for (std::size_t t = 0; t < spec.tenants; ++t) {
        ref_ids.push_back(ref.create(spec.instances));
        sources.emplace_back();
        for (std::uint32_t i = 0; i < spec.instances; ++i)
            sources.back().emplace_back(o.seed * 1'000'003 + t * 10'007 + i);
    }

    // Gate: served outputs bit-equal to the in-process interpreter engine.
    std::uint64_t mismatches = 0;
    std::vector<double> rows(spec.instances * nin);
    for (std::size_t k = 0; k < kVerifyInstants; ++k) {
        for (std::size_t t = 0; t < spec.tenants; ++t) {
            for (std::uint32_t i = 0; i < spec.instances; ++i) {
                const auto row = std::span(rows).subspan(i * nin, nin);
                sources[t][i].fill(row);
                std::copy(row.begin(), row.end(), ref.pool().inputs(ref_ids[t][i]).begin());
            }
            b.tenants[t].client->post_inputs(b.tenants[t].id, b.tenants[t].handles, rows);
        }
        b.tenants.front().client->tick(b.tenants.front().id, 1);
        ref.tick();
        for (std::size_t t = 0; t < spec.tenants; ++t) {
            const std::vector<double> got =
                b.tenants[t].client->read_outputs(b.tenants[t].id, b.tenants[t].handles);
            for (std::uint32_t i = 0; i < spec.instances; ++i)
                if (std::memcmp(got.data() + i * nout, ref.pool().outputs(ref_ids[t][i]).data(),
                                nout * sizeof(double)) != 0)
                    ++mismatches;
        }
    }
    if (mismatches != 0)
        out.gate_failures.push_back(std::string(spec.name) + ": " +
                                    std::to_string(mismatches) +
                                    " served output rows differ from the in-process engine");
    for (std::size_t t = 0; t < spec.tenants; ++t) {
        b.tenants[t].batches.resize(kInputBatches);
        for (auto& batch : b.tenants[t].batches) {
            batch.resize(spec.instances * nin);
            for (std::uint32_t i = 0; i < spec.instances; ++i)
                sources[t][i].fill(std::span(batch).subspan(i * nin, nin));
        }
    }

    // Half the run is closed loop, cut into slices spread over the whole run
    // (one after each open-loop phase), so the bounded median samples every
    // host phase of the run. The other half is open loop: latency at the
    // nominal rate, then the goodput ladder.
    std::uint64_t corr = 0;
    const double step_s = spec.window_s * spec.windows_per_step;
    const int steps = o.probe ? 0 : std::max(2, static_cast<int>(o.seconds * 0.25 / step_s));
    const double closed_s = o.probe ? 0.5 : o.seconds * 0.5;
    std::vector<StepResult> closed_parts;
    const auto closed_slice = [&] {
        closed_parts.push_back(
            closed_loop(b.tenants, closed_s / (o.probe ? 1 : steps + 2), corr));
        if (!o.probe) extra_boot();
    };
    if (!o.probe) closed_slice();
    const Scrape before(b.endpoint);
    const double nominal_s = o.probe ? std::min(o.seconds, 1.5) : o.seconds * 0.25;
    const StepResult nominal = open_loop(b.tenants, spec.nominal_tps, nominal_s, corr);
    const Scrape after(b.endpoint);
    closed_slice();
    std::uint64_t sent = nominal.sent, failed = nominal.failed;

    double goodput = 0;
    if (!o.probe) {
        const auto step = [&](double tps) {
            const StepResult r = open_loop(b.tenants, tps, step_s, corr);
            sent += r.sent;
            failed += r.failed;
            const bool ok = meets_limit(r, spec);
            closed_slice();
            return ok;
        };
        // Every rung of the fixed ladder, then bisection between the highest
        // rung that met the limit and the rung above it. Tails are not
        // monotonic in the rate (an idle server wakes up slowly), so a failed
        // low rung does not end the climb.
        double lo = 0, hi = 0;
        int used = 0;
        for (std::size_t i = 0; i < spec.ladder.size() && used < steps; ++i, ++used)
            if (step(spec.ladder[i])) {
                lo = spec.ladder[i];
                hi = i + 1 < spec.ladder.size() ? spec.ladder[i + 1] : lo;
            }
        for (; used < steps && hi - lo > 1; ++used) {
            const double mid = (lo + hi) / 2;
            (step(mid) ? lo : hi) = mid;
        }
        for (; used < steps; ++used) closed_slice();
        goodput = lo;
    }
    const StepResult closed = merge(closed_parts);
    sent += closed.sent;
    failed += closed.failed;
    out.attempted = sent;
    out.failed = failed;

    const Scrape last(b.endpoint);
    const double daemon_rss = b.daemon->peak_rss_mb();
    const double closed_tps = static_cast<double>(closed.latency_us.size()) / closed_s;
    const double closed_p50 = windowed_quantile(closed.latency_us, 0.5, 2000);
    const double closed_p90 = windowed_quantile(closed.latency_us, 0.9, 2000);
    const double closed_p99 = windowed_quantile(closed.latency_us, 0.99, 2000);
    const double p50 = windowed_quantile(nominal.latency_us, 0.5, 2000);
    const double p99 = windowed_quantile(nominal.latency_us, 0.99, 2000);
    std::printf("%s: %zu tenant(s) x %u instances, %s backend, %zu shard(s)%s; closed loop "
                "%.1fs in %zu slices: %zu sequences; nominal %.0f/s for %.1fs: %zu sequences\n",
                spec.name, spec.tenants, spec.instances, spec.backend, spec.shards,
                spec.journal ? ", journaled" : "", closed_s, closed_parts.size(),
                closed.latency_us.size(),
                spec.nominal_tps, nominal_s, nominal.latency_us.size());

    out.e2e.set("setup_s", median(setups), "s");
    // The bounded median is the closed-loop one: an open loop that falls
    // behind in a noisy host phase turns its median into backlog.
    out.e2e.set("op_p50_us", closed_p50, "us");
    out.e2e.set("op_p99_us", p99, "us");
    if (!o.probe) out.e2e.set("rate_per_s", goodput, "1/s");
    out.e2e.set("peak_rss_mb", daemon_rss, "MB");
    out.named.set("setup_s", median(setups), "s");
    out.named.set("tick_p50_us", p50, "us");
    out.named.set("tick_p99_us", p99, "us");
    if (!o.probe) out.named.set("goodput_tps", goodput, "ticks/s");
    out.named.set("closed_tps", closed_tps, "ticks/s");
    out.named.set("closed_p50_us", closed_p50, "us");
    out.named.set("closed_p90_us", closed_p90, "us");
    out.named.set("closed_p99_us", closed_p99, "us");
    out.named.set("peak_rss_mb", daemon_rss, "MB");

    if (o.traced) {
        Metrics& l = out.layer;
        l.set("serve.post_rtt_us", median(nominal.post_us), "us");
        l.set("serve.tick_rtt_us", median(nominal.tick_us), "us");
        l.set("serve.read_rtt_us", median(nominal.read_us), "us");
        const double server_request_us = hist_mean(before, after, "sbd_serve_request_ns") / 1e3;
        l.set("serve.server_request_us", server_request_us, "us");
        l.set("serve.server_tick_us", hist_mean(before, after, "sbd_serve_tick_ns") / 1e3, "us");
        double client_us = 0;
        for (const auto* v : {&nominal.post_us, &nominal.tick_us, &nominal.read_us})
            for (const double x : *v) client_us += x;
        const double server_us =
            (after["sbd_serve_request_ns_sum"] - before["sbd_serve_request_ns_sum"]) / 1e3;
        l.set("serve.outside_server_share", client_us > 0 ? 1.0 - server_us / client_us : 0,
              "share");
        l.set("loadgen.open_p50_us", p50, "us");
        l.set("loadgen.open_p99_us", p99, "us");
        l.set("loadgen.lag_p99_us", quantile(nominal.lag_us, 0.99), "us");
        l.set("loadgen.sent", static_cast<double>(sent), "count");
        l.set("loadgen.failed", static_cast<double>(failed), "count");
        if (spec.journal) {
            // Journal and checkpoint work over every timed phase.
            const auto delta = [&](const char* name) { return last[name] - before[name]; };
            const double ticks = delta("sbd_serve_ticks_total");
            l.set("durable.fsync_us", hist_mean(before, last, "sbd_durable_fsync_ns") / 1e3,
                  "us");
            l.set("durable.checkpoint_ms",
                  hist_mean(before, last, "sbd_durable_checkpoint_ns") / 1e6, "ms");
            l.set("durable.checkpoints", delta("sbd_durable_checkpoints_total"), "count");
            l.set("durable.journal_bytes_per_tick",
                  ticks > 0 ? delta("sbd_durable_journal_bytes_total") / ticks : 0, "bytes");
        }
        if (std::string(spec.backend) == "native") {
            const double builds = last["sbd_native_compile_ns_count"];
            l.set("native.build_ms",
                  builds > 0 ? last["sbd_native_compile_ns_sum"] / builds / 1e6 : 0, "ms");
            l.set("native.tu_bytes", last["sbd_native_tu_bytes"], "bytes");
            l.set("native.so_bytes", last["sbd_native_so_bytes"], "bytes");
            // Same recipe as the daemon, pointed at its artifact store.
            sbd::codegen::BackendConfig bc;
            bc.backend = sbd::codegen::Backend::Native;
            bc.cache_dir = b.dir + "/cache/native";
            std::shared_ptr<const sbd::codegen::Executable> exe;
            {
                const Scope s("native.make_executable");
                exe = sbd::codegen::make_executable(sys, parsed, bc);
            }
            l.set("native.step_ns",
                  step_ns(*exe->instantiate(), nin, nout, o.seed, "native.step_loop"), "ns");
        }
        sbd::codegen::InterpInstance interp(sys, parsed);
        l.set("exec.step_ns", step_ns(interp, nin, nout, o.seed, "exec.step_loop"), "ns");
        add_compile_layers({source}, 20, l);
    }
    shutdown(b);
    fs::remove_all(root_dir);
    return out;
}

} // namespace

Outcome run_serve_native(const RunOptions& o) { return run_served(o, kServeNative); }
Outcome run_serve_journal(const RunOptions& o) { return run_served(o, kServeJournal); }

} // namespace perfbench
