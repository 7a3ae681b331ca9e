#include "resilience/fault.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/bytes.hpp"
#include "obs/metrics.hpp"

namespace sbd::resilience {

std::atomic<bool> g_fault_armed{false};

namespace {

/// splitmix64: the per-hit decision hash. Stateless, so the decision for
/// hit #i of a point depends only on (seed, point, i) — never on the order
/// threads interleave hits on *other* points.
std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string trim(const std::string& s) {
    std::size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
    return s.substr(b, e - b);
}

[[noreturn]] void bad_spec(const std::string& clause, const char* why) {
    throw std::invalid_argument("fault plan: bad clause '" + clause + "': " + why);
}

Schedule parse_schedule(const std::string& clause, const std::string& value) {
    Schedule sched;
    if (value == "off") return sched; // ScheduleKind::Never
    const auto colon = value.find(':');
    if (colon == std::string::npos) bad_spec(clause, "expected KIND:PARAM or 'off'");
    const std::string kind = value.substr(0, colon);
    const std::string param = value.substr(colon + 1);
    if (param.empty()) bad_spec(clause, "missing parameter");
    if (kind == "nth" || kind == "every") {
        std::uint64_t n = 0;
        for (const char c : param) {
            if (c < '0' || c > '9') bad_spec(clause, "parameter is not a positive integer");
            n = n * 10 + static_cast<std::uint64_t>(c - '0');
        }
        if (n == 0) bad_spec(clause, "parameter must be >= 1");
        sched.kind = kind == "nth" ? ScheduleKind::Nth : ScheduleKind::EveryK;
        sched.n = n;
    } else if (kind == "p") {
        double p = 0.0;
        try {
            std::size_t used = 0;
            p = std::stod(param, &used);
            if (used != param.size()) bad_spec(clause, "parameter is not a number");
        } catch (const std::logic_error&) {
            bad_spec(clause, "parameter is not a number");
        }
        if (p < 0.0 || p > 1.0) bad_spec(clause, "probability must be in [0, 1]");
        sched.kind = ScheduleKind::Prob;
        sched.p = p;
    } else {
        bad_spec(clause, "unknown schedule kind (want nth | every | p | off)");
    }
    return sched;
}

} // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const auto sep = spec.find(';', pos);
        const std::string clause =
            trim(spec.substr(pos, sep == std::string::npos ? sep : sep - pos));
        pos = sep == std::string::npos ? spec.size() + 1 : sep + 1;
        if (clause.empty()) continue;
        const auto eq = clause.find('=');
        if (eq == std::string::npos) bad_spec(clause, "expected NAME=VALUE");
        const std::string name = trim(clause.substr(0, eq));
        const std::string value = trim(clause.substr(eq + 1));
        if (name.empty()) bad_spec(clause, "empty point name");
        if (name == "seed") {
            std::uint64_t s = 0;
            if (value.empty()) bad_spec(clause, "empty seed");
            for (const char c : value) {
                if (c < '0' || c > '9') bad_spec(clause, "seed is not an integer");
                s = s * 10 + static_cast<std::uint64_t>(c - '0');
            }
            plan.seed = s;
            continue;
        }
        plan.points.emplace_back(name, parse_schedule(clause, value));
    }
    std::sort(plan.points.begin(), plan.points.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return plan;
}

std::string FaultPlan::to_spec() const {
    std::string out = "seed=" + std::to_string(seed);
    auto sorted = points;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [name, sched] : sorted) {
        out += ";" + name + "=";
        switch (sched.kind) {
        case ScheduleKind::Never: out += "off"; break;
        case ScheduleKind::Nth: out += "nth:" + std::to_string(sched.n); break;
        case ScheduleKind::EveryK: out += "every:" + std::to_string(sched.n); break;
        case ScheduleKind::Prob: {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "p:%.6g", sched.p);
            out += buf;
            break;
        }
        }
    }
    return out;
}

FaultRegistry& FaultRegistry::instance() {
    static FaultRegistry reg;
    return reg;
}

void FaultRegistry::arm(FaultPlan plan) {
    std::lock_guard lock(m_);
    seed_ = plan.seed;
    points_.clear();
    index_.clear();
    for (auto& [name, sched] : plan.points) {
        Point& pt = find_or_create(name);
        pt.sched = sched;
        pt.scheduled = true;
    }
    g_fault_armed.store(true, std::memory_order_relaxed);
}

void FaultRegistry::disarm() { g_fault_armed.store(false, std::memory_order_relaxed); }

FaultRegistry::Point& FaultRegistry::find_or_create(const std::string& name) {
    const auto it = index_.find(name);
    if (it != index_.end()) return *it->second;
    points_.emplace_back();
    Point& pt = points_.back();
    pt.name = name;
    index_.emplace(name, &pt);
    return pt;
}

bool FaultRegistry::should_fail(const char* point) {
    std::lock_guard lock(m_);
    Point& pt = find_or_create(point);
    const std::uint64_t hit = ++pt.hits;
    bool fail = false;
    switch (pt.sched.kind) {
    case ScheduleKind::Never: break;
    case ScheduleKind::Nth: fail = hit == pt.sched.n; break;
    case ScheduleKind::EveryK: fail = hit % pt.sched.n == 0; break;
    case ScheduleKind::Prob: {
        const std::uint64_t name = bytes::fnv1a64(
            {reinterpret_cast<const std::uint8_t*>(pt.name.data()), pt.name.size()});
        const std::uint64_t h = splitmix64(seed_ ^ name ^ (hit * 0x9e3779b9ULL));
        const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
        fail = u < pt.sched.p;
        break;
    }
    }
    if (fail) ++pt.injected;
    return fail;
}

std::vector<PointStats> FaultRegistry::snapshot() const {
    std::lock_guard lock(m_);
    std::vector<PointStats> out;
    out.reserve(points_.size());
    for (const Point& pt : points_)
        out.push_back(PointStats{pt.name, pt.hits, pt.injected, pt.scheduled});
    std::sort(out.begin(), out.end(),
              [](const PointStats& a, const PointStats& b) { return a.name < b.name; });
    return out;
}

void FaultRegistry::export_metrics(obs::MetricsRegistry& reg) const {
    for (const PointStats& pt : snapshot()) {
        // Counters are idempotent per (name, labels); set-by-delta so a
        // repeated export does not double-count.
        auto hits = reg.counter("sbd_fault_hits_total",
                                "fault-point executions while a plan was armed",
                                {{"point", pt.name}});
        auto injected = reg.counter("sbd_fault_injected_total",
                                    "fault-point executions told to simulate a failure",
                                    {{"point", pt.name}});
        if (pt.hits > hits.value()) hits.inc(pt.hits - hits.value());
        if (pt.injected > injected.value()) injected.inc(pt.injected - injected.value());
    }
}

} // namespace sbd::resilience
