/**
 * @file
 * The repository benchmark: one process runs one workload, built from a
 * workload seed, against the program's default configuration, and prints
 * one JSON line with its end-to-end metrics, per-layer metrics, registry
 * counter deltas, output-check results and the host shape.
 *
 *   perfbench --workload <paper_grid|fresh_nets> --seed <n> --seconds <s>
 *             --trace <0|1>
 *
 * --trace 0 is the timed run. --trace 1 is the separate traced run: it
 * drives one batch through every layer's public entry point with a
 * benchmark-side span around each call (plus the program's own runner.*
 * and service.* spans), writes Chrome traces to PERFBENCH_OUT_DIR, and
 * reports per-layer self times. No end-to-end metric comes from a traced
 * run. Output checks compare digests with PERFBENCH_REFERENCE; both paths
 * are compiled in. See NOTES.md beside this file for the workloads and
 * predicted movers.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "compress/bcs.hpp"
#include "compress/csr.hpp"
#include "compress/zre.hpp"
#include "dataflow/su.hpp"
#include "search/cost.hpp"
#include "sparsity/bitcolumn.hpp"
#include "tensor/bitplane.hpp"

extern char **environ;

using namespace bitwave;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Fixed workload shape. Changing any of these changes the benchmark.
// ---------------------------------------------------------------------------

/// Seed the reference digests in reference.txt were recorded with.
constexpr std::uint64_t kDefaultSeed = 1;

const Clock::time_point g_process_start = Clock::now();

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Deterministic sub-seed of the workload seed for one purpose.
std::uint64_t
derive_seed(std::uint64_t seed, const char *tag, std::uint64_t index)
{
    std::uint64_t h = fnv1a(tag, std::strlen(tag));
    h = hash_combine(h, seed);
    h = splitmix64(hash_combine(h, index));
    // The engine reads this value as "use the shared synthesis".
    return h == eval::kCachedWorkloadSeed ? h + 1 : h;
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string
json_escape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything one run reports.
struct Report
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    std::vector<std::string> check_failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Registry counter deltas: name -> per-operation deltas.
    std::map<std::string, std::vector<std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::string>> info;

    void e2e(const std::string &name, double value, const char *unit)
    {
        end_to_end.push_back({name, value, unit});
    }
    void layer(const std::string &name, double value, const char *unit)
    {
        for (auto &m : per_layer) {
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        }
        per_layer.push_back({name, value, unit});
    }
    void fail_check(std::string what)
    {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
        check_failures.push_back(std::move(what));
    }
    void note(const std::string &key, std::string value)
    {
        info.emplace_back(key, std::move(value));
    }
};

// ---------------------------------------------------------------------------
// Digests over the determinism-contract fields (bench::identical_result)
// ---------------------------------------------------------------------------

std::uint64_t
mix_double(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return hash_combine(h, bits);
}

std::uint64_t
mix_string(std::uint64_t h, const std::string &s)
{
    return fnv1a(s.data(), s.size(), hash_combine(h, s.size()));
}

std::uint64_t
digest_result(std::uint64_t h, const eval::ScenarioResult &r)
{
    h = mix_string(h, r.name);
    h = hash_combine(h, r.rng_seed);
    h = mix_double(h, r.total_cycles);
    h = mix_double(h, r.energy.total_pj);
    h = hash_combine(h, static_cast<std::uint64_t>(r.nominal_macs));
    h = hash_combine(h, r.layers.size());
    for (const auto &l : r.layers) {
        h = mix_string(h, l.layer_name);
        h = mix_string(h, l.su_name);
        h = mix_double(h, l.total_cycles);
        h = mix_double(h, l.compute_cycles);
        h = mix_double(h, l.energy.total_pj);
    }
    return h;
}

std::uint64_t
digest_results(const std::vector<eval::ScenarioResult> &results)
{
    std::uint64_t h = kFnvBasis;
    for (const auto &r : results) {
        h = digest_result(h, r);
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Reference outputs, one `key=value` line each ('#' starts a comment).
/// An unreadable, malformed or empty file ends the run: without it no
/// output could be checked.
std::map<std::string, std::string>
load_references(const char *path)
{
    std::map<std::string, std::string> refs;
    std::FILE *f = std::fopen(path, "r");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot read %s\n", path);
        std::exit(2);
    }
    char buf[512];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
        std::string line(buf);
        while (!line.empty() && std::isspace(
                   static_cast<unsigned char>(line.back()))) {
            line.pop_back();
        }
        if (line.empty() || line.front() == '#') {
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == 0 || eq == std::string::npos || eq + 1 == line.size()) {
            std::fprintf(stderr, "perfbench: bad line in %s: %s\n", path,
                         line.c_str());
            std::exit(2);
        }
        refs[line.substr(0, eq)] = line.substr(eq + 1);
    }
    std::fclose(f);
    if (refs.empty()) {
        std::fprintf(stderr, "perfbench: no references in %s\n", path);
        std::exit(2);
    }
    return refs;
}

/// Check output @p value against reference @p key; a missing reference
/// fails the check too.
void
check_reference(Report &rep, const std::map<std::string, std::string> &refs,
                const std::string &key, const std::string &value)
{
    rep.note(key, value);
    const auto it = refs.find(key);
    if (it == refs.end()) {
        rep.fail_check(key + " is " + value + ", no reference recorded");
    } else if (it->second != value) {
        rep.fail_check(key + " is " + value + ", reference " + it->second);
    } else {
        rep.note(key + ".checked", "ok");
    }
}

// ---------------------------------------------------------------------------
// Registry counters
// ---------------------------------------------------------------------------

const char *const kCaches[] = {"workloads",      "bitplanes",
                               "bitflip_twins",  "mapping_cycles",
                               "mapping_bcs",    "stats_memo"};
const char *const kCacheEvents[] = {"hits", "misses", "evictions"};
const char *const kServiceCounters[] = {
    "submitted",  "dedup_hits", "completed",   "failed",
    "rejected",   "shed",       "cancelled",   "deadline_expired",
    "shutdown_discarded", "batches", "batched_jobs", "steals",
    "chunks",     "retries",    "bisections",  "quarantined",
    "quarantine_hits", "watchdog_cancels"};

std::vector<std::string>
tracked_counters()
{
    std::vector<std::string> names;
    for (const char *c : kCaches) {
        for (const char *e : kCacheEvents) {
            names.push_back(std::string("cache.") + c + "." + e);
        }
    }
    for (const char *r : {"batches", "chunks", "steals"}) {
        names.push_back(std::string("runner.") + r);
    }
    for (const char *s : kServiceCounters) {
        names.push_back(std::string("service.") + s);
    }
    names.push_back("fault.fired");
    return names;
}

using CounterValues = std::map<std::string, std::uint64_t>;

CounterValues
read_counters()
{
    CounterValues v;
    for (const auto &name : tracked_counters()) {
        v[name] = metrics::counter_value(name);
    }
    return v;
}

/// Record one operation's counter deltas.
void
record_deltas(Report &rep, const CounterValues &before,
              const CounterValues &after)
{
    for (const auto &[name, value] : after) {
        rep.counters[name].push_back(value - before.at(name));
    }
}

double
per_op(const Report &rep, const std::string &name)
{
    const auto it = rep.counters.find(name);
    if (it == rep.counters.end() || it->second.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const auto v : it->second) {
        sum += static_cast<double>(v);
    }
    return sum / static_cast<double>(it->second.size());
}

double
hit_ratio(const Report &rep, const char *cache)
{
    const std::string prefix = std::string("cache.") + cache;
    const double hits = per_op(rep, prefix + ".hits");
    const double misses = per_op(rep, prefix + ".misses");
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans (the traced run)
// ---------------------------------------------------------------------------

struct SpanRecord
{
    const char *name = nullptr;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t tid = 0;
    std::uint64_t arg = 0;  ///< Scenario index or layer index.
};

/// In-memory span log; spans carry the id of the span that caused them.
/// A disabled log records nothing, so the same pass can run untraced.
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    std::uint64_t begin(const char *name, std::uint64_t parent,
                        std::uint32_t tid, std::uint64_t arg = 0)
    {
        if (!enabled_) {
            return 0;
        }
        SpanRecord r;
        r.name = name;
        r.parent = parent;
        r.tid = tid;
        r.arg = arg;
        r.start_ns = trace::now_ns();
        std::lock_guard<std::mutex> lock(mutex_);
        r.id = spans_.size() + 1;
        spans_.push_back(r);
        return r.id;
    }

    void end(std::uint64_t id)
    {
        if (id == 0) {
            return;
        }
        const std::uint64_t t = trace::now_ns();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].end_ns = t;
    }

    std::vector<SpanRecord> spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    const bool enabled_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/// RAII wrapper over SpanLog::begin/end.
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint64_t parent,
               std::uint32_t tid, std::uint64_t arg = 0)
        : log_(log), id_(log.begin(name, parent, tid, arg))
    {
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ~ScopedSpan() { log_.end(id_); }

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

/// Self time of every span: its duration minus the union of the
/// intervals its child spans cover. Returns name -> (sum ns, count).
std::map<std::string, std::pair<double, std::uint64_t>>
self_times(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children;
    for (const auto &s : spans) {
        if (s.parent != 0) {
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::map<std::string, std::pair<double, std::uint64_t>> out;
    for (const auto &s : spans) {
        std::uint64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::uint64_t cur_start = 0;
            std::uint64_t cur_end = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start_ns);
                b = std::min(b, s.end_ns);
                if (b <= a) {
                    continue;
                }
                if (open && a <= cur_end) {
                    cur_end = std::max(cur_end, b);
                } else {
                    if (open) {
                        covered += cur_end - cur_start;
                    }
                    cur_start = a;
                    cur_end = b;
                    open = true;
                }
            }
            if (open) {
                covered += cur_end - cur_start;
            }
        }
        const std::uint64_t dur = s.end_ns - s.start_ns;
        auto &slot = out[s.name];
        slot.first += static_cast<double>(dur - std::min(dur, covered));
        slot.second += 1;
    }
    return out;
}

/// Chrome trace JSON: the benchmark's spans plus the program's own
/// runner.* / service.* events recorded since the last trace::clear().
void
write_chrome_trace(const std::string &path,
                   const std::vector<SpanRecord> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    const auto sep = [&] {
        std::fprintf(f, "%s", first ? "" : ",\n");
        first = false;
    };
    for (const auto &s : spans) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,\"arg\":%llu}}",
                     s.name, static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     s.tid + 1000,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.arg));
    }
    for (const auto &e : trace::snapshot_events()) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"s\":\"t\",\"args\":{\"%s\":%llu,\"%s\":%llu}}",
                     e.name, e.cat, e.phase,
                     static_cast<double>(e.ts_ns) / 1e3,
                     static_cast<double>(e.dur_ns) / 1e3, e.tid,
                     e.arg0_name != nullptr ? e.arg0_name : "a0",
                     static_cast<unsigned long long>(e.arg0),
                     e.arg1_name != nullptr ? e.arg1_name : "a1",
                     static_cast<unsigned long long>(e.arg1));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

// ---------------------------------------------------------------------------
// The traced pass: one batch, step by step through the layer entry points
// ---------------------------------------------------------------------------

/// Layers a scenario evaluates, in workload order (prepare_scenario's
/// selection rule, recomputed so the flip step can precede prepare).
std::vector<std::size_t>
selection_of(const eval::Scenario &s, const Workload &w)
{
    std::vector<std::size_t> sel;
    if (s.layer_filter.empty()) {
        for (std::size_t i = 0; i < w.layers.size(); ++i) {
            sel.push_back(i);
        }
        return sel;
    }
    for (const auto &name : s.layer_filter) {
        sel.push_back(w.layer_index(name));
    }
    std::sort(sel.begin(), sel.end());
    sel.erase(std::unique(sel.begin(), sel.end()), sel.end());
    return sel;
}

/// One scenario through synthesize-or-fetch, flip, pack, column
/// statistics, codecs, SU cost search, prepare_scenario,
/// evaluate_layer_range per layer and finalize_scenario.
eval::ScenarioResult
traced_scenario(SpanLog &log, std::uint32_t tid, eval::Scenario s,
                std::uint64_t rng_seed, std::size_t index)
{
    ScopedSpan root(log, "scenario", 0, tid, index);
    const std::uint64_t parent = root.id();

    // nn: synthesize (private seed) or fetch (shared cache).
    std::shared_ptr<const Workload> w;
    {
        ScopedSpan sp(log, "nn.synth", parent, tid, index);
        if (s.custom_workload) {
            w = s.custom_workload;
        } else if (s.workload_seed == eval::kCachedWorkloadSeed) {
            w = shared_workload(s.workload);
        } else {
            w = std::make_shared<const Workload>(
                build_workload(s.workload, s.workload_seed));
        }
    }
    // The engine evaluates the instance handed to it, so prepare
    // never synthesizes twice; scenario_rng_seed ignores this field.
    s.custom_workload = w;
    const std::vector<std::size_t> sel = selection_of(s, *w);

    // bitflip: the flipped twins of the selected heavy layers.
    std::vector<std::shared_ptr<const Int8Tensor>> flipped(w->layers.size());
    std::vector<std::uint64_t> hashes(w->layers.size());
    for (std::size_t l = 0; l < w->layers.size(); ++l) {
        hashes[l] = w->layers[l].weights_hash;
    }
    {
        ScopedSpan sp(log, "bitflip", parent, tid, index);
        for (const std::size_t l :
             eval::selected_bitflip_layers(*w, s.bitflip, &sel)) {
            flipped[l] = eval::cached_bitflip(
                w->layers[l].weights, w->layers[l].weights_hash,
                s.bitflip.group_size, s.bitflip.zero_columns);
            if (flipped[l]) {
                hashes[l] = eval::flipped_weights_hash(
                    w->layers[l].weights_hash, s.bitflip.group_size,
                    s.bitflip.zero_columns, w->layers[l].weights.numel());
            }
        }
    }
    const auto tensor_of = [&](std::size_t l) -> const Int8Tensor & {
        return flipped[l] ? *flipped[l] : w->layers[l].weights;
    };

    // tensor: pack the planes the engine reads.
    std::vector<Representation> reprs;
    switch (s.engine) {
      case eval::EngineKind::kAnalytical:
        if (s.accel.style == ComputeStyle::kBitColumnSerial) {
            reprs.push_back(s.accel.weight_repr);
        }
        break;
      case eval::EngineKind::kCycleSim:
        reprs.push_back(s.npu.repr);
        break;
      case eval::EngineKind::kStats:
        reprs = {Representation::kTwosComplement,
                 Representation::kSignMagnitude};
        break;
    }
    std::vector<std::vector<std::shared_ptr<const BitPlanes>>> planes(
        reprs.size());
    {
        ScopedSpan sp(log, "tensor.pack", parent, tid, index);
        for (std::size_t r = 0; r < reprs.size(); ++r) {
            planes[r].resize(w->layers.size());
            for (const std::size_t l : sel) {
                planes[r][l] =
                    shared_bitplanes(tensor_of(l), reprs[r], hashes[l]);
            }
        }
    }

    // sparsity + compress: the statistics scenario's column scans and
    // codecs (the other engines reach columns through search_cost).
    if (s.engine == eval::EngineKind::kStats) {
        const int group = s.stats.group_size;
        if (s.stats.column_stats) {
            ScopedSpan sp(log, "sparsity.columns", parent, tid, index);
            for (std::size_t r = 0; r < reprs.size(); ++r) {
                for (const std::size_t l : sel) {
                    (void)analyze_bit_columns(*planes[r][l], group);
                }
            }
        }
        if (s.stats.bcs || s.stats.reference_codecs) {
            ScopedSpan sp(log, "compress.codecs", parent, tid, index);
            for (const std::size_t l : sel) {
                if (s.stats.bcs) {
                    for (std::size_t r = 0; r < reprs.size(); ++r) {
                        (void)bcs_measure(*planes[r][l], group);
                    }
                }
                if (s.stats.reference_codecs) {
                    const Int8Tensor &t = tensor_of(l);
                    (void)zre_compress(t);
                    (void)csr_compress(*planes[0][l], t, t.dim(0));
                }
            }
        }
    }

    // search_cost: the SU choice and the memoized column-cycle and BCS
    // size statistics the analytical model prices BitWave layers with.
    if (s.engine == eval::EngineKind::kAnalytical &&
        s.accel.style == ComputeStyle::kBitColumnSerial &&
        s.accel.sparsity == SparsityMode::kWeightBitColumn) {
        ScopedSpan sp(log, "mapping.cost", parent, tid, index);
        search::MappingCostConfig cfg;
        cfg.repr = s.accel.weight_repr;
        cfg.memory = s.accel.memory;
        cfg.skip_zero_columns = true;
        cfg.compress_weights = s.accel.compress_weights;
        cfg.layer_sequential_dram = s.accel.layer_sequential_dram;
        for (const std::size_t l : sel) {
            const LayerDesc desc = s.accel.map_batch_to_ox
                ? normalized_for_mapping(w->layers[l].desc)
                : w->layers[l].desc;
            const BitPlanes &p = *planes[0][l];
            const SpatialUnrolling &su =
                s.accel.mapping_policy == search::MappingPolicy::kCostAware
                ? search::select_su_cost_aware(desc, s.accel.dataflows, &p,
                                               hashes[l], cfg)
                : select_su(desc, s.accel.dataflows);
            const int group = static_cast<int>(su.group_size());
            (void)search::cached_cycle_stats(p, desc, group,
                                             su.factor(Dim::kK), hashes[l]);
            if (s.accel.compress_weights) {
                (void)search::cached_bcs_size(p, group, hashes[l]);
            }
        }
    }

    // eval: prepare, per-layer evaluation, finalize.
    eval::ScenarioPrep prep;
    {
        ScopedSpan sp(log, "eval.prepare", parent, tid, index);
        prep = eval::prepare_scenario(s);
    }
    const char *layer_span = s.engine == eval::EngineKind::kAnalytical
        ? "model.layer"
        : s.engine == eval::EngineKind::kCycleSim ? "sim.layer"
                                                   : "stats.layer";
    std::vector<eval::LayerEval> layers;
    layers.reserve(prep.layers.size());
    for (std::size_t i = 0; i < prep.layers.size(); ++i) {
        ScopedSpan sp(log, layer_span, parent, tid, prep.layers[i]);
        auto one = eval::evaluate_layer_range(s, prep, rng_seed, i, i + 1);
        layers.push_back(std::move(one.front()));
    }
    ScopedSpan sp(log, "eval.finalize", parent, tid, index);
    return eval::finalize_scenario(s, prep, rng_seed, std::move(layers));
}

/// Run the traced pass over a batch on the default worker count; each
/// worker takes the next scenario. Returns results in batch order.
std::vector<eval::ScenarioResult>
traced_batch(SpanLog &log, const std::vector<eval::Scenario> &scenarios,
             const std::vector<std::uint64_t> &seeds)
{
    std::vector<eval::ScenarioResult> results(scenarios.size());
    std::atomic<std::size_t> next{0};
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> pool;
    std::mutex error_mutex;
    std::exception_ptr error;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            try {
                for (std::size_t i = next.fetch_add(1); i < scenarios.size();
                     i = next.fetch_add(1)) {
                    results[i] = traced_scenario(log, t, scenarios[i],
                                                 seeds[i], i);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                error = std::current_exception();
            }
        });
    }
    for (auto &th : pool) {
        th.join();
    }
    if (error) {
        std::rethrow_exception(error);
    }
    return results;
}

/// Per-layer duration metrics from the traced pass's spans.
void
report_layer_times(Report &rep, const std::vector<SpanRecord> &spans)
{
    const auto self = self_times(spans);
    const auto sum_s = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second.first / 1e9;
    };
    const auto mean_ms = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() || it->second.second == 0
            ? 0.0
            : it->second.first / 1e6 /
                static_cast<double>(it->second.second);
    };
    rep.layer("nn.synth_s", sum_s("nn.synth"), "s");
    rep.layer("bitflip.s", sum_s("bitflip"), "s");
    rep.layer("tensor.pack_s", sum_s("tensor.pack"), "s");
    rep.layer("sparsity.columns_s", sum_s("sparsity.columns"), "s");
    rep.layer("compress.codecs_s", sum_s("compress.codecs"), "s");
    rep.layer("mapping.cost_s", sum_s("mapping.cost"), "s");
    rep.layer("model.layer_ms", mean_ms("model.layer"), "ms");
    rep.layer("sim.layer_ms", mean_ms("sim.layer"), "ms");
    rep.layer("stats.layer_ms", mean_ms("stats.layer"), "ms");
    rep.layer("eval.prepare_s", sum_s("eval.prepare"), "s");
    rep.layer("eval.finalize_ms", sum_s("eval.finalize") * 1e3, "ms");
}

/// The traced pass over @p scenarios: reports per-layer self times,
/// writes the spans to @p trace_path, checks the results against
/// @p expected (the runner path) when given, and returns its wall time.
double
run_traced_pass(Report &rep, const std::string &trace_path,
                const std::vector<eval::Scenario> &scenarios,
                const std::vector<std::uint64_t> &seeds,
                const std::vector<eval::ScenarioResult> *expected,
                std::vector<eval::ScenarioResult> *out)
{
    SpanLog log(true);
    const auto t0 = Clock::now();
    auto results = traced_batch(log, scenarios, seeds);
    const double wall = since(t0);
    const auto spans = log.spans();
    report_layer_times(rep, spans);
    write_chrome_trace(trace_path, spans);
    rep.note("trace_file", trace_path);
    rep.note("trace_spans", std::to_string(spans.size()));
    if (expected != nullptr &&
        !bench::identical_results(results, *expected)) {
        rep.fail_check("traced pass differs from the runner path");
    }
    if (out != nullptr) {
        *out = std::move(results);
    }
    return wall;
}

/// Wall time of the same pass with spans off: the untraced twin that
/// trace.overhead_frac divides the traced pass's wall time by.
double
run_untraced_pass(const std::vector<eval::Scenario> &scenarios,
                  const std::vector<std::uint64_t> &seeds)
{
    SpanLog off(false);
    const auto t0 = Clock::now();
    (void)traced_batch(off, scenarios, seeds);
    return since(t0);
}

/// Start the program's own spans and histograms for a traced section.
void
arm_program_tracing()
{
    trace::clear();
    trace::start();
    metrics::set_enabled(true);
}

/// Stop them and write the program's events to @p path.
void
disarm_program_tracing(Report &rep, const std::string &path)
{
    metrics::set_enabled(false);
    trace::stop();
    write_chrome_trace(path, {});
    rep.note("program_trace_file", path);
}

// ---------------------------------------------------------------------------
// Runner-batch helpers
// ---------------------------------------------------------------------------

std::size_t
layer_count(const std::vector<eval::ScenarioResult> &results)
{
    std::size_t n = 0;
    for (const auto &r : results) {
        n += r.layers.size();
    }
    return n;
}

/// One batch through a fresh default ScenarioRunner.
std::vector<eval::ScenarioResult>
run_batch(const std::vector<eval::Scenario> &scenarios,
          const std::vector<std::uint64_t> &seeds, eval::RunnerReport *report)
{
    return eval::ScenarioRunner().run_seeded(scenarios, seeds, report);
}

void
report_runner(Report &rep, const eval::RunnerReport &r)
{
    const double denom = r.wall_seconds * std::max(1, r.threads_used);
    rep.layer("runner.efficiency",
              denom > 0 ? r.scenario_seconds_sum / denom : 0.0, "frac");
}

/// Per-operation cache and runner counters as per-layer metrics.
void
report_counters(Report &rep)
{
    for (const char *c : kCaches) {
        for (const char *e : kCacheEvents) {
            const std::string name = std::string("cache.") + c + "." + e;
            rep.layer(name, per_op(rep, name), "count");
        }
    }
    rep.layer("cache.bitplanes.hit_ratio", hit_ratio(rep, "bitplanes"),
              "frac");
    rep.layer("cache.mapping_cycles.hit_ratio",
              hit_ratio(rep, "mapping_cycles"), "frac");
    rep.layer("cache.mapping_bcs.hit_ratio", hit_ratio(rep, "mapping_bcs"),
              "frac");
    for (const char *r : {"batches", "chunks", "steals"}) {
        const std::string name = std::string("runner.") + r;
        rep.layer(name, per_op(rep, name), "count");
    }
}

/// Every per-layer metric every workload reports (zero where a layer
/// does not run on that workload), in a fixed order.
void
declare_per_layer(Report &rep)
{
    for (const char *n :
         {"nn.synth_s", "bitflip.s", "tensor.pack_s", "sparsity.columns_s",
          "compress.codecs_s", "mapping.cost_s", "eval.prepare_s"}) {
        rep.layer(n, 0.0, "s");
    }
    for (const char *n : {"model.layer_ms", "sim.layer_ms",
                          "stats.layer_ms", "eval.finalize_ms"}) {
        rep.layer(n, 0.0, "ms");
    }
    rep.layer("runner.efficiency", 0.0, "frac");
    for (const char *n :
         {"service.queue_wait_ms.p50", "service.queue_wait_ms.p99",
          "service.batch_ms.p50", "service.batch_ms.p99",
          "service.compute_ms.p50", "service.compute_ms.p99"}) {
        rep.layer(n, 0.0, "ms");
    }
    rep.layer("service.dedup_ratio", 0.0, "frac");
    rep.layer("service.jobs_per_batch", 0.0, "count");
    rep.layer("service.peak_queue_depth", 0.0, "count");
    rep.layer("gen.late_ms.max", 0.0, "ms");
    rep.layer("trace.overhead_frac", 0.0, "frac");
    report_counters(rep);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
};

/// Where the traced run writes a Chrome trace named @p name.
std::string
trace_path(const std::string &name)
{
    return std::string(PERFBENCH_OUT_DIR) + "/" + name + ".json";
}

/// Common tail of a batch workload's timed run.
void
report_batches(Report &rep, const std::vector<double> &walls,
               std::size_t layers_done, double timed_wall)
{
    rep.e2e("lat_ms.p50", median(walls) * 1e3, "ms");
    rep.e2e("layers_per_s",
            timed_wall > 0 ? static_cast<double>(layers_done) / timed_wall
                           : 0.0,
            "1/s");
    std::string list;
    for (const double w : walls) {
        list += (list.empty() ? "" : " ") + json_number(w);
    }
    rep.note("op_walls_s", list);
}

/// The paper-grid batch: fig14/15/17's grid plus the Section V-B probe
/// pairs, each scenario seeded as in its own bench so the outputs match
/// what fig14_speedup and validation_sim_vs_model print.
struct GridBatch
{
    std::vector<eval::Scenario> scenarios;
    std::vector<std::uint64_t> seeds;
    std::size_t grid_size = 0;
};

GridBatch
make_paper_grid()
{
    GridBatch b;
    b.scenarios = bench::paper_grid();
    b.grid_size = b.scenarios.size();
    for (std::size_t i = 0; i < b.grid_size; ++i) {
        b.seeds.push_back(eval::scenario_rng_seed(b.scenarios[i], i));
    }
    struct Probe { WorkloadId id; const char *layer; };
    const Probe probes[] = {
        {WorkloadId::kCnnLstm, "fc_in"},
        {WorkloadId::kCnnLstm, "LSTM.0"},
        {WorkloadId::kCnnLstm, "LSTM.1"},
        {WorkloadId::kCnnLstm, "fc_out"},
        {WorkloadId::kResNet18, "l4.0.down"},
        {WorkloadId::kResNet18, "fc"},
        {WorkloadId::kBertBase, "layer.0.q"},
        {WorkloadId::kMobileNetV2, "L.50.pw_proj"},
    };
    std::size_t index = 0;
    for (const auto &probe : probes) {
        eval::Scenario sim;
        sim.engine = eval::EngineKind::kCycleSim;
        sim.workload = probe.id;
        sim.layer_filter = {probe.layer};
        eval::Scenario model;
        model.engine = eval::EngineKind::kAnalytical;
        model.accel = make_bitwave(BitWaveVariant::kDfSm);
        model.workload = probe.id;
        model.layer_filter = {probe.layer};
        for (auto *s : {&sim, &model}) {
            b.seeds.push_back(eval::scenario_rng_seed(*s, index++));
            b.scenarios.push_back(std::move(*s));
        }
    }
    return b;
}

/// anchor_err and sim_model_dev of one paper-grid result set.
void
paper_quality(Report &rep, const std::map<std::string, std::string> &refs,
              const GridBatch &b,
              const std::vector<eval::ScenarioResult> &results)
{
    const std::size_t per = bench::kPaperGridPerWorkload;
    double anchor_err = 0.0;
    for (std::size_t w = 0; w * per < b.grid_size; ++w) {
        const auto &scnn = results[w * per];
        const auto &bitwave = results[w * per + per - 1];
        const double speedup = scnn.total_cycles / bitwave.total_cycles;
        double anchor = 0.0;
        if (bitwave.workload == "CNN-LSTM") {
            anchor = 10.1;
        } else if (bitwave.workload == "Bert-Base") {
            anchor = 13.25;
        }
        if (anchor > 0) {
            anchor_err = std::max(anchor_err, std::abs(speedup - anchor));
            rep.note("speedup_vs_scnn." + bitwave.workload,
                     json_number(speedup));
        }
    }
    double worst = 0.0;
    for (std::size_t p = b.grid_size; p + 1 < results.size(); p += 2) {
        const auto &sim = results[p].layers.front();
        const auto &mod = results[p + 1].layers.front();
        worst = std::max(worst,
                         std::abs(sim.compute_cycles / mod.compute_cycles -
                                  1.0));
    }
    check_reference(rep, refs, "paper_grid.anchor_err",
                    json_number(anchor_err));
    check_reference(rep, refs, "paper_grid.sim_model_dev",
                    json_number(worst));
}

/// fresh_nets batch @p index: the four networks synthesized from private
/// seeds under the heavy-layer Bit-Flip flagship, plus one statistics
/// scenario with BCS and the reference codecs.
std::vector<eval::Scenario>
make_fresh_batch(std::uint64_t seed, std::uint64_t index)
{
    std::vector<eval::Scenario> batch;
    std::uint64_t resnet_seed = 0;
    for (std::size_t w = 0; w < std::size(kAllWorkloads); ++w) {
        eval::Scenario s = bench::bitwave_flagship_scenario(kAllWorkloads[w]);
        s.workload_seed = derive_seed(seed, "fresh_net",
                                      index * std::size(kAllWorkloads) + w);
        if (kAllWorkloads[w] == WorkloadId::kResNet18) {
            resnet_seed = s.workload_seed;
        }
        batch.push_back(std::move(s));
    }
    eval::Scenario stats;
    stats.engine = eval::EngineKind::kStats;
    stats.workload = WorkloadId::kResNet18;
    stats.workload_seed = resnet_seed;
    stats.stats.bcs = true;
    stats.stats.reference_codecs = true;
    batch.push_back(std::move(stats));
    return batch;
}

std::vector<std::uint64_t>
batch_seeds(const std::vector<eval::Scenario> &scenarios)
{
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        seeds.push_back(eval::scenario_rng_seed(scenarios[i], i));
    }
    return seeds;
}

/// Digest of fresh_nets batch @p index; seeded inputs have references
/// for the default seed only.
void
check_fresh_digest(Report &rep, const std::map<std::string, std::string> &refs,
                   std::uint64_t seed, std::uint64_t index,
                   const std::vector<eval::ScenarioResult> &results)
{
    const std::string key = "fresh_nets.batch" + std::to_string(index);
    const std::string digest = hex64(digest_results(results));
    if (seed == kDefaultSeed) {
        check_reference(rep, refs, key, digest);
    } else {
        rep.note(key, digest);
    }
}

void
workload_fresh_nets(const Args &args, Report &rep,
                    const std::map<std::string, std::string> &refs)
{
    // Set-up, untimed: the process's first batch (thread pools, allocator
    // growth and the first fresh networks). It is batch 0 of the default
    // seed whatever the workload seed, so every run checks its digest;
    // off its reference, every timed batch fails too.
    const std::size_t failures_before = rep.check_failures.size();
    {
        const auto batch = make_fresh_batch(kDefaultSeed, 0);
        const auto results = run_batch(batch, batch_seeds(batch), nullptr);
        check_fresh_digest(rep, refs, kDefaultSeed, 0, results);
    }
    const bool setup_ok = rep.check_failures.size() == failures_before;
    rep.e2e("setup_s", since(g_process_start), "s");

    // Timed: batches 1, 2, ... of the workload seed (batch 0 of the
    // default seed is warm by now).
    std::uint64_t index = 1;
    std::vector<double> walls;
    std::size_t layers_done = 0;
    eval::RunnerReport last_report;
    const auto t0 = Clock::now();
    do {
        const auto batch = make_fresh_batch(args.seed, index);
        const auto seeds = batch_seeds(batch);
        const auto before = read_counters();
        const auto t = Clock::now();
        const auto results = run_batch(batch, seeds, &last_report);
        walls.push_back(since(t));
        record_deltas(rep, before, read_counters());
        ++rep.attempted;
        const std::size_t bad = rep.check_failures.size();
        check_fresh_digest(rep, refs, args.seed, index, results);
        if (rep.check_failures.size() != bad || !setup_ok) {
            ++rep.failed;
        } else {
            layers_done += layer_count(results);
        }
        ++index;
    } while (since(t0) < args.seconds && !args.trace);
    report_batches(rep, walls, layers_done, since(t0));
    report_runner(rep, last_report);

    if (args.trace) {
        // The untraced twin over the next (cold) batch, the traced pass
        // over the one after it, then the runner path over that same
        // batch for the bit-identity check.
        const auto twin = make_fresh_batch(args.seed, index);
        const double untraced_wall = run_untraced_pass(twin, batch_seeds(twin));
        const auto batch = make_fresh_batch(args.seed, index + 1);
        const auto seeds = batch_seeds(batch);
        std::vector<eval::ScenarioResult> traced;
        const double traced_wall = run_traced_pass(
            rep, trace_path("trace_fresh_nets"), batch, seeds, nullptr,
            &traced);
        arm_program_tracing();
        const auto direct = run_batch(batch, seeds, nullptr);
        disarm_program_tracing(rep, trace_path("trace_fresh_nets_runner"));
        if (!bench::identical_results(traced, direct)) {
            rep.fail_check("traced pass differs from the runner path");
        }
        rep.layer("trace.overhead_frac", traced_wall / untraced_wall - 1.0,
                  "frac");
    }
}

/// Distinct scenarios of a request list, first-seen order, each seeded
/// with its standalone value (the seed the service pins per request).
struct Distinct
{
    std::vector<eval::Scenario> scenarios;
    std::vector<std::uint64_t> seeds;
    std::unordered_map<std::uint64_t, std::size_t> index_of;
};

Distinct
distinct_requests(const std::vector<eval::Scenario> &requests)
{
    Distinct d;
    for (const auto &s : requests) {
        const std::uint64_t fp = eval::scenario_fingerprint(s);
        if (d.index_of.emplace(fp, d.scenarios.size()).second) {
            d.scenarios.push_back(s);
            d.seeds.push_back(eval::scenario_rng_seed(s, 0));
        }
    }
    return d;
}

void
report_service(Report &rep, const service::ServiceStats &st)
{
    const auto ms = [](const metrics::HistogramSnapshot &h, double q) {
        return h.quantile(q) / 1e6;
    };
    rep.layer("service.queue_wait_ms.p50", ms(st.queue_wait_ns, 0.50), "ms");
    rep.layer("service.queue_wait_ms.p99", ms(st.queue_wait_ns, 0.99), "ms");
    rep.layer("service.batch_ms.p50", ms(st.batch_ns, 0.50), "ms");
    rep.layer("service.batch_ms.p99", ms(st.batch_ns, 0.99), "ms");
    rep.layer("service.compute_ms.p50", ms(st.compute_ns, 0.50), "ms");
    rep.layer("service.compute_ms.p99", ms(st.compute_ns, 0.99), "ms");
    rep.layer("service.dedup_ratio",
              st.submitted > 0 ? static_cast<double>(st.dedup_hits) /
                      static_cast<double>(st.submitted)
                               : 0.0,
              "frac");
    rep.layer("service.jobs_per_batch",
              st.batches > 0 ? static_cast<double>(st.batched_jobs) /
                      static_cast<double>(st.batches)
                             : 0.0,
              "count");
    rep.layer("service.peak_queue_depth",
              static_cast<double>(st.peak_queue_depth), "count");
}

/**
 * @p requests as one burst into a default EvalService from a single
 * submitting thread. Every non-kDone ticket and every completion that
 * differs from its golden counts as a failed operation. Records the
 * burst's ServiceStats and how late the submitting thread ran.
 */
void
burst_into_service(Report &rep, const std::vector<eval::Scenario> &requests,
                   const Distinct &d,
                   const std::vector<eval::ScenarioResult> &golden)
{
    service::EvalService svc;
    std::vector<service::EvalTicket> tickets;
    tickets.reserve(requests.size());
    double late = 0.0;
    const auto t0 = Clock::now();
    for (const auto &s : requests) {
        late = since(t0);
        tickets.push_back(svc.submit(s));
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
        ++rep.attempted;
        tickets[i].wait();
        if (tickets[i].status() != service::TicketStatus::kDone) {
            ++rep.failed;
            rep.fail_check("service request " + std::to_string(i) +
                           " did not complete");
        } else if (!bench::identical_result(
                       tickets[i].result(),
                       golden[d.index_of.at(
                           eval::scenario_fingerprint(requests[i]))])) {
            ++rep.failed;
            rep.fail_check("service request " + std::to_string(i) +
                           " differs from direct evaluation");
        }
    }
    svc.shutdown(service::EvalService::ShutdownMode::kAbort);
    report_service(rep, svc.stats());
    rep.layer("gen.late_ms.max", late * 1e3, "ms");
    rep.note("service_requests", std::to_string(requests.size()));
}

void
workload_paper_grid(const Args &args, Report &rep,
                    const std::map<std::string, std::string> &refs)
{
    const GridBatch b = make_paper_grid();
    // Set-up: cold synthesis and the cold batch — what one fig14_speedup
    // invocation pays.
    const auto cold = run_batch(b.scenarios, b.seeds, nullptr);
    rep.e2e("setup_s", since(g_process_start), "s");
    // Warm batches are checked against the cold one, so a cold batch
    // off its references fails every warm batch too.
    const std::size_t failures_before = rep.check_failures.size();
    paper_quality(rep, refs, b, cold);
    check_reference(rep, refs, "paper_grid", hex64(digest_results(cold)));
    const bool cold_ok = rep.check_failures.size() == failures_before;

    // Timed: warm batches, each through a fresh runner.
    std::vector<double> walls;
    std::size_t layers_done = 0;
    eval::RunnerReport last_report;
    const auto t0 = Clock::now();
    do {
        const auto before = read_counters();
        const auto t = Clock::now();
        const auto warm = run_batch(b.scenarios, b.seeds, &last_report);
        walls.push_back(since(t));
        record_deltas(rep, before, read_counters());
        ++rep.attempted;
        if (!bench::identical_results(warm, cold)) {
            ++rep.failed;
            rep.fail_check("warm batch differs from the cold batch");
        } else if (!cold_ok) {
            ++rep.failed;
        } else {
            layers_done += layer_count(warm);
        }
    } while (since(t0) < args.seconds && !args.trace);
    const double timed = since(t0);
    report_batches(rep, walls, layers_done, timed);
    report_runner(rep, last_report);

    if (args.trace) {
        const double untraced_wall = run_untraced_pass(b.scenarios, b.seeds);
        const double traced_wall = run_traced_pass(
            rep, trace_path("trace_paper_grid"), b.scenarios, b.seeds, &cold,
            nullptr);
        rep.layer("trace.overhead_frac", traced_wall / untraced_wall - 1.0,
                  "frac");

        // service: the warm grid as one burst of requests into a
        // default EvalService. The service pins each request to its
        // standalone seed, so the goldens are a batch with those seeds.
        const Distinct d = distinct_requests(b.scenarios);
        const auto golden = run_batch(d.scenarios, d.seeds, nullptr);
        arm_program_tracing();
        burst_into_service(rep, b.scenarios, d, golden);
        disarm_program_tracing(rep, trace_path("trace_paper_grid_service"));
    }
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

double
peak_rss_mb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string
simd_flags()
{
    std::string s = "compiled:";
#if defined(__AVX512F__)
    s += " avx512f";
#endif
#if defined(__AVX2__)
    s += " avx2";
#endif
#if defined(__SSE4_2__)
    s += " sse4.2";
#endif
#if defined(__SSE2__)
    s += " sse2";
#endif
    s += "; cpu:";
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
        s += " avx512f";
    }
    if (__builtin_cpu_supports("avx2")) {
        s += " avx2";
    }
    if (__builtin_cpu_supports("sse4.2")) {
        s += " sse4.2";
    }
#endif
    return s;
}

void
print_report(const Args &args, Report &rep)
{
    rep.e2e("ok_frac",
            rep.attempted > 0 ? static_cast<double>(rep.attempted -
                                                    rep.failed) /
                    static_cast<double>(rep.attempted)
                              : 0.0,
            "frac");
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    std::string out = "{";
    out += "\"workload\":\"" + json_escape(args.workload) + "\"";
    out += ",\"seed\":" + std::to_string(args.seed);
    out += ",\"trace\":" + std::string(args.trace ? "1" : "0");
    out += ",\"correct\":" +
        std::string(rep.check_failures.empty() ? "true" : "false");
    out += ",\"attempted\":" + std::to_string(rep.attempted);
    out += ",\"failed\":" + std::to_string(rep.failed);
    const auto metric_block = [&](const char *key,
                                  const std::vector<Metric> &ms) {
        out += std::string(",\"") + key + "\":{";
        for (std::size_t i = 0; i < ms.size(); ++i) {
            out += (i == 0 ? "\"" : ",\"") + json_escape(ms[i].name) +
                "\":{\"value\":" + json_number(ms[i].value) +
                ",\"unit\":\"" + json_escape(ms[i].unit) + "\"}";
        }
        out += "}";
    };
    metric_block("end_to_end", rep.end_to_end);
    metric_block("per_layer", rep.per_layer);
    out += ",\"counters\":{";
    bool first = true;
    for (const auto &[name, deltas] : rep.counters) {
        std::uint64_t total = 0;
        bool repeats = true;
        for (const auto v : deltas) {
            total += v;
            repeats = repeats && v == deltas.front();
        }
        out += (first ? "\"" : ",\"") + name + "\":{\"delta\":" +
            std::to_string(total) + ",\"ops\":" +
            std::to_string(deltas.size()) + ",\"repeats_within_run\":" +
            (deltas.size() > 1 ? (repeats ? "true" : "false") : "null") +
            "}";
        first = false;
    }
    out += "},\"checks\":[";
    for (std::size_t i = 0; i < rep.check_failures.size(); ++i) {
        out += (i == 0 ? "\"" : ",\"") + json_escape(rep.check_failures[i]) +
            "\"";
    }
    out += "],\"info\":{";
    for (std::size_t i = 0; i < rep.info.size(); ++i) {
        out += (i == 0 ? "\"" : ",\"") + json_escape(rep.info[i].first) +
            "\":\"" + json_escape(rep.info[i].second) + "\"";
    }
    out += "},\"host\":{\"nproc\":" +
        std::to_string(std::thread::hardware_concurrency()) +
        ",\"compiler\":\"" + json_escape(__VERSION__) +
        "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"simd\":\"" +
        simd_flags() + "\"}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper_grid|fresh_nets> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value, nullptr, 0);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value, nullptr);
        } else if (key == "--trace") {
            args.trace = std::strcmp(value, "1") == 0;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !(args.seconds > 0)) {
        return usage();
    }
    // Honest environment: the program runs with its default
    // configuration, so no BITWAVE_* override may be set.
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "BITWAVE_", 8) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; timed "
                         "runs use the default configuration\n", *e);
            return 2;
        }
    }
    const auto refs = load_references(PERFBENCH_REFERENCE);
    if (args.trace) {
        std::error_code ec;
        std::filesystem::create_directories(PERFBENCH_OUT_DIR, ec);
    }

    Report rep;
    declare_per_layer(rep);
    if (args.workload == "paper_grid") {
        workload_paper_grid(args, rep, refs);
    } else if (args.workload == "fresh_nets") {
        workload_fresh_nets(args, rep, refs);
    } else {
        return usage();
    }
    report_counters(rep);
    print_report(args, rep);
    return 0;
}
