#include "eval/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/worksteal.hpp"

namespace bitwave::eval {

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
}

/// Registry handles, resolved once: the runner mirrors its per-batch
/// report counters into runner.* so a metrics snapshot sees scheduler
/// behavior without holding a RunnerReport.
struct RunnerMetrics
{
    metrics::Counter &batches = metrics::counter("runner.batches");
    metrics::Counter &chunks = metrics::counter("runner.chunks");
    metrics::Counter &steals = metrics::counter("runner.steals");
    metrics::Histogram &chunk_ns = metrics::histogram("runner.chunk_ns");
    metrics::Histogram &batch_wall_ns =
        metrics::histogram("runner.batch_wall_ns");
};

RunnerMetrics &
runner_metrics()
{
    static RunnerMetrics m;
    return m;
}

/// Per-scenario state shared by the chunks that touch the scenario.
struct ScenarioSlot
{
    /// Synthesis and evaluation cost of its units (diagnostics only).
    std::atomic<std::int64_t> nanos{0};
    /// Set by the first unit that fails the scenario; its other units
    /// are skipped from then on.
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< Written by the unit that set `failed`.
};

/**
 * The batch's flat evaluation-unit space: unit u is one selected layer
 * of one scenario, scenarios laid out contiguously in batch order.
 * Chunk boundaries are free to land anywhere — the executor walks the
 * per-scenario sub-ranges of a chunk, and every layer evaluates from
 * its own (scenario, layer) stream, so the cut is pure scheduling.
 */
struct UnitSpace
{
    std::vector<std::size_t> offsets;  ///< Size n+1; scenario i owns
                                       ///< units [offsets[i], offsets[i+1]).

    std::size_t total() const { return offsets.back(); }

    /// Scenario owning @p unit (offsets is sorted; the hot path is a
    /// cached linear walk from the previous hit inside the executor).
    std::size_t scenario_of(std::size_t unit) const
    {
        const auto it = std::upper_bound(offsets.begin(), offsets.end(),
                                         unit);
        return static_cast<std::size_t>(it - offsets.begin()) - 1;
    }
};

}  // namespace

BatchStalled::BatchStalled(double budget_seconds)
    : EvalError(ErrorKind::kTransient,
                strprintf("evaluation batch exceeded its %.0f ms stall "
                          "budget",
                          budget_seconds * 1e3))
{
}

double
RetryPolicy::delay_seconds(std::uint64_t key, int attempt) const
{
    const double base = std::min(
        backoff_seconds * std::pow(2.0, std::max(attempt - 2, 0)),
        max_backoff_seconds);
    const std::uint64_t draw =
        splitmix64(0x5eedULL ^ key ^ static_cast<std::uint64_t>(attempt));
    return base * (0.5 + 0.5 * static_cast<double>(draw >> 11) * 0x1.0p-53);
}

ScenarioRunner::ScenarioRunner(RunnerOptions options) : options_(options)
{
}

int
ScenarioRunner::effective_threads(std::size_t work_items) const
{
    if (options_.threads > 0) {
        return static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(options_.threads),
            std::max<std::size_t>(work_items, 1)));
    }
    // 0 = hardware concurrency, overridable via BITWAVE_THREADS.
    return parallel_threads(std::max<std::size_t>(work_items, 1));
}

std::vector<ScenarioResult>
ScenarioRunner::run(const std::vector<Scenario> &scenarios,
                    RunnerReport *report) const
{
    return run_seeded(scenarios, {}, report);
}

std::vector<ScenarioResult>
ScenarioRunner::run_seeded(const std::vector<Scenario> &scenarios,
                           const std::vector<std::uint64_t> &seed_overrides,
                           RunnerReport *report,
                           std::vector<std::exception_ptr> *errors) const
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = scenarios.size();
    if (!seed_overrides.empty() && seed_overrides.size() != n) {
        panic("run_seeded: %zu seeds for %zu scenarios",
              seed_overrides.size(), n);
    }
    const std::atomic<bool> *cancel = options_.cancel;
    const double stall_budget = options_.stall_budget_seconds;
    const auto check_cancel = [cancel, stall_budget, t0] {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            throw BatchCancelled();
        }
        if (stall_budget > 0.0 && seconds_since(t0) > stall_budget) {
            throw BatchStalled(stall_budget);
        }
    };
    check_cancel();

    // Resolve every scenario: network skeleton, layer selection and
    // Bit-Flip flags. Nothing synthesizes here. Scenarios on the same
    // (workload, seed) share one pending network, so each of its layers
    // synthesizes once per batch, inside whichever unit reaches it
    // first.
    std::vector<ScenarioPrep> preps(n);
    std::vector<std::uint64_t> seeds(n);
    std::map<std::pair<WorkloadId, std::uint64_t>,
             std::shared_ptr<PendingWorkload>>
        networks;
    for (std::size_t i = 0; i < n; ++i) {
        const Scenario &s = scenarios[i];
        seeds[i] = seed_overrides.empty() ? scenario_rng_seed(s, i)
                                          : seed_overrides[i];
        std::shared_ptr<PendingWorkload> network;
        if (!s.custom_workload) {
            auto &shared = networks[{s.workload, s.workload_seed}];
            if (!shared) {
                shared = scenario_network(s);
            }
            network = shared;
        }
        preps[i] = prepare_scenario(s, std::move(network));
    }

    // The flat unit space: one unit = one selected layer = synthesize
    // it if pending, flip it if selected, evaluate it. Each scenario is
    // one coarse splittable task; the grain is shard_layers. Chunk
    // boundaries only affect scheduling, never results: every layer
    // synthesizes and evaluates from its own seed streams.
    UnitSpace units;
    units.offsets.resize(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        units.offsets[i + 1] = units.offsets[i] + preps[i].layers.size();
    }
    const std::size_t total_units = units.total();
    const std::size_t grain = options_.shard_layers > 0
        ? static_cast<std::size_t>(options_.shard_layers)
        : std::max<std::size_t>(total_units, 1);

    std::vector<std::vector<LayerEval>> layer_results(n);
    for (std::size_t i = 0; i < n; ++i) {
        layer_results[i].resize(preps[i].layers.size());
    }
    std::vector<ScenarioSlot> slots(n);
    std::atomic<std::int64_t> retries{0};

    // Selected layers [local_begin, local_end) of scenario i: synthesize
    // and evaluate them and scatter the records into place. Disjoint
    // sub-ranges write disjoint slots.
    const auto run_units = [&](std::size_t i, std::size_t local_begin,
                               std::size_t local_end) {
        // Context-tagged by scenario label so a chaos test can
        // poison exactly one job of a coalesced batch
        // (`runner.chunk@<label>=1:transient`).
        BITWAVE_FAULT_INJECT_CTX("runner.chunk",
                                 fault::context_tag(scenarios[i].label));
        const std::uint64_t tr0 = trace::enabled() ? trace::now_ns() : 0;
        const auto s0 = std::chrono::steady_clock::now();
        // Synthesize the sub-range's pending layers that no other
        // unit is building; evaluation then waits for the rest, so
        // units walking one network split its synthesis instead of
        // queueing behind each other.
        for (std::size_t sel = local_begin;
             preps[i].network && sel < local_end; ++sel) {
            const std::size_t l = preps[i].layers[sel];
            const std::uint64_t sy0 = trace::enabled() ? trace::now_ns() : 0;
            if (preps[i].network->try_materialize(l) && sy0 != 0) {
                trace::emit_complete("runner.synth", "runner", sy0,
                                     trace::now_ns() - sy0, "scenario", i,
                                     "layer", l);
            }
        }
        auto evals = evaluate_layer_range(scenarios[i], preps[i], seeds[i],
                                          local_begin, local_end);
        const std::int64_t chunk_nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - s0).count();
        slots[i].nanos.fetch_add(chunk_nanos, std::memory_order_relaxed);
        runner_metrics().chunk_ns.record(
            static_cast<std::uint64_t>(chunk_nanos));
        if (tr0 != 0) {
            trace::emit_complete("runner.chunk", "runner", tr0,
                                 trace::now_ns() - tr0, "scenario", i,
                                 "layers", local_end - local_begin);
        }
        auto &slot = layer_results[i];
        for (std::size_t k = 0; k < evals.size(); ++k) {
            slot[local_begin + k] = std::move(evals[k]);
        }
    };

    // run_units with the fault policy: a transient FaultError re-runs
    // the sub-range in place after a backoff; anything else (or a
    // transient out of attempts) fails scenario i alone. A cancel or a
    // stall propagates and aborts the batch.
    const auto fail_scenario = [&](std::size_t i, std::exception_ptr error) {
        if (!slots[i].failed.exchange(true, std::memory_order_acq_rel)) {
            slots[i].error = std::move(error);
        }
    };
    const auto run_units_retrying = [&](std::size_t i,
                                        std::size_t local_begin,
                                        std::size_t local_end) {
        for (int attempt = 1;; ++attempt) {
            try {
                run_units(i, local_begin, local_end);
                return;
            } catch (const BatchCancelled &) {
                throw;
            } catch (const BatchStalled &) {
                throw;
            } catch (const FaultError &e) {
                if (e.kind() != ErrorKind::kTransient ||
                    attempt >= options_.retry.max_attempts) {
                    fail_scenario(i, std::current_exception());
                    return;
                }
            } catch (...) {
                fail_scenario(i, std::current_exception());
                return;
            }
            retries.fetch_add(1, std::memory_order_relaxed);
            trace::instant("runner.retry", "runner", "scenario", i,
                           "attempt", static_cast<std::uint64_t>(attempt));
            std::this_thread::sleep_for(std::chrono::duration<double>(
                options_.retry.delay_seconds(seeds[i] ^ local_begin,
                                             attempt + 1)));
            check_cancel();
        }
    };

    // One chunk [begin, end) of the unit space: run each per-scenario
    // sub-range whose scenario has not failed yet.
    const auto execute = [&](std::size_t begin, std::size_t end) {
        // Cancel and stall budget poll once per chunk: the abort rides
        // the scheduler's existing first-exception-wins protocol, so no
        // worksteal-core changes are needed and the check works
        // identically on the inline single-thread path.
        check_cancel();
        std::size_t i = units.scenario_of(begin);
        while (begin < end) {
            while (units.offsets[i + 1] <= begin) {
                ++i;
            }
            const std::size_t local_begin = begin - units.offsets[i];
            const std::size_t local_end =
                std::min(end, units.offsets[i + 1]) - units.offsets[i];
            if (!slots[i].failed.load(std::memory_order_relaxed)) {
                run_units_retrying(i, local_begin, local_end);
            }
            begin = units.offsets[i] + local_end;
        }
    };

    const int threads = effective_threads(total_units);
    WorkstealOptions wopts;
    wopts.threads = threads;
    wopts.grain = grain;
    wopts.chaos_seed = options_.chaos_seed;
    const WorkstealStats sched = worksteal_run(total_units, execute, wopts);

    // Deterministic reduction: totals accumulate in layer order inside
    // finalize_scenario, independent of chunk boundaries.
    trace::Span finalize_span("runner.finalize", "runner");
    finalize_span.arg("scenarios", n);
    std::vector<ScenarioResult> results(n);
    int chunk_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!slots[i].error) {
            results[i] = finalize_scenario(scenarios[i], preps[i], seeds[i],
                                           std::move(layer_results[i]));
        }
        results[i].wall_seconds = static_cast<double>(
            slots[i].nanos.load(std::memory_order_relaxed)) * 1e-9;
        chunk_count += static_cast<int>(
            (preps[i].layers.size() + grain - 1) / grain);
    }

    const double wall_seconds = seconds_since(t0);
    RunnerMetrics &rm = runner_metrics();
    rm.batches.inc();
    rm.chunks.inc(static_cast<std::uint64_t>(std::max<std::int64_t>(
        sched.chunks, 0)));
    rm.steals.inc(static_cast<std::uint64_t>(std::max<std::int64_t>(
        sched.steals, 0)));
    rm.batch_wall_ns.record(
        static_cast<std::uint64_t>(wall_seconds * 1e9));

    if (report != nullptr) {
        report->threads_used = threads;
        report->shards = chunk_count;
        report->chunks = sched.chunks;
        report->steals = sched.steals;
        report->retries = retries.load(std::memory_order_relaxed);
        report->wall_seconds = wall_seconds;
        report->scenario_seconds_sum = 0.0;
        for (const auto &r : results) {
            report->scenario_seconds_sum += r.wall_seconds;
        }
    }
    if (errors != nullptr) {
        errors->assign(n, nullptr);
        for (std::size_t i = 0; i < n; ++i) {
            (*errors)[i] = slots[i].error;
        }
    } else {
        for (const ScenarioSlot &slot : slots) {
            if (slot.error) {
                std::rethrow_exception(slot.error);
            }
        }
    }
    return results;
}

}  // namespace bitwave::eval
