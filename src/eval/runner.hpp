/**
 * @file
 * ScenarioRunner — evaluates a batch of Scenarios on work-stealing
 * worker threads and returns results in batch order.
 *
 * One flat pipeline: the unit of work is one selected layer of one
 * scenario — synthesize the layer if its network is still pending,
 * flip it if selected, evaluate it. Scenarios on the same
 * (workload, seed) share one pending network, so each layer
 * synthesizes once per batch, in whichever unit reaches it first. Each
 * scenario enters the pool as one coarse splittable task over its
 * selected layers; owners execute `RunnerOptions::shard_layers`-sized
 * chunks LIFO from their own deque and idle workers steal the far end
 * of a task FIFO (halving it per steal), so a cold BERT-class network
 * synthesizes and evaluates across the whole pool instead of pinning
 * the batch's wall clock to a single worker.
 *
 * Determinism contract: every scenario's result is a pure function of
 * (scenario, batch index) — the per-scenario RNG seed is derived from the
 * batch position, per-layer streams from (seed, layer index), and
 * synthesis streams from (network seed, layer index), never from thread
 * identity or chunk boundaries — so an N-thread run is
 * bit-identical to a 1-thread run, under any steal order (modulo the
 * `wall_seconds` diagnostics). The adversarial-scheduler tests pin this
 * with forced steals (`RunnerOptions::chaos_seed`).
 *
 * Faults stay local for the same reason. A transient FaultError re-runs
 * its per-scenario sub-range in place (`RunnerOptions::retry`), and the
 * re-run is bit-identical: a layer whose synthesis threw is pending
 * again, and evaluation reads only its own streams. Any other error, or
 * a transient whose attempts ran out, fails only its own scenario; the
 * rest of the batch completes. Only cancellation and an exceeded stall
 * budget abort the batch.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <vector>

#include "eval/engine.hpp"
#include "eval/error.hpp"
#include "eval/scenario.hpp"

namespace bitwave::eval {

/**
 * Thrown out of run()/run_seeded() when `RunnerOptions::cancel` flips
 * mid-batch: the batch aborts at the next chunk boundary (partial
 * results are discarded) and the flag's owner — e.g. a service request
 * whose deadline expired — decides what to tell its clients.
 */
class BatchCancelled : public std::runtime_error
{
  public:
    BatchCancelled() : std::runtime_error("evaluation batch cancelled") {}
};

/**
 * Thrown out of run()/run_seeded() when the batch outruns
 * `RunnerOptions::stall_budget_seconds`: like a cancel, the batch
 * aborts at the next chunk boundary and partial results are discarded.
 * Its kind is kTransient, so the caller may re-run the whole batch; the
 * runner never retries it per unit.
 */
class BatchStalled : public EvalError
{
  public:
    explicit BatchStalled(double budget_seconds);
};

/**
 * How transient faults are retried. Only kTransient FaultErrors retry;
 * the delay before each further attempt doubles up to a cap and is
 * scaled by a jitter factor in [0.5, 1.0] drawn from (key, attempt) —
 * the same work always waits the same time, distinct work decorrelates.
 */
struct RetryPolicy
{
    int max_attempts = 3;  ///< Total attempts including the first.
    double backoff_seconds = 0.01;      ///< Base delay before attempt 2.
    double max_backoff_seconds = 1.0;   ///< Cap on the un-jittered delay.

    /// Delay before attempt @p attempt (2 = first retry) of the work
    /// identified by @p key.
    double delay_seconds(std::uint64_t key, int attempt) const;
};

/// Runner knobs.
struct RunnerOptions
{
    /**
     * Worker threads; 0 = hardware concurrency (BITWAVE_THREADS).
     * 1 runs the whole batch on the caller's thread, nested loops
     * (synthesis, Bit-Flip) included.
     */
    int threads = 0;
    /**
     * Intra-scenario splitting: maximum selected layers per executed
     * chunk (the work-stealing grain). BERT-Base (72 layers) fans out
     * into 72/shard_layers chunks. <= 0 evaluates each scenario as a
     * single unsplittable task.
     */
    int shard_layers = 8;
    /**
     * Adversarial test scheduler seed (see WorkstealOptions): non-zero
     * forces seeded steal-first scheduling and reverses the initial
     * task order. Results must stay bit-identical — never needed
     * outside tests.
     */
    std::uint64_t chaos_seed = 0;
    /**
     * Cooperative batch-abort flag, polled at batch start, at chunk
     * boundaries and after every retry backoff. When the pointed-to
     * flag becomes true, the batch stops issuing work and run() throws
     * BatchCancelled. The flag must outlive the run() call; nullptr
     * (default) disables cancellation. The evaluation service sets this
     * per batch to implement client cancels and shutdown(kAbort).
     */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Stall budget of one run() call, checked where `cancel` is polled:
     * a batch still running after this many seconds stops issuing work
     * and run() throws BatchStalled. <= 0 disables it (default) and
     * reads no clock.
     */
    double stall_budget_seconds = 0.0;
    /// In-place retry of transiently failed units (see the file
    /// comment).
    RetryPolicy retry;
};

/// Aggregate diagnostics of one run() call.
struct RunnerReport
{
    int threads_used = 0;
    int shards = 0;            ///< Evaluation chunks (grain-sized).
    std::int64_t chunks = 0;   ///< Executed body chunks (scheduler view:
                               ///< includes split-on-steal fragments).
    std::int64_t steals = 0;   ///< Cross-worker steals.
    std::int64_t retries = 0;  ///< Transient unit faults re-run in place.
    double wall_seconds = 0.0;          ///< End-to-end batch wall time.
    double scenario_seconds_sum = 0.0;  ///< Sum of per-scenario costs
                                        ///< (synthesis + evaluation).

    /// Parallel efficiency proxy: total scenario work / batch wall time.
    double speedup() const
    {
        return wall_seconds > 0 ? scenario_seconds_sum / wall_seconds
                                : 1.0;
    }
};

/// Work-stealing evaluator for scenario batches.
class ScenarioRunner
{
  public:
    explicit ScenarioRunner(RunnerOptions options = {});

    /**
     * Evaluate @p scenarios and return their results in batch order.
     * @p report, when non-null, receives the run diagnostics.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &scenarios,
                                    RunnerReport *report = nullptr) const;

    /**
     * Re-entrant seeded submission path for batch composers: evaluate
     * @p scenarios with caller-supplied per-scenario RNG seeds instead
     * of deriving them from the batch position. The evaluation service
     * coalesces requests submitted at different times into one batch;
     * pinning each request's seed to its *standalone* value
     * (`scenario_rng_seed(s, 0)`) keeps every coalesced result
     * bit-identical to a direct per-request evaluation regardless of
     * where the batcher placed it. @p seeds must match @p scenarios in
     * size. Safe to call from multiple service dispatcher threads at
     * once — the runner holds no mutable state across calls.
     *
     * @p errors, when non-null, receives one entry per scenario: null
     * for a result, the failure otherwise (that scenario's result is
     * left default). When null, run()/run_seeded() rethrow the failure
     * of the lowest-index failed scenario once the batch has finished.
     */
    std::vector<ScenarioResult> run_seeded(
        const std::vector<Scenario> &scenarios,
        const std::vector<std::uint64_t> &seeds,
        RunnerReport *report = nullptr,
        std::vector<std::exception_ptr> *errors = nullptr) const;

    /// Threads run() will use for @p work_items parallel work items.
    int effective_threads(std::size_t work_items) const;

  private:
    RunnerOptions options_;
};

}  // namespace bitwave::eval
