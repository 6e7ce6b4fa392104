/**
 * @file
 * Thread-safe LRU cache for the process-wide content caches (Bit-Flip
 * twins, packed bit planes, layer stats, mapping memos).
 *
 * One map under one shared mutex. The hot read path — a hit on a
 * resident entry — takes the lock *shared* and records recency with a
 * relaxed atomic tick instead of a list splice, so concurrent hits
 * never serialize; only a miss (insert + possible eviction) takes the
 * lock exclusively. Eviction removes the entry with the smallest tick,
 * which for sequential access is exactly the least-recently-used entry.
 * The capacity is the cache's true total and is honoured exactly.
 *
 * Entries build exactly once under a per-entry once_flag, outside the
 * lock, so concurrent first requests for the same key never duplicate
 * work and builds of different keys never serialize. Eviction drops the
 * cache's reference only; holders of the returned shared_ptr (including
 * an in-flight builder) keep the value alive.
 *
 * Every cache reads its capacity from the BITWAVE_CACHE_ENTRIES
 * environment variable (one knob for all of them), falling back to a
 * per-cache default, so long-running batches can bound residency.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/annotations.hpp"
#include "common/metrics.hpp"

namespace bitwave {

/**
 * Capacity of a process-wide cache in entries: the value of
 * BITWAVE_CACHE_ENTRIES when set to a positive integer, else
 * @p fallback. Read per call; never returns 0.
 */
std::size_t cache_capacity_from_env(std::size_t fallback);

/**
 * Thread-safe LRU map from Key to immutable shared values.
 *
 * @tparam Key   hashable, equality-comparable, copyable key.
 * @tparam Value cached value type (held as shared_ptr<const Value>).
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache
{
  public:
    /**
     * @p capacity entries are retained (at least 1). A non-null
     * @p metric_name publishes the cache's hit/miss/eviction counters
     * as `cache.<metric_name>.{hits,misses,evictions}` in the global
     * metrics registry (the hits()/misses()/evictions() accessors then
     * read the registry counters, and snapshots/Prometheus dumps see
     * this cache by name).
     */
    explicit LruCache(std::size_t capacity,
                      const char *metric_name = nullptr)
        : capacity_(std::max<std::size_t>(capacity, 1))
    {
        if (metric_name != nullptr) {
            const std::string prefix = std::string("cache.") + metric_name;
            hits_ = &metrics::counter(prefix + ".hits");
            misses_ = &metrics::counter(prefix + ".misses");
            evictions_ = &metrics::counter(prefix + ".evictions");
        }
    }

    /**
     * Return the cached value for @p key, building it via `build()`
     * (a callable returning Value) on the first request. The returned
     * pointer stays valid after eviction. @p was_hit, when non-null,
     * reports whether the key was already resident.
     */
    template <typename Build>
    std::shared_ptr<const Value> get_or_build(const Key &key, Build &&build,
                                              bool *was_hit = nullptr)
    {
        std::shared_ptr<Entry> entry;
        bool hit = false;
        {
            SharedLock lock(mutex_);
            // as_const: the const find() overload keeps this a *read*
            // of the guarded map, legal under the shared capability.
            const auto &map = std::as_const(map_);
            auto it = map.find(key);
            if (it != map.end()) {
                entry = it->second;
                hit = true;
                bump_recency(*entry);
            }
        }
        if (!hit) {
            ExclusiveLock lock(mutex_);
            auto [it, inserted] = map_.try_emplace(key);
            if (inserted) {
                it->second = std::make_shared<Entry>();
            } else {
                hit = true;  // Raced with another inserter between locks.
            }
            entry = it->second;
            bump_recency(*entry);
            while (map_.size() > capacity_) {
                evict_oldest();
            }
        }
        (hit ? *hits_ : *misses_).inc();
        if (was_hit != nullptr) {
            *was_hit = hit;
        }
        std::call_once(entry->once, [&] {
            entry->value = std::make_shared<const Value>(build());
        });
        return entry->value;
    }

    std::size_t size() const
    {
        SharedLock lock(mutex_);
        return map_.size();
    }
    std::size_t capacity() const { return capacity_; }
    std::int64_t hits() const
    {
        return static_cast<std::int64_t>(hits_->value());
    }
    std::int64_t misses() const
    {
        return static_cast<std::int64_t>(misses_->value());
    }
    std::int64_t evictions() const
    {
        return static_cast<std::int64_t>(evictions_->value());
    }

  private:
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const Value> value;
        std::atomic<std::uint64_t> tick{0};  ///< Last-access recency.
    };

    void bump_recency(Entry &entry)
    {
        entry.tick.store(tick_.fetch_add(1, std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }

    void evict_oldest() REQUIRES(mutex_)
    {
        auto oldest = map_.begin();
        std::uint64_t oldest_tick =
            oldest->second->tick.load(std::memory_order_relaxed);
        for (auto it = std::next(oldest); it != map_.end(); ++it) {
            const std::uint64_t t =
                it->second->tick.load(std::memory_order_relaxed);
            if (t < oldest_tick) {
                oldest = it;
                oldest_tick = t;
            }
        }
        map_.erase(oldest);
        evictions_->inc();
    }

    mutable SharedMutexCap mutex_;
    std::unordered_map<Key, std::shared_ptr<Entry>, Hash>
        map_ GUARDED_BY(mutex_);
    const std::size_t capacity_;
    std::atomic<std::uint64_t> tick_{0};
    /// Unnamed caches count into their own private counters; named
    /// ones point at registry counters (stable addresses, never
    /// freed).
    metrics::Counter own_hits_;
    metrics::Counter own_misses_;
    metrics::Counter own_evictions_;
    metrics::Counter *hits_ = &own_hits_;
    metrics::Counter *misses_ = &own_misses_;
    metrics::Counter *evictions_ = &own_evictions_;
};

}  // namespace bitwave
