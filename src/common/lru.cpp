#include "common/lru.hpp"

#include "common/env.hpp"

namespace bitwave {

std::size_t
cache_capacity_from_env(std::size_t fallback)
{
    const long long v = env_positive_int("BITWAVE_CACHE_ENTRIES", 0);
    if (v > 0) {
        return static_cast<std::size_t>(v);
    }
    return fallback > 0 ? fallback : 1;
}

}  // namespace bitwave
