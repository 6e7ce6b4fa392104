#include "common/rng.hpp"

namespace bitwave {

namespace {

constexpr std::size_t kShift = 156;  // MT19937-64's m
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One MT19937-64 recurrence step. The conditional XOR with the twist
/// matrix is a mask from the low bit, so no step branches on the data.
inline std::uint64_t
twist(std::uint64_t cur, std::uint64_t next, std::uint64_t far)
{
    const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; ++i) {
        const std::uint64_t prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
}

void
Rng::refill()
{
    constexpr std::size_t n = kStateWords;
    std::size_t k = 0;
    for (; k < n - kShift; ++k) {
        state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < n - 1; ++k) {
        state_[k] =
            twist(state_[k], state_[k + 1], state_[k + kShift - n]);
    }
    state_[n - 1] = twist(state_[n - 1], state_[0], state_[kShift - 1]);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t z = state_[i];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        tempered_[i] = z ^ (z >> 43);
    }
    pos_ = 0;
}

}  // namespace bitwave
