/**
 * @file
 * Edge-case tensors for the word-parallel weight kernels (sparsity
 * histogram, bit-serial lane maxima, bit-interleave windows, ZRE
 * counting). Each test suite compares its kernel against a local
 * element-at-a-time reference over these inputs.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace bitwave::test {

/// A named kernel input.
using NamedTensor = std::pair<std::string, Int8Tensor>;

/// @p n values uniform over the whole int8 range, -128 (0x80) included.
inline Int8Tensor
full_range_tensor(std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor t({n});
    for (std::int64_t i = 0; i < n; ++i) {
        t[i] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    return t;
}

/**
 * Inputs that stress the packed kernels' edges: -128 bytes (which the
 * sign-magnitude encoding clamps to 0xFF), all-zero and all-(-1)
 * tensors, lengths around the 8- and 64-element word/chunk boundaries
 * (including empty), and zero runs of 15..130 placed across 64-element
 * chunk boundaries with a trailing run.
 */
inline std::vector<NamedTensor>
adversarial_tensors()
{
    std::vector<NamedTensor> out;
    for (std::int64_t n : {0, 1, 7, 63, 64, 65, 4097}) {
        out.emplace_back("random_n" + std::to_string(n),
                         full_range_tensor(n, 0xC0DEULL + n));
    }
    for (std::int64_t n : {1, 65, 4097}) {
        Int8Tensor zeros({n});
        out.emplace_back("zeros_n" + std::to_string(n), zeros);
        Int8Tensor minus_one({n});
        minus_one.fill(-1);
        out.emplace_back("minus_one_n" + std::to_string(n), minus_one);
        Int8Tensor most_negative({n});
        most_negative.fill(-128);
        out.emplace_back("minus_128_n" + std::to_string(n), most_negative);
    }
    {
        // -128 interleaved with small magnitudes of both signs.
        Int8Tensor t({257});
        for (std::int64_t i = 0; i < t.numel(); ++i) {
            const std::int8_t cycle[] = {-128, 1, -1, 0, 127, -127, -128, 3};
            t[i] = cycle[i % 8];
        }
        out.emplace_back("minus_128_mixed", t);
    }
    {
        // Zero runs of 15, 16, 17, 31, 32 and 130 between dense values,
        // each starting a few elements before a 64-element boundary,
        // then a trailing run.
        std::vector<std::int8_t> v;
        Rng rng(0x2E20ULL);
        const auto dense = [&](std::int64_t count) {
            for (std::int64_t i = 0; i < count; ++i) {
                v.push_back(static_cast<std::int8_t>(
                    rng.uniform_int(1, 127) * (rng.bernoulli(0.5) ? 1 : -1)));
            }
        };
        for (std::int64_t run : {15, 16, 17, 31, 32, 130}) {
            const std::int64_t pos = static_cast<std::int64_t>(v.size());
            dense(64 - pos % 64 + 57);  // run starts at 57 mod 64
            v.insert(v.end(), static_cast<std::size_t>(run), 0);
        }
        dense(5);
        v.insert(v.end(), 37, 0);
        const auto n = static_cast<std::int64_t>(v.size());
        out.emplace_back("zero_runs", Int8Tensor({n}, std::move(v)));
    }
    {
        // Same runs at offset 0 of a chunk, and a run that exactly fills
        // the tensor's tail chunk.
        std::vector<std::int8_t> v(64, 5);
        for (std::int64_t run : {15, 16, 17, 31, 32, 130}) {
            v.insert(v.end(), static_cast<std::size_t>(run), 0);
            v.push_back(-3);
            while (v.size() % 64 != 0) {
                v.push_back(2);
            }
        }
        v.insert(v.end(), 64 + 16, 0);
        const auto n = static_cast<std::int64_t>(v.size());
        out.emplace_back("zero_runs_aligned", Int8Tensor({n}, std::move(v)));
    }
    {
        // Sparse random: mostly zeros, so every run length occurs.
        Rng rng(0x5BA5EULL);
        Int8Tensor t({4099});
        for (std::int64_t i = 0; i < t.numel(); ++i) {
            t[i] = rng.bernoulli(0.93)
                ? 0
                : static_cast<std::int8_t>(rng.uniform_int(-128, 127));
        }
        out.emplace_back("sparse_random", t);
    }
    return out;
}

}  // namespace bitwave::test
