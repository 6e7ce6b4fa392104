/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All synthetic data in the repository (weights, activations, calibration
 * inputs) flows through this generator so experiments are reproducible
 * run-to-run and the benches regenerate identical tables.
 *
 * The engine and every distribution are written out here instead of
 * taken from <random>, whose distribution algorithms are
 * implementation-defined (a libc++ build would synthesize different
 * networks). Each reproduces what libstdc++ 12 computes, bit for bit:
 *
 *  - next_u64(): std::mt19937_64 (MT19937-64) seeded through
 *    mersenne_twister_engine::seed(result_type). The state is refilled
 *    in one branch-free block twist and then tempered as a block, so a
 *    draw is one load.
 *  - uniform(): std::uniform_real_distribution<double>(0, 1), i.e.
 *    std::generate_canonical<double, 53> over one word: the word
 *    rounded to double, scaled by 2^-64, clamped to nextafter(1, 0).
 *  - gaussian(): std::normal_distribution's Marsaglia polar method. A
 *    distribution object built per call drops the second variate of
 *    each pair, and so does this.
 *  - uniform_int(): std::uniform_int_distribution<std::int64_t>, i.e.
 *    Lemire's nearly divisionless bounded multiply on 128-bit
 *    products; the full int64 range takes the raw word.
 *  - bernoulli(p): std::bernoulli_distribution, i.e. uniform() < p.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace bitwave {

/**
 * A seeded pseudo-random generator with the distribution helpers the
 * workload synthesizer needs (Gaussian / Laplacian / uniform / Bernoulli).
 */
class Rng
{
  public:
    /// Construct with an explicit seed; identical seeds yield identical
    /// streams.
    explicit Rng(std::uint64_t seed = 0x5eedULL);

    /// Next raw 64-bit word of the MT19937-64 stream.
    std::uint64_t
    next_u64()
    {
        if (pos_ == kStateWords) {
            refill();
        }
        return tempered_[pos_++];
    }

    /// Uniform double in [0, 1).
    double
    uniform()
    {
        // double(r) * 2^-64, rounded once: both halves convert and scale
        // exactly, so the sum is the correctly rounded value without the
        // sign-bit branch of a direct uint64 -> double conversion.
        const std::uint64_t r = next_u64();
        const double u = static_cast<double>(r >> 32) * 0x1p-32 +
                         static_cast<double>(r & 0xFFFFFFFFULL) * 0x1p-64;
        return std::min(u, 0x1.fffffffffffffp-1);  // nextafter(1, 0)
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t
    uniform_int(std::int64_t lo, std::int64_t hi)
    {
        __extension__ using Wide = unsigned __int128;
        const std::uint64_t range =
            static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
        std::uint64_t r;
        if (range == ~std::uint64_t{0}) {
            r = next_u64();
        } else {
            const std::uint64_t span = range + 1;
            Wide product = Wide{next_u64()} * span;
            std::uint64_t low = static_cast<std::uint64_t>(product);
            if (low < span) {
                const std::uint64_t threshold = (0 - span) % span;
                while (low < threshold) {
                    product = Wide{next_u64()} * span;
                    low = static_cast<std::uint64_t>(product);
                }
            }
            r = static_cast<std::uint64_t>(product >> 64);
        }
        return static_cast<std::int64_t>(r + static_cast<std::uint64_t>(lo));
    }

    /// Zero-mean Gaussian sample with standard deviation @p sigma.
    double
    gaussian(double sigma)
    {
        double x, y, r2;
        do {
            x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        // `+ 0.0` is the distribution's `+ mean`: it turns the -0.0 that
        // r2 == 1 yields into +0.0.
        return y * std::sqrt(-2.0 * std::log(r2) / r2) * sigma + 0.0;
    }

    /**
     * Zero-mean Laplacian sample with scale @p b.
     *
     * Quantized DNN weights are well modeled as Laplacian: a sharp peak of
     * small magnitudes with heavier tails than a Gaussian, the property the
     * paper's Fig. 4(b) histogram shows and that drives sign-magnitude
     * bit-column sparsity.
     */
    double
    laplacian(double b)
    {
        // Inverse-CDF sampling: u in (-0.5, 0.5), x = -b * sgn(u) *
        // ln(1-2|u|).
        double u = uniform() - 0.5;
        const double sign = u < 0 ? -1.0 : 1.0;
        u = std::abs(u);
        // Guard against log(0) when uniform() returned exactly 0.5.
        const double t = std::max(1.0 - 2.0 * u, 1e-300);
        return -b * sign * std::log(t);
    }

    /// Bernoulli trial with probability @p p of returning true.
    bool bernoulli(double p) { return uniform() < p; }

  private:
    static constexpr std::size_t kStateWords = 312;

    /// Twist the whole state in one pass, temper it into tempered_ and
    /// rewind to its first word.
    void refill();

    std::uint64_t state_[kStateWords];
    std::uint64_t tempered_[kStateWords];
    std::size_t pos_ = kStateWords;
};

}  // namespace bitwave
