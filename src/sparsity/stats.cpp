#include "sparsity/stats.hpp"

#include <array>
#include <limits>

#include "common/bits.hpp"

namespace bitwave {

double
SparsityStats::value_sparsity() const
{
    return words > 0
        ? static_cast<double>(zero_words) / static_cast<double>(words) : 0.0;
}

double
SparsityStats::bit_sparsity(Representation repr) const
{
    if (bits == 0) {
        return 0.0;
    }
    const std::int64_t zeros = repr == Representation::kTwosComplement
        ? zero_bits_2c : zero_bits_sm;
    return static_cast<double>(zeros) / static_cast<double>(bits);
}

double
SparsityStats::sparsity_ratio(Representation repr) const
{
    const double vs = value_sparsity();
    const double bs = bit_sparsity(repr);
    if (vs <= 0.0) {
        return bs > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
    }
    return bs / vs;
}

void
SparsityStats::merge(const SparsityStats &other)
{
    words += other.words;
    zero_words += other.zero_words;
    bits += other.bits;
    zero_bits_2c += other.zero_bits_2c;
    zero_bits_sm += other.zero_bits_sm;
}

SparsityStats
compute_sparsity(const Int8Tensor &tensor)
{
    // One pass fills a 256-bin value histogram (four interleaved copies,
    // so runs of equal bytes do not serialize on one counter); zero
    // words and the zero bits of both encodings then fold out of the
    // 256 bins as exact integer products.
    std::array<std::array<std::int64_t, 256>, 4> hist{};
    const std::int8_t *data = tensor.data();
    const auto bin = [data](std::int64_t i) {
        return static_cast<std::uint8_t>(data[i]);
    };
    const std::int64_t n = tensor.numel();
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        ++hist[0][bin(i)];
        ++hist[1][bin(i + 1)];
        ++hist[2][bin(i + 2)];
        ++hist[3][bin(i + 3)];
    }
    for (; i < n; ++i) {
        ++hist[0][bin(i)];
    }

    SparsityStats stats;
    stats.words = n;
    stats.bits = n * kWordBits;
    for (int byte = 0; byte < 256; ++byte) {
        const std::int64_t count = hist[0][byte] + hist[1][byte] +
            hist[2][byte] + hist[3][byte];
        const auto value = static_cast<std::int8_t>(byte);
        if (value == 0) {
            stats.zero_words = count;
        }
        stats.zero_bits_2c +=
            count * (kWordBits - bit_count_twos_complement(value));
        stats.zero_bits_sm +=
            count * (kWordBits - bit_count_sign_magnitude(value));
    }
    return stats;
}

}  // namespace bitwave
