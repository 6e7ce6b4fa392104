#include "compress/zre.hpp"

#include <bit>
#include <cstring>

#include "common/bits.hpp"
#include "common/logging.hpp"

namespace bitwave {

namespace {

/// Bit k set iff byte k of @p v is non-zero (SWAR zero-byte test +
/// multiply compaction; all (k, j) partial products land on distinct
/// bits, so the multiply cannot carry).
// The mask scan maps byte k of a loaded word to element offset k,
// which holds only for little-endian loads (every supported target).
static_assert(std::endian::native == std::endian::little,
              "zre_compress's SWAR scan assumes little-endian loads");

inline std::uint64_t
nonzero_byte_bits(std::uint64_t v)
{
    const std::uint64_t kHi = 0x8080808080808080ULL;
    // Bit 7 of each byte: set iff the byte's low 7 bits are non-zero
    // (the per-byte add cannot carry: 0x7F + 0x7F < 0x100), OR'd with
    // the byte's own bit 7 — exact, unlike the borrowing (v - 0x01..)
    // trick, which false-flags 0x01 bytes that follow a zero byte.
    const std::uint64_t low7 = (v & ~kHi) + ~kHi;
    const std::uint64_t nz = ((low7 | v) & kHi) >> 7;  // bit0 per byte
    return (nz * 0x0102040810204080ULL) >> 56;
}

/// Non-zero mask of the 64 elements at @p p: bit j set iff element j
/// is non-zero.
inline std::uint64_t
chunk_nonzero_mask(const std::int8_t *p)
{
    std::uint64_t mask = 0;
    for (int w = 0; w < 8; ++w) {
        std::uint64_t v;
        std::memcpy(&v, p + 8 * w, sizeof v);
        mask |= nonzero_byte_bits(v) << (8 * w);
    }
    return mask;
}

/// True iff @p z holds 16 consecutive set bits.
inline bool
has_run_of_16(std::uint64_t z)
{
    z &= z >> 1;  // bit i: bits i..i+1 set
    z &= z >> 2;  // i..i+3
    z &= z >> 4;  // i..i+7
    z &= z >> 8;  // i..i+15
    return z != 0;
}

/// original / stored bits, or original when nothing is stored.
double
ratio_or_original(std::int64_t original, std::int64_t stored)
{
    return stored > 0
        ? static_cast<double>(original) / static_cast<double>(stored)
        : static_cast<double>(original);
}

/// Fold @p zeros newly seen zeros into the running counter, emitting the
/// saturated padding entries exactly as the one-by-one loop would.
inline void
absorb_zeros(std::vector<ZreEntry> &entries, int &run, std::int64_t zeros)
{
    run += static_cast<int>(zeros);
    while (run >= 16) {
        entries.push_back({15, 0});
        run -= 16;
    }
}

}  // namespace

std::int64_t
ZreCompressed::compressed_bits() const
{
    return static_cast<std::int64_t>(entries.size()) * kEntryBits;
}

std::int64_t
ZreCompressed::payload_bits() const
{
    return static_cast<std::int64_t>(entries.size()) * kWordBits;
}

std::int64_t
ZreCompressed::original_bits() const
{
    return element_count * kWordBits;
}

double
ZreCompressed::compression_ratio() const
{
    return ratio_or_original(original_bits(), compressed_bits());
}

double
ZreCompressed::ideal_compression_ratio() const
{
    return ratio_or_original(original_bits(), payload_bits());
}

double
ZreSizeInfo::compression_ratio() const
{
    return ratio_or_original(original_bits(), compressed_bits());
}

double
ZreSizeInfo::ideal_compression_ratio() const
{
    return ratio_or_original(original_bits(), payload_bits());
}

ZreSizeInfo
zre_measure(const Int8Tensor &tensor)
{
    const std::int8_t *data = tensor.data();
    const std::int64_t n = tensor.numel();
    std::int64_t values = 0;
    std::int64_t padding = 0;
    std::int64_t run = 0;  // zeros since the last value, uncapped

    // Fold one chunk of @p len <= 64 elements with non-zero @p mask
    // (no bit at or above len).
    const auto count_chunk = [&](std::uint64_t mask, std::int64_t len) {
        if (mask == 0) {
            run += len;
            return;
        }
        values += std::popcount(mask);
        const int first = std::countr_zero(mask);
        const int last = 63 - std::countl_zero(mask);
        padding += (run + first) / 16;
        // Zeros strictly between the chunk's first and last value: only
        // a run of 16 or more of them pads.
        const std::uint64_t below_first = (mask ^ (mask - 1)) >> 1;
        const std::uint64_t above_last =
            last == 63 ? 0 : ~std::uint64_t{0} << (last + 1);
        if (has_run_of_16(~(mask | below_first | above_last))) {
            int prev = first + 1;
            for (std::uint64_t m = mask & (mask - 1); m != 0;
                 m &= m - 1) {
                const int j = std::countr_zero(m);
                padding += (j - prev) / 16;
                prev = j + 1;
            }
        }
        run = len - 1 - last;
    };

    const std::int64_t whole = n & ~std::int64_t{63};
    for (std::int64_t chunk = 0; chunk < whole; chunk += 64) {
        count_chunk(chunk_nonzero_mask(data + chunk), 64);
    }
    if (whole < n) {
        std::int8_t tail[64] = {};
        std::memcpy(tail, data + whole, static_cast<std::size_t>(n - whole));
        count_chunk(chunk_nonzero_mask(tail), n - whole);
    }

    ZreSizeInfo info;
    info.element_count = n;
    info.entries = values + padding + run / 16 + (run % 16 != 0 ? 1 : 0);
    return info;
}

ZreCompressed
zre_compress(const Int8Tensor &tensor)
{
    ZreCompressed out;
    out.shape = tensor.shape();
    out.element_count = tensor.numel();

    const std::int8_t *data = tensor.data();
    const std::int64_t n = tensor.numel();

    // One cheap mask pass sizes the stream (values + padding bound) so
    // the emit pass below never reallocates.
    const std::int64_t whole = n & ~std::int64_t{63};
    std::vector<std::uint64_t> masks(
        static_cast<std::size_t>(whole / 64));
    std::int64_t nonzeros = 0;
    for (std::int64_t chunk = 0; chunk < whole; chunk += 64) {
        const std::uint64_t mask = chunk_nonzero_mask(data + chunk);
        masks[static_cast<std::size_t>(chunk / 64)] = mask;
        nonzeros += std::popcount(mask);
    }
    out.entries.reserve(static_cast<std::size_t>(
        nonzeros + (n - whole) + (n - nonzeros) / 15 + 2));

    int run = 0;
    std::int64_t chunk = 0;
    for (; chunk + 64 <= n; chunk += 64) {
        std::uint64_t mask = masks[static_cast<std::size_t>(chunk / 64)];
        if (mask == ~std::uint64_t{0} && run == 0) {
            // Fully dense chunk: straight-line emit, no bit scanning.
            for (int j = 0; j < 64; ++j) {
                out.entries.push_back({0, data[chunk + j]});
            }
            continue;
        }
        std::int64_t prev = 0;
        while (mask != 0) {
            const int j = std::countr_zero(mask);
            mask &= mask - 1;
            absorb_zeros(out.entries, run, j - prev);
            out.entries.push_back({static_cast<std::uint8_t>(run),
                                   data[chunk + j]});
            run = 0;
            prev = j + 1;
        }
        absorb_zeros(out.entries, run, 64 - prev);
    }
    for (std::int64_t i = chunk; i < n; ++i) {
        const std::int8_t v = data[i];
        if (v == 0) {
            absorb_zeros(out.entries, run, 1);
            continue;
        }
        out.entries.push_back({static_cast<std::uint8_t>(run), v});
        run = 0;
    }
    if (run > 0) {
        // Close a trailing zero run so decode can restore the exact length.
        out.entries.push_back({static_cast<std::uint8_t>(run - 1), 0});
    }
    return out;
}

ZreCompressed
zre_compress_scalar(const Int8Tensor &tensor)
{
    ZreCompressed out;
    out.shape = tensor.shape();
    out.element_count = tensor.numel();

    int run = 0;
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
        const std::int8_t v = tensor[i];
        if (v == 0) {
            ++run;
            if (run == 16) {
                // Run counter saturates at 15: emit a padding zero entry.
                out.entries.push_back({15, 0});
                run = 0;
            }
            continue;
        }
        out.entries.push_back({static_cast<std::uint8_t>(run), v});
        run = 0;
    }
    if (run > 0) {
        // Close a trailing zero run so decode can restore the exact length.
        out.entries.push_back({static_cast<std::uint8_t>(run - 1), 0});
    }
    return out;
}

Int8Tensor
zre_decompress(const ZreCompressed &compressed)
{
    Int8Tensor out(compressed.shape);
    std::int64_t pos = 0;
    for (const auto &e : compressed.entries) {
        pos += e.zero_run;  // zeros are already present from initialization
        if (pos >= compressed.element_count && e.value != 0) {
            fatal("zre_decompress: stream overruns tensor size");
        }
        if (pos < compressed.element_count) {
            out[pos] = e.value;
        }
        ++pos;
    }
    return out;
}

}  // namespace bitwave
