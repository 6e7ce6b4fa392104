/**
 * @file
 * Zero Run-Length Encoding (ZRE) — the value-sparsity compression SCNN
 * uses, implemented as a baseline for Fig. 5 and the SCNN model.
 *
 * Stream format: a sequence of entries, each holding a 4-bit count of
 * zeros preceding the value and the 8-bit non-zero value itself. Runs of
 * more than 15 zeros insert padding entries with value 0 and run 15, and
 * a trailing run of zeros is closed with a single (run, 0) entry — the
 * same convention as SCNN's (value, zero-count) pairs.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace bitwave {

/// One ZRE stream entry.
struct ZreEntry
{
    std::uint8_t zero_run = 0;  ///< Zeros preceding `value` (0..15).
    std::int8_t value = 0;      ///< The encoded value (may be 0 for padding).
};

/// A ZRE-compressed tensor.
struct ZreCompressed
{
    Shape shape;
    std::int64_t element_count = 0;
    std::vector<ZreEntry> entries;

    /// Bits per entry: 4 run bits + 8 value bits.
    static constexpr int kEntryBits = 12;

    std::int64_t compressed_bits() const;
    /// Value payload only (8 bits per entry) — "ideal" CR numerator.
    std::int64_t payload_bits() const;
    std::int64_t original_bits() const;
    double compression_ratio() const;
    double ideal_compression_ratio() const;
};

/**
 * ZRE storage of a tensor, counted without building the stream — the
 * counting counterpart of ZreCompressed, as BcsSizeInfo is of
 * BcsCompressed. The bit and ratio accessors are the ones
 * ZreCompressed reports for the same tensor.
 */
struct ZreSizeInfo
{
    std::int64_t element_count = 0;
    std::int64_t entries = 0;  ///< Stream entries, padding included.

    std::int64_t compressed_bits() const
    {
        return entries * ZreCompressed::kEntryBits;
    }
    /// Value payload only (8 bits per entry) — "ideal" CR numerator.
    std::int64_t payload_bits() const { return entries * 8; }
    std::int64_t original_bits() const { return element_count * 8; }
    double compression_ratio() const;
    double ideal_compression_ratio() const;
};

/**
 * Count the ZRE stream of @p tensor without materializing it: the same
 * 64-element non-zero masks as zre_compress, reduced to an entry count.
 * A chunk adds its popcount in values, a zero run adds one padding
 * entry per 16 zeros before its closing value, and a trailing run adds
 * its padding plus one closing entry. Interior runs are bit-scanned only
 * when the chunk holds 16 consecutive zeros, so dense stretches cost one
 * popcount per 64 elements.
 */
ZreSizeInfo zre_measure(const Int8Tensor &tensor);

/**
 * Encode @p tensor (flat order) into a ZRE stream.
 *
 * Word-parallel: a SWAR scan derives a 64-element non-zero mask per
 * chunk (the same "operate on packed lanes" treatment the bit-plane
 * kernels got), so sparse stretches advance 64 elements per word test
 * and only the surviving values are touched individually. Callers that
 * need only sizes or ratios (the SCNN model, the kStats engine) use
 * zre_measure instead.
 */
ZreCompressed zre_compress(const Int8Tensor &tensor);

/// Element-at-a-time oracle for zre_compress (tests / bench);
/// bit-identical entry stream.
ZreCompressed zre_compress_scalar(const Int8Tensor &tensor);

/// Invert zre_compress exactly.
Int8Tensor zre_decompress(const ZreCompressed &compressed);

}  // namespace bitwave
