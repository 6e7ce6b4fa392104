#include "dataflow/mapping.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/bits.hpp"
#include "common/logging.hpp"
#include "sparsity/bitcolumn.hpp"

namespace bitwave {

double
ColumnCycleStats::mean_ceil_cycles(int bit_columns) const
{
    if (groups == 0 || bit_columns < 1) {
        return mean_cycles_per_group;
    }
    double total = 0.0;
    for (int nz = 0; nz <= 8; ++nz) {
        const double cycles = std::max(
            1.0, std::ceil(static_cast<double>(nz) /
                           static_cast<double>(bit_columns)));
        total += cycles * static_cast<double>(occupancy_hist[nz]);
    }
    return total / static_cast<double>(groups);
}

namespace {

/// Element-at-a-time tail of the cycle statistics (mean and
/// lockstep-synchronized occupancy from the per-(row, group) index
/// masks) — the oracle reference for the word-parallel tail below,
/// used by column_cycle_stats_scalar.
ColumnCycleStats
cycle_stats_from_indexes(const std::vector<std::uint8_t> &idx,
                         const LayerDesc &desc, std::int64_t rows,
                         std::int64_t groups_per_row, std::int64_t ku)
{
    ColumnCycleStats stats;
    const bool has_c_axis = desc.kind != LayerKind::kDepthwiseConv;
    const std::int64_t fyx = desc.fy * desc.fx;

    // Mean occupancy.
    std::int64_t total_nz = 0;
    for (auto i : idx) {
        const int nz = popcount8(i);
        total_nz += nz;
        ++stats.occupancy_hist[nz];
    }
    stats.groups = rows * groups_per_row;
    stats.mean_cycles_per_group = stats.groups > 0
        ? static_cast<double>(total_nz) / static_cast<double>(stats.groups)
        : 0.0;

    // Synchronized occupancy: kernels (the K axis) advance in lockstep in
    // tiles of ku; rows interleave K and FY*FX, with K outermost, so the
    // kernels synchronized on one (fy, fx, c-group) position are rows
    // {k * fyx + f : k in tile}.
    const std::int64_t k_rows = has_c_axis ? desc.k : 1;
    const std::int64_t f_rows = has_c_axis ? rows / std::max<std::int64_t>(
        k_rows, 1) : 1;
    double sync_total = 0.0;
    std::int64_t sync_steps = 0;
    for (std::int64_t k0 = 0; k0 < k_rows; k0 += ku) {
        const std::int64_t k1 = std::min<std::int64_t>(k0 + ku, k_rows);
        for (std::int64_t f = 0; f < f_rows; ++f) {
            for (std::int64_t g = 0; g < groups_per_row; ++g) {
                int worst = 0;
                for (std::int64_t k = k0; k < k1; ++k) {
                    const std::int64_t row = k * fyx + f;
                    worst = std::max(
                        worst,
                        popcount8(idx[static_cast<std::size_t>(
                            row * groups_per_row + g)]));
                }
                sync_total += worst;
                ++sync_steps;
            }
        }
    }
    stats.sync_cycles_per_group = sync_steps > 0
        ? sync_total / static_cast<double>(sync_steps)
        : stats.mean_cycles_per_group;
    return stats;
}

}  // namespace

// ---- Word-parallel tail (the packed path) -------------------------------
//
// The per-(row, group) masks are bytes, so eight groups process per
// 64-bit word: popcounts via the classic SWAR ladder, and the lockstep
// max-reduction as a per-byte unsigned maximum accumulated over the Ku
// kernels of a tile (each kernel's rows_per_kernel x groups block is
// contiguous in the mask array). All partial sums are exact integers,
// so the result is bit-identical to the scalar tail above, which stays
// behind column_cycle_stats_scalar as the oracle.

namespace {

/// Per-byte popcount of 8 packed masks.
inline std::uint64_t
popcount_bytes(std::uint64_t v)
{
    v = v - ((v >> 1) & 0x5555555555555555ULL);
    v = (v & 0x3333333333333333ULL) +
        ((v >> 2) & 0x3333333333333333ULL);
    return (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
}

/// Per-byte unsigned max; valid while every byte is < 0x80 (group
/// popcounts are <= 8).
inline std::uint64_t
bytemax(std::uint64_t x, std::uint64_t y)
{
    const std::uint64_t kHi = 0x8080808080808080ULL;
    // Byte b of ge is 1 exactly when x_b >= y_b; mask widens each such
    // byte to 0xFF (byte b contributes 256^(b+1) - 256^b, mod 2^64).
    const std::uint64_t ge = (((x | kHi) - y) & kHi) >> 7;
    const std::uint64_t mask = (ge << 8) - ge;
    return (x & mask) | (y & ~mask);
}

/// Unaligned 8-byte load / store.
inline std::uint64_t
load_u64(const void *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store_u64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
}

ColumnCycleStats
cycle_stats_from_indexes_swar(const std::vector<std::uint8_t> &idx,
                              const LayerDesc &desc, std::int64_t rows,
                              std::int64_t groups_per_row,
                              std::int64_t ku)
{
    ColumnCycleStats stats;
    const bool has_c_axis = desc.kind != LayerKind::kDepthwiseConv;

    // Per-mask popcounts, eight masks per word (zero-padded tail).
    // Padded by a word so the per-block SWAR loops below may read (but
    // never sum) up to 7 bytes past any block boundary.
    const std::size_t n = idx.size();
    std::vector<std::uint8_t> pc(((n + 7) & ~std::size_t{7}) + 8);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        store_u64(pc.data() + i, popcount_bytes(load_u64(idx.data() + i)));
    }
    for (; i < n; ++i) {
        pc[i] = static_cast<std::uint8_t>(popcount8(idx[i]));
    }

    // Mean occupancy + histogram (sums of small integers: exact).
    std::int64_t total_nz = 0;
    for (std::size_t g = 0; g < n; ++g) {
        total_nz += pc[g];
        ++stats.occupancy_hist[pc[g]];
    }
    stats.groups = rows * groups_per_row;
    stats.mean_cycles_per_group = stats.groups > 0
        ? static_cast<double>(total_nz) / static_cast<double>(stats.groups)
        : 0.0;

    // Lockstep occupancy: per-byte max over the kernels of each Ku
    // tile. Kernel k's (rows_per_kernel x groups_per_row) block is
    // contiguous, so the reduction is a running byte-max of blocks.
    const std::int64_t k_rows = has_c_axis ? desc.k : 1;
    const std::int64_t f_rows = has_c_axis
        ? rows / std::max<std::int64_t>(k_rows, 1) : 1;
    const std::size_t block =
        static_cast<std::size_t>(f_rows * groups_per_row);
    std::vector<std::uint8_t> worst(((block + 7) & ~std::size_t{7}) + 8);
    std::int64_t sync_total = 0;
    std::int64_t sync_steps = 0;
    for (std::int64_t k0 = 0; k0 < k_rows; k0 += ku) {
        const std::int64_t k1 = std::min<std::int64_t>(k0 + ku, k_rows);
        std::memcpy(worst.data(),
                    pc.data() + static_cast<std::size_t>(k0) * block,
                    block);
        for (std::int64_t k = k0 + 1; k < k1; ++k) {
            const std::uint8_t *src =
                pc.data() + static_cast<std::size_t>(k) * block;
            for (std::size_t b = 0; b < block; b += 8) {
                store_u64(worst.data() + b,
                          bytemax(load_u64(worst.data() + b),
                                  load_u64(src + b)));
            }
        }
        for (std::size_t b = 0; b < block; ++b) {
            sync_total += worst[b];
        }
        sync_steps += static_cast<std::int64_t>(block);
    }
    stats.sync_cycles_per_group = sync_steps > 0
        ? static_cast<double>(sync_total) /
            static_cast<double>(sync_steps)
        : stats.mean_cycles_per_group;
    return stats;
}

}  // namespace

ColumnCycleStats
column_cycle_stats(const BitPlanes &planes, const LayerDesc &desc,
                   int group_size, std::int64_t ku)
{
    if (group_size < 1 || ku < 1) {
        fatal("column_cycle_stats: group_size and ku must be >= 1");
    }
    // Weights are C-innermost: view as [rows, C] with rows = K*FY*FX
    // (or [1, numel] for layouts without a C axis, e.g. depthwise).
    const bool has_c_axis = desc.kind != LayerKind::kDepthwiseConv;
    const std::int64_t c_len = has_c_axis ? desc.c : planes.n;
    const std::int64_t rows = has_c_axis && c_len > 0
        ? planes.n / c_len : 1;
    const std::int64_t groups_per_row = ceil_div(c_len, group_size);

    std::vector<std::uint8_t> idx(
        static_cast<std::size_t>(rows * groups_per_row));
    if (planes.n > 0) {
        scan_group_indexes(planes, c_len, group_size, idx.data());
    }
    return cycle_stats_from_indexes_swar(idx, desc, rows, groups_per_row,
                                         ku);
}

ColumnCycleStats
column_cycle_stats(const Int8Tensor &weights, const LayerDesc &desc,
                   int group_size, std::int64_t ku, Representation repr)
{
    return column_cycle_stats(pack_bitplanes(weights, repr), desc,
                              group_size, ku);
}

ColumnCycleStats
column_cycle_stats_scalar(const Int8Tensor &weights, const LayerDesc &desc,
                          int group_size, std::int64_t ku,
                          Representation repr)
{
    if (group_size < 1 || ku < 1) {
        fatal("column_cycle_stats: group_size and ku must be >= 1");
    }
    const bool has_c_axis = desc.kind != LayerKind::kDepthwiseConv;
    const std::int64_t c_len = has_c_axis ? desc.c : weights.numel();
    const std::int64_t rows = has_c_axis && c_len > 0
        ? weights.numel() / c_len : 1;
    const std::int64_t groups_per_row = ceil_div(c_len, group_size);

    std::vector<std::uint8_t> idx(
        static_cast<std::size_t>(rows * groups_per_row));
    for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t g = 0; g < groups_per_row; ++g) {
            const std::int64_t start = r * c_len + g * group_size;
            const std::int64_t len =
                std::min<std::int64_t>(group_size, c_len - g * group_size);
            idx[static_cast<std::size_t>(r * groups_per_row + g)] =
                column_index({weights.data() + start,
                              static_cast<std::size_t>(len)},
                             repr);
        }
    }
    return cycle_stats_from_indexes(idx, desc, rows, groups_per_row, ku);
}

// ---- Word-parallel bit-serial kernels ----------------------------------
//
// The Pragmatic and Bitlet statistics read eight weights per 64-bit
// load: the word is re-encoded in the machine's representation byte by
// byte, and the per-weight quantities (popcounts, one significance's
// bits) stay in byte lanes until a lane group or window closes. Every
// count is an exact integer; the result divides once at the end.

namespace {

inline constexpr std::uint64_t kByteHi = 0x8080808080808080ULL;
inline constexpr std::uint64_t kByteOnes = 0x0101010101010101ULL;

/// The eight int8 bytes of @p v re-encoded in sign-magnitude, each
/// exactly as to_sign_magnitude() (-128 clamps to -127, i.e. 0xFF).
inline std::uint64_t
sign_magnitude_bytes(std::uint64_t v)
{
    // Per-byte negation ~v + 1: the add of the low seven bits cannot
    // carry into the next byte, and bit 7 is restored by the xor.
    const std::uint64_t t = ~v;
    const std::uint64_t neg = ((t & ~kByteHi) + kByteOnes) ^ (t & kByteHi);
    // Bytes of neg with bit 7 set drop by one, which turns -(-128) =
    // 0x80 into the clamped magnitude 0x7F; such a byte never borrows.
    // (The other bytes with bit 7 set belong to non-negative values,
    // which keep their own encoding below.)
    const std::uint64_t mag = neg - ((neg & kByteHi) >> 7);
    const std::uint64_t negative = ((v & kByteHi) >> 7) * 0xFFULL;
    return (v & ~negative) | ((mag | kByteHi) & negative);
}

/// Largest byte of @p v; valid while every byte is < 0x80.
inline int
max_byte(std::uint64_t v)
{
    v = bytemax(v, v >> 32);
    v = bytemax(v, v >> 16);
    v = bytemax(v, v >> 8);
    return static_cast<int>(v & 0xFF);
}

/**
 * The largest byte of each of @p w[0..7], as the eight bytes of one
 * word (in a fixed permuted order); valid while every byte is < 0x80.
 * Three rounds of half-swaps pair the words up, so the reduction costs
 * seven bytemax calls for eight words instead of three per word.
 */
inline std::uint64_t
max_byte_of_each(const std::uint64_t (&w)[8])
{
    constexpr std::uint64_t kLo32 = 0x00000000FFFFFFFFULL;
    constexpr std::uint64_t kLo16 = 0x0000FFFF0000FFFFULL;
    constexpr std::uint64_t kLo8 = 0x00FF00FF00FF00FFULL;
    // Round 1: word 2j's halves meet in the low half, word 2j+1's in
    // the high half; rounds 2 and 3 repeat at 16- and 8-bit lanes.
    std::uint64_t h[4];
    for (int j = 0; j < 4; ++j) {
        const std::uint64_t a = w[2 * j], b = w[2 * j + 1];
        h[j] = bytemax((a & kLo32) | (b << 32), (a >> 32) | (b & ~kLo32));
    }
    std::uint64_t q[2];
    for (int j = 0; j < 2; ++j) {
        const std::uint64_t a = h[2 * j], b = h[2 * j + 1];
        q[j] = bytemax((a & kLo16) | ((b & kLo16) << 16),
                       ((a >> 16) & kLo16) | (b & ~kLo16));
    }
    return bytemax((q[0] & kLo8) | ((q[1] & kLo8) << 8),
                   ((q[0] >> 8) & kLo8) | (q[1] & ~kLo8));
}

/// Sum of the eight bytes of @p v.
inline std::int64_t
sum_bytes(std::uint64_t v)
{
    v = (v & 0x00FF00FF00FF00FFULL) + ((v >> 8) & 0x00FF00FF00FF00FFULL);
    return static_cast<std::int64_t>((v * 0x0001000100010001ULL) >> 48);
}

// A group's short final load keeps its first bytes by masking the low
// end of the word, which holds only for little-endian loads.
static_assert(std::endian::native == std::endian::little,
              "scan_groups masks partial loads assuming little-endian");

/**
 * Walk @p weights from element @p begin in consecutive groups of
 * @p group elements (the last one may be short): each group's bytes
 * reach @p word as 64-bit loads encoded by @p encode, then @p end_group
 * closes the group. A group's final load is zero-filled past the
 * group's end, which adds no set bit in either representation (zero
 * encodes to zero), and it never reads past the tensor.
 */
template <typename Encode, typename Word, typename EndGroup>
void
scan_groups(const Int8Tensor &weights, std::int64_t begin, std::int64_t group,
            Encode encode, Word word, EndGroup end_group)
{
    const std::int8_t *data = weights.data();
    const std::int64_t n = weights.numel();
    for (std::int64_t start = begin; start < n; start += group) {
        const std::int64_t end = std::min<std::int64_t>(start + group, n);
        std::int64_t i = start;
        for (; i + 8 <= end; i += 8) {
            word(encode(load_u64(data + i)));
        }
        if (i < end) {
            const std::int64_t len = end - i;
            std::uint64_t v = 0;
            if (i + 8 <= n) {
                v = load_u64(data + i) &
                    ((std::uint64_t{1} << (8 * len)) - 1);
            } else {
                std::memcpy(&v, data + i, static_cast<std::size_t>(len));
            }
            word(encode(v));
        }
        end_group();
    }
}

/// Run @p kernel with the byte encoder of @p repr.
template <typename Kernel>
double
with_encoding(Representation repr, Kernel kernel)
{
    if (repr == Representation::kTwosComplement) {
        return kernel([](std::uint64_t v) { return v; });
    }
    return kernel([](std::uint64_t v) { return sign_magnitude_bytes(v); });
}

}  // namespace

double
bit_serial_sync_cycles(const Int8Tensor &weights, std::int64_t lanes,
                       Representation repr)
{
    if (lanes < 1) {
        fatal("bit_serial_sync_cycles: lanes must be >= 1");
    }
    return with_encoding(repr, [&](auto encode) {
        std::int64_t total = 0;
        std::int64_t steps = 0;
        std::int64_t begin = 0;
        if (lanes == 8) {
            // Each load is one lane set: eight sets per 64 weights
            // reduce together, one bytemax per load.
            const std::int8_t *data = weights.data();
            for (; begin + 64 <= weights.numel(); begin += 64) {
                std::uint64_t pc[8];
                for (int j = 0; j < 8; ++j) {
                    pc[j] = popcount_bytes(
                        encode(load_u64(data + begin + 8 * j)));
                }
                total += sum_bytes(max_byte_of_each(pc));
                steps += 8;
            }
        }
        std::uint64_t worst = 0;  // per-byte max popcount of the group
        const auto word = [&](std::uint64_t v) {
            worst = bytemax(worst, popcount_bytes(v));
        };
        const auto end_group = [&] {
            total += max_byte(worst);
            worst = 0;
            ++steps;
        };
        scan_groups(weights, begin, lanes, encode, word, end_group);
        return steps > 0
            ? static_cast<double>(total) / static_cast<double>(steps)
            : 0.0;
    });
}

double
bit_interleave_cycles(const Int8Tensor &weights, std::int64_t window,
                      Representation repr)
{
    if (window < 1) {
        fatal("bit_interleave_cycles: window must be >= 1");
    }
    return with_encoding(repr, [&](auto encode) {
        std::int64_t total = 0;
        std::int64_t steps = 0;
        // Byte lane j of lane_counts[b] counts the window's words whose
        // byte j has bit b set; a lane holds at most 255, so the lanes
        // fold into per_significance every 255 loads.
        std::uint64_t lane_counts[kWordBits] = {};
        std::int64_t per_significance[kWordBits] = {};
        int loads = 0;
        const auto fold = [&] {
            for (int b = 0; b < kWordBits; ++b) {
                per_significance[b] += sum_bytes(lane_counts[b]);
                lane_counts[b] = 0;
            }
            loads = 0;
        };
        const auto word = [&](std::uint64_t v) {
            for (int b = 0; b < kWordBits; ++b) {
                lane_counts[b] += (v >> b) & kByteOnes;
            }
            if (++loads == 255) {
                fold();
            }
        };
        const auto end_group = [&] {
            fold();
            total += *std::max_element(per_significance,
                                       per_significance + kWordBits);
            std::fill(per_significance, per_significance + kWordBits,
                      std::int64_t{0});
            ++steps;
        };
        scan_groups(weights, 0, window, encode, word, end_group);
        return steps > 0
            ? static_cast<double>(total) / static_cast<double>(steps)
            : 0.0;
    });
}

double
activation_spill_fraction(std::int64_t elements,
                          const MemoryHierarchy &mem)
{
    const double cap = static_cast<double>(mem.act_sram_bytes) * 8.0;
    const double bits = static_cast<double>(elements) * kWordBits;
    return bits > cap ? (bits - cap) / bits : 0.0;
}

AccessCounts
compute_access_counts(const LayerDesc &desc, const SpatialUnrolling &su,
                      const MemoryHierarchy &mem,
                      const CompressionFactors &cf,
                      const ExecutionProfile &exec)
{
    AccessCounts out;

    const double weight_bits =
        static_cast<double>(desc.weight_count()) * kWordBits;
    const double in_bits =
        static_cast<double>(desc.input_count()) * kWordBits;
    const double out_bits =
        static_cast<double>(desc.output_count()) * kWordBits;
    const double macs = static_cast<double>(desc.macs());
    const double util = std::max(exec.utilization, 1e-6);

    // Off-chip: weights cross DRAM once per layer; once more per
    // activation tile when neither the (compressed) weights nor the input
    // can stay resident. Activations move only when not resident on chip.
    const double w_stored = weight_bits * cf.weight_fetch_ratio;
    double weight_passes = 1.0;
    if (w_stored > static_cast<double>(mem.weight_sram_bytes) * 8 &&
        in_bits > static_cast<double>(mem.act_sram_bytes) * 8) {
        weight_passes = std::ceil(
            in_bits / (static_cast<double>(mem.act_sram_bytes) * 8));
    }
    out.dram_read_weight_bits = w_stored * weight_passes;
    out.dram_read_act_bits =
        in_bits * cf.act_fetch_ratio * exec.input_dram_fraction;
    out.dram_write_act_bits =
        out_bits * cf.act_store_ratio * exec.output_dram_fraction;

    // On-chip SRAM. Bit-serial machines pull the active weight port
    // width every compute cycle (skipped columns are never fetched);
    // weight-stationary machines fetch each weight once into PE
    // registers and spill 32b partial sums across input-channel tiles.
    // Activations: one operand fetch per MAC, amortized over the kernel
    // broadcast (Ku lanes share an activation) and inflated by spatial
    // under-utilization (idle lanes still burn fetch bandwidth).
    const double k_reuse = static_cast<double>(su.factor(Dim::kK));
    out.sram_read_act_bits =
        macs * kWordBits / k_reuse / util * cf.act_sram_overhead;
    out.sram_write_act_bits = out_bits + out.dram_read_act_bits;
    if (exec.weight_stationary) {
        out.sram_read_weight_bits =
            weight_bits * cf.weight_sram_overhead * weight_passes;
        const double psum_spills = exec.psum_in_accumulators
            ? 0.0
            : static_cast<double>(
                  std::max<std::int64_t>(exec.c_tiles, 1) - 1);
        const double psum_bits = out_bits * 4.0 * psum_spills;
        out.sram_read_act_bits += psum_bits;   // re-read for accumulate
        out.sram_write_act_bits += psum_bits;  // spill
    } else if (exec.weight_stream_bits > 0.0) {
        out.sram_read_weight_bits = exec.weight_stream_bits;
    } else {
        out.sram_read_weight_bits = exec.compute_cycles *
            exec.weight_port_active_bits * cf.weight_sram_overhead;
    }
    out.sram_write_weight_bits = out.dram_read_weight_bits;

    // Registers: two operand reads and one accumulator write per MAC.
    out.reg_read_words = 2.0 * macs;
    out.reg_write_words = macs;
    return out;
}

}  // namespace bitwave
