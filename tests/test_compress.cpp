/**
 * @file
 * Unit and property tests for the three compression codecs: BCS, ZRE, CSR.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "compress/bcs.hpp"
#include "compress/csr.hpp"
#include "compress/zre.hpp"
#include "kernel_inputs.hpp"
#include "nn/workloads.hpp"

namespace bitwave {
namespace {

Int8Tensor
random_tensor(std::int64_t n, double laplace_scale, double zero_prob,
              std::uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor t({n});
    for (std::int64_t i = 0; i < n; ++i) {
        if (rng.bernoulli(zero_prob)) {
            t[i] = 0;
        } else {
            t[i] = static_cast<std::int8_t>(std::clamp<int>(
                static_cast<int>(rng.laplacian(laplace_scale)), -127, 127));
        }
    }
    return t;
}

// ---------------------------------------------------------------- BCS ---

TEST(Bcs, RoundTripSmallExample)
{
    Int8Tensor t({8}, {2, 4, -3, 6, 0, 0, 0, 0});
    for (auto repr : {Representation::kTwosComplement,
                      Representation::kSignMagnitude}) {
        const auto c = bcs_compress(t, 4, repr);
        EXPECT_EQ(bcs_decompress(c), t);
    }
}

TEST(Bcs, AllZeroTensorStoresNoColumns)
{
    Int8Tensor t({32});
    const auto c = bcs_compress(t, 8, Representation::kSignMagnitude);
    EXPECT_EQ(c.payload_bits(), 0);
    EXPECT_EQ(c.index_bits(), 4 * 8);
    EXPECT_EQ(bcs_decompress(c), t);
}

TEST(Bcs, DenseTensorHasNoCompression)
{
    // All columns populated: compressed size exceeds original by the index.
    Int8Tensor t({16});
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        t[i] = static_cast<std::int8_t>((i % 2) ? -127 : 127);
    }
    const auto c = bcs_compress(t, 16, Representation::kSignMagnitude);
    EXPECT_LT(c.compression_ratio(), 1.0);
    EXPECT_EQ(bcs_decompress(c), t);
}

TEST(Bcs, CompressedBitsDecomposition)
{
    const auto t = random_tensor(1024, 11.0, 0.05, 3);
    const auto c = bcs_compress(t, 16, Representation::kSignMagnitude);
    EXPECT_EQ(c.compressed_bits(), c.index_bits() + c.payload_bits());
    EXPECT_EQ(c.original_bits(), 1024 * 8);
    EXPECT_GT(c.ideal_compression_ratio(), c.compression_ratio());
}

TEST(Bcs, PartialTailGroupRoundTrips)
{
    const auto t = random_tensor(1001, 9.0, 0.1, 5);  // not divisible by 16
    const auto c = bcs_compress(t, 16, Representation::kSignMagnitude);
    EXPECT_EQ(bcs_decompress(c), t);
}

TEST(Bcs, SignMagnitudeCompressesWeightsBetterThanTwosComplement)
{
    const auto t = random_tensor(1 << 15, 10.0, 0.05, 11);
    for (int g : {8, 16, 32}) {
        const double sm = bcs_compress(t, g, Representation::kSignMagnitude)
                              .compression_ratio();
        const double tc = bcs_compress(t, g, Representation::kTwosComplement)
                              .compression_ratio();
        EXPECT_GT(sm, tc) << "group " << g;
    }
}

TEST(Bcs, BestHardwareGroupSizeIsSupported)
{
    const auto t = random_tensor(4096, 12.0, 0.05, 13);
    const int g = best_hardware_group_size(
        t, Representation::kSignMagnitude);
    EXPECT_TRUE(g == 8 || g == 16 || g == 32);
}

class BcsRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, double, double>>
{
};

TEST_P(BcsRoundTrip, LosslessForAllGroupSizesAndDistributions)
{
    const auto [g_size, scale, zero_prob] = GetParam();
    const auto t = random_tensor(
        777, scale, zero_prob,
        static_cast<std::uint64_t>(g_size * 1000 + scale));
    for (auto repr : {Representation::kTwosComplement,
                      Representation::kSignMagnitude}) {
        const auto c = bcs_compress(t, g_size, repr);
        EXPECT_EQ(bcs_decompress(c), t);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BcsRoundTrip,
    ::testing::Combine(::testing::Values(1, 4, 8, 16, 32, 64),
                       ::testing::Values(3.0, 12.0, 60.0),
                       ::testing::Values(0.0, 0.1, 0.9)));

// ---------------------------------------------------------------- ZRE ---

TEST(Zre, RoundTripBasic)
{
    Int8Tensor t({10}, {0, 0, 5, 0, -3, 0, 0, 0, 0, 1});
    const auto c = zre_compress(t);
    EXPECT_EQ(zre_decompress(c), t);
    EXPECT_EQ(c.entries.size(), 3u);
}

TEST(Zre, LongZeroRunsEmitPaddingEntries)
{
    Int8Tensor t({40});
    t[39] = 9;  // 39 zeros then one value: needs two padding entries
    const auto c = zre_compress(t);
    EXPECT_EQ(zre_decompress(c), t);
    EXPECT_EQ(c.entries.size(), 3u);
    EXPECT_EQ(c.entries[0].zero_run, 15);
    EXPECT_EQ(c.entries[0].value, 0);
}

TEST(Zre, TrailingZerosPreserved)
{
    Int8Tensor t({8}, {1, 0, 0, 0, 0, 0, 0, 0});
    const auto c = zre_compress(t);
    EXPECT_EQ(zre_decompress(c), t);
}

TEST(Zre, AllZerosCompressWell)
{
    Int8Tensor t({64});
    const auto c = zre_compress(t);
    EXPECT_EQ(zre_decompress(c), t);
    EXPECT_GT(c.compression_ratio(), 8.0);
}

TEST(Zre, DenseDataExpands)
{
    Int8Tensor t({64});
    t.fill(3);
    const auto c = zre_compress(t);
    // 12 bits per 8-bit value: CR = 8/12.
    EXPECT_NEAR(c.compression_ratio(), 8.0 / 12.0, 1e-9);
}

TEST(Zre, RoundTripRandom)
{
    for (double zp : {0.0, 0.3, 0.7, 0.97}) {
        const auto t = random_tensor(
            997, 20.0, zp, static_cast<std::uint64_t>(zp * 100) + 1);
        const auto c = zre_compress(t);
        EXPECT_EQ(zre_decompress(c), t) << "zero prob " << zp;
    }
}

TEST(Zre, WordParallelMatchesScalarOracle)
{
    // The SWAR mask scan must reproduce the element-at-a-time stream
    // entry for entry: sizes exercising whole-word chunks, tails, long
    // (> 15) runs crossing chunk boundaries, and trailing zeros.
    for (std::int64_t n : {1LL, 63LL, 64LL, 65LL, 128LL, 1009LL}) {
        for (double zp : {0.0, 0.5, 0.95, 1.0}) {
            const auto t = random_tensor(
                n, 25.0, zp,
                static_cast<std::uint64_t>(n * 131) +
                    static_cast<std::uint64_t>(zp * 10) + 7);
            const auto fast = zre_compress(t);
            const auto slow = zre_compress_scalar(t);
            ASSERT_EQ(fast.entries.size(), slow.entries.size())
                << "n=" << n << " zp=" << zp;
            for (std::size_t i = 0; i < fast.entries.size(); ++i) {
                ASSERT_EQ(fast.entries[i].zero_run,
                          slow.entries[i].zero_run);
                ASSERT_EQ(fast.entries[i].value, slow.entries[i].value);
            }
            EXPECT_EQ(zre_decompress(fast), t);
        }
    }
}

/// Element-at-a-time reference for zre_measure: the stream length of
/// the one-by-one encoder (a padding entry per 16 zeros before a value,
/// a closing entry for a trailing partial run).
std::int64_t
reference_zre_entries(const Int8Tensor &tensor)
{
    std::int64_t entries = 0;
    int run = 0;
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
        if (tensor[i] == 0) {
            if (++run == 16) {
                ++entries;
                run = 0;
            }
            continue;
        }
        ++entries;
        run = 0;
    }
    return entries + (run > 0 ? 1 : 0);
}

void
expect_measure_matches(const Int8Tensor &t, const std::string &what)
{
    const auto measured = zre_measure(t);
    const auto stream = zre_compress(t);
    EXPECT_EQ(measured.entries, reference_zre_entries(t)) << what;
    EXPECT_EQ(measured.entries,
              static_cast<std::int64_t>(stream.entries.size()))
        << what;
    EXPECT_EQ(measured.element_count, stream.element_count) << what;
    EXPECT_EQ(measured.compressed_bits(), stream.compressed_bits()) << what;
    EXPECT_EQ(measured.payload_bits(), stream.payload_bits()) << what;
    EXPECT_EQ(measured.compression_ratio(), stream.compression_ratio())
        << what;
    EXPECT_EQ(measured.ideal_compression_ratio(),
              stream.ideal_compression_ratio())
        << what;
}

TEST(Zre, MeasureCountsTheStreamOnEdgeCases)
{
    for (const auto &[name, t] : test::adversarial_tensors()) {
        expect_measure_matches(t, name);
    }
    // Every single zero run length 0..140 before a value and at the end,
    // at every offset within a chunk.
    for (int offset = 0; offset < 64; offset += 9) {
        for (int run = 0; run <= 140; ++run) {
            Int8Tensor before({offset + run + 1});
            before.fill(4);
            Int8Tensor trailing({offset + run});
            trailing.fill(-4);
            for (int i = 0; i < run; ++i) {
                before[offset + i] = 0;
                trailing[offset + i] = 0;
            }
            const std::string where = " offset=" + std::to_string(offset) +
                " run=" + std::to_string(run);
            expect_measure_matches(before, "before" + where);
            expect_measure_matches(trailing, "trailing" + where);
        }
    }
}

TEST(Zre, MeasureCountsTheStreamOnRandomSparseTensors)
{
    for (int trial = 0; trial < 200; ++trial) {
        const double zero_prob = static_cast<double>(trial % 20) / 19.0;
        const auto t = random_tensor(
            1 + (trial * 37) % 3000, 20.0, zero_prob,
            static_cast<std::uint64_t>(trial) + 101);
        expect_measure_matches(t, "trial " + std::to_string(trial));
    }
}

TEST(Zre, MeasureCountsTheStreamOnEveryLayer)
{
    for (auto id : {WorkloadId::kResNet18, WorkloadId::kCnnLstm}) {
        for (const auto &layer : get_workload(id).layers) {
            EXPECT_EQ(zre_measure(layer.weights).entries,
                      reference_zre_entries(layer.weights))
                << layer.desc.name;
        }
    }
}

// ---------------------------------------------------------------- CSR ---

TEST(Csr, RoundTripBasic)
{
    Int8Tensor t({4, 4});
    t.at({0, 1}) = 5;
    t.at({2, 3}) = -7;
    t.at({3, 0}) = 1;
    const auto c = csr_compress(t, 4);
    EXPECT_EQ(csr_decompress(c), t);
    EXPECT_EQ(c.values.size(), 3u);
    EXPECT_EQ(c.row_ptr.size(), 5u);
}

TEST(Csr, ColIndexBitsIsCeilLog2)
{
    Int8Tensor t({2, 16});
    auto c = csr_compress(t, 2);
    EXPECT_EQ(c.col_index_bits(), 4);
    Int8Tensor t2({2, 17});
    c = csr_compress(t2, 2);
    EXPECT_EQ(c.col_index_bits(), 5);
}

TEST(Csr, CompressionOnlyWinsWhenSparse)
{
    auto dense = random_tensor(64 * 64, 30.0, 0.0, 21);
    auto sparse = random_tensor(64 * 64, 30.0, 0.9, 22);
    EXPECT_LT(csr_compress(dense, 64).compression_ratio(), 1.0);
    EXPECT_GT(csr_compress(sparse, 64).compression_ratio(), 2.0);
}

TEST(Csr, RoundTripRandom)
{
    for (double zp : {0.0, 0.5, 0.95}) {
        const auto t = random_tensor(
            32 * 48, 25.0, zp, static_cast<std::uint64_t>(zp * 10) + 7);
        const auto c = csr_compress(t, 32);
        EXPECT_EQ(csr_decompress(c), t) << "zero prob " << zp;
    }
}

TEST(Csr, WordParallelMatchesScalarOracle)
{
    // The bit-plane mask-scan encoder must reproduce the
    // element-at-a-time oracle exactly — values, column indices and row
    // pointers — across sparsity regimes, row widths that straddle
    // 64-element word boundaries, and both packing representations.
    struct Geometry { std::int64_t rows, cols; };
    const Geometry geoms[] = {{32, 48}, {7, 37}, {1, 200}, {64, 64},
                              {5, 1}};
    for (double zp : {0.0, 0.3, 0.9, 1.0}) {
        for (const auto &g : geoms) {
            const auto t = random_tensor(
                g.rows * g.cols, 25.0, zp,
                static_cast<std::uint64_t>(zp * 100) + 13 *
                    static_cast<std::uint64_t>(g.cols));
            const auto s = csr_compress_scalar(t, g.rows);
            const auto p = csr_compress(t, g.rows);
            EXPECT_EQ(s.values, p.values) << zp << " " << g.cols;
            EXPECT_EQ(s.col_indices, p.col_indices) << zp << " " << g.cols;
            EXPECT_EQ(s.row_ptr, p.row_ptr) << zp << " " << g.cols;
            // Pre-packed planes, either representation: the non-zero
            // mask is representation-invariant.
            const auto sm = csr_compress(
                pack_bitplanes(t, Representation::kSignMagnitude), t,
                g.rows);
            EXPECT_EQ(s.values, sm.values);
            EXPECT_EQ(s.col_indices, sm.col_indices);
            EXPECT_EQ(s.row_ptr, sm.row_ptr);
            EXPECT_EQ(csr_decompress(p), t);
        }
    }
}

// ------------------------------------------------- cross-codec shape ---

TEST(CrossCodec, BcsBeatsValueCodecsAtLowValueSparsity)
{
    // The Fig. 5 headline: with scarce value sparsity, BCS (real CR,
    // including index cost) outperforms ZRE and CSR.
    const auto t = random_tensor(1 << 15, 10.0, 0.03, 42);
    const double bcs_cr =
        bcs_compress(t, 16, Representation::kSignMagnitude)
            .compression_ratio();
    const double zre_cr = zre_compress(t).compression_ratio();
    const double csr_cr = csr_compress(t, 128).compression_ratio();
    EXPECT_GT(bcs_cr, zre_cr);
    EXPECT_GT(bcs_cr, csr_cr);
    EXPECT_GT(bcs_cr, 1.0);
}

}  // namespace
}  // namespace bitwave
