// The batched accumulate/solve kernels against the per-trace paths: at
// every batch size and trace length (block-boundary cases included),
// add_batch must produce BIT-identical accumulator state to the
// equivalent add_trace / add_fixed / add_random sequence — the property
// that lets one campaign be analysed per-trace or batched (or replayed
// at any chunk size) with byte-equal results.  Every kernel set the CPU
// runs (NEON, AVX2, AVX-512) is additionally pinned bit-identical to the
// generic set, on random tiles and on a directed case a fused
// multiply-add would get wrong, and the widest of them must be the one
// dispatched.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/batch_kernels.h"
#include "stats/cpa.h"
#include "stats/ttest.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace usca::stats {
namespace {

constexpr std::size_t kBlock = partitioned_cpa::block_samples;

const std::size_t kLengths[] = {17, kBlock - 1, kBlock, kBlock + 5};
const std::size_t kBatchSizes[] = {1, 3, 7, 64, 1000};

/// A deterministic (rows x samples) tile plus per-row partitions/classes.
struct test_tile {
  std::size_t rows;
  std::size_t samples;
  std::vector<double> data;
  std::vector<std::uint8_t> partitions;
  std::vector<unsigned char> is_fixed;

  test_tile(std::size_t rows, std::size_t samples, std::uint64_t seed)
      : rows(rows), samples(samples), data(rows * samples),
        partitions(rows), is_fixed(rows) {
    util::xoshiro256 rng(seed);
    for (auto& v : data) {
      v = 5.0 + rng.next_gaussian();
    }
    for (std::size_t r = 0; r < rows; ++r) {
      partitions[r] = rng.next_u8();
      is_fixed[r] = r % 2 == 0 ? 1 : 0;
    }
  }

  const double* row(std::size_t r) const { return data.data() + r * samples; }
};

double hw_model(std::size_t g, std::size_t p) {
  return static_cast<double>(
      util::hamming_weight(static_cast<std::uint32_t>(g ^ p)));
}

/// Exact equality of two solved correlation matrices.
void expect_bit_identical(const cpa_result& a, const cpa_result& b) {
  ASSERT_EQ(a.traces, b.traces);
  ASSERT_EQ(a.corr.size(), b.corr.size());
  for (std::size_t g = 0; g < a.corr.size(); ++g) {
    for (std::size_t s = 0; s < a.samples; ++s) {
      ASSERT_EQ(a.corr[g][s], b.corr[g][s])
          << "guess " << g << " sample " << s;
    }
  }
}

TEST(BatchKernels, CpaBatchBitIdenticalToPerTraceAtAnyBatchSize) {
  for (const std::size_t samples : kLengths) {
    const test_tile tile(600, samples, 0xcafe + samples);

    partitioned_cpa per_trace(samples);
    for (std::size_t r = 0; r < tile.rows; ++r) {
      per_trace.add_trace(tile.partitions[r], {tile.row(r), samples});
    }
    const cpa_result reference = per_trace.solve(hw_model, 64);

    for (const std::size_t batch : kBatchSizes) {
      partitioned_cpa batched(samples);
      for (std::size_t first = 0; first < tile.rows; first += batch) {
        const std::size_t n = std::min(batch, tile.rows - first);
        batched.add_batch({tile.partitions.data() + first, n},
                          tile.row(first), samples, n);
      }
      ASSERT_EQ(batched.traces(), per_trace.traces());
      expect_bit_identical(reference, batched.solve(hw_model, 64));
    }
  }
}

TEST(BatchKernels, TvlaBatchBitIdenticalToPerTraceAtAnyBatchSize) {
  for (const std::size_t samples : kLengths) {
    const test_tile tile(601, samples, 0xdead + samples);

    tvla_accumulator per_trace(samples);
    for (std::size_t r = 0; r < tile.rows; ++r) {
      if (tile.is_fixed[r] != 0) {
        per_trace.add_fixed({tile.row(r), samples});
      } else {
        per_trace.add_random({tile.row(r), samples});
      }
    }

    for (const std::size_t batch : kBatchSizes) {
      tvla_accumulator batched(samples);
      for (std::size_t first = 0; first < tile.rows; first += batch) {
        const std::size_t n = std::min(batch, tile.rows - first);
        batched.add_batch(tile.row(first), samples, n,
                          {tile.is_fixed.data() + first, n});
      }
      for (std::size_t s = 0; s < samples; ++s) {
        ASSERT_EQ(per_trace.at(s).t, batched.at(s).t) << "sample " << s;
        ASSERT_EQ(per_trace.at(s).dof, batched.at(s).dof) << "sample " << s;
      }
    }
  }
}

TEST(BatchKernels, StridedBatchRowsMatchPackedRows) {
  // Archive chunks deliver rows with stride > samples (labels interleaved
  // per record); the kernels must read exactly `samples` columns per row.
  const std::size_t samples = kBlock + 3;
  const std::size_t stride = samples + 16;
  const std::size_t rows = 100;
  util::xoshiro256 rng(0x57de);
  std::vector<double> strided(rows * stride, -1e9); // poison the gaps
  std::vector<std::uint8_t> partitions(rows);
  partitioned_cpa packed(samples);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t s = 0; s < samples; ++s) {
      strided[r * stride + s] = rng.next_gaussian();
    }
    partitions[r] = rng.next_u8();
    packed.add_trace(partitions[r], {strided.data() + r * stride, samples});
  }
  partitioned_cpa batched(samples);
  batched.add_batch(partitions, strided.data(), stride, rows);
  expect_bit_identical(packed.solve(hw_model, 64),
                       batched.solve(hw_model, 64));
}

/// Every kernel set this CPU runs, narrowest first.
std::vector<const batch_kernels*> kernel_sets() {
  std::vector<const batch_kernels*> sets = {&generic_kernels()};
  for (const batch_kernels* set :
       {neon_kernels(), avx2_kernels(), avx512_kernels()}) {
    if (set != nullptr) {
      sets.push_back(set);
    }
  }
  return sets;
}

TEST(BatchKernels, WidestSetIsDispatched) {
  EXPECT_EQ(&active_kernels(), kernel_sets().back());
}

TEST(BatchKernels, EverySetEqualsTheGenericSetBitwise) {
  const batch_kernels& generic = generic_kernels();
  const std::size_t samples = kBlock + 9; // exercises the vector tail
  const test_tile tile(128, samples, 0xa272);
  for (const batch_kernels* kernels : kernel_sets()) {
    SCOPED_TRACE(kernels->name);

    // cpa_accumulate
    std::vector<double> sum_g(samples, 0.0), sum_s(samples, 0.0);
    std::vector<double> sq_g(samples, 0.0), sq_s(samples, 0.0);
    std::vector<double> part_g(256 * samples, 0.0);
    std::vector<double> part_s(256 * samples, 0.0);
    generic.cpa_accumulate(sum_g.data(), sq_g.data(), part_g.data(), samples,
                           tile.partitions.data(), tile.data.data(), samples,
                           tile.rows, samples);
    kernels->cpa_accumulate(sum_s.data(), sq_s.data(), part_s.data(),
                            samples, tile.partitions.data(),
                            tile.data.data(), samples, tile.rows, samples);
    ASSERT_EQ(sum_g, sum_s);
    ASSERT_EQ(sq_g, sq_s);
    ASSERT_EQ(part_g, part_s);

    // tvla_accumulate
    std::vector<const double*> rows(tile.rows);
    for (std::size_t r = 0; r < tile.rows; ++r) {
      rows[r] = tile.row(r);
    }
    std::vector<double> center(tile.row(0), tile.row(0) + samples);
    std::fill(sum_g.begin(), sum_g.end(), 0.0);
    std::fill(sum_s.begin(), sum_s.end(), 0.0);
    std::fill(sq_g.begin(), sq_g.end(), 0.0);
    std::fill(sq_s.begin(), sq_s.end(), 0.0);
    generic.tvla_accumulate(sum_g.data(), sq_g.data(), center.data(),
                            rows.data(), rows.size(), samples);
    kernels->tvla_accumulate(sum_s.data(), sq_s.data(), center.data(),
                             rows.data(), rows.size(), samples);
    ASSERT_EQ(sum_g, sum_s);
    ASSERT_EQ(sq_g, sq_s);

    // solve_accumulate
    std::vector<double> hyp(256);
    std::vector<std::uint64_t> part_n(256);
    util::xoshiro256 rng(0x501e);
    for (std::size_t p = 0; p < 256; ++p) {
      hyp[p] = rng.next_gaussian();
      part_n[p] = p % 5 == 0 ? 0 : 1; // exercise the skip path
    }
    std::vector<double> acc_g(samples, 0.0), acc_s(samples, 0.0);
    generic.solve_accumulate(acc_g.data(), hyp.data(), part_g.data(), samples,
                             part_n.data(), 256, samples);
    kernels->solve_accumulate(acc_s.data(), hyp.data(), part_g.data(),
                              samples, part_n.data(), 256, samples);
    ASSERT_EQ(acc_g, acc_s);
  }
}

// Accumulators whose fused multiply-add differs from the two-rounding
// sum: v = 1 + 2^-30 squares to 1 + 2^-29 + 2^-60, which rounds to
// 1 + 2^-29, so -(1 + 2^-29) + round(v * v) is +0.0 while the fused form
// keeps 2^-60.  A kernel that contracts `acc + a * b` fails here on every
// element, whatever the fuzz draws.
TEST(BatchKernels, NoSetContractsMultiplyAdd) {
  const double v = 1.0 + 0x1.0p-30;
  const double square = v * v;
  ASSERT_NE(std::fma(v, v, -square), 0.0);
  const std::size_t n = 37; // vector bodies and a tail
  for (const batch_kernels* kernels : kernel_sets()) {
    SCOPED_TRACE(kernels->name);
    const std::vector<double> row(n, v);
    const std::uint8_t partition = 3;

    std::vector<double> sum(n, -v);
    std::vector<double> sum_sq(n, -square);
    std::vector<double> part(4 * n, -v);
    kernels->cpa_accumulate(sum.data(), sum_sq.data(), part.data(), n,
                            &partition, row.data(), n, 1, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sum_sq[i]), 0U) << "cpa " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sum[i]), 0U) << "cpa " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(part[3 * n + i]), 0U)
          << "cpa " << i;
    }

    // tvla: dx = v - 0 = v.
    const std::vector<double> center(n, 0.0);
    const double* rows[] = {row.data()};
    std::fill(sum.begin(), sum.end(), -v);
    std::fill(sum_sq.begin(), sum_sq.end(), -square);
    kernels->tvla_accumulate(sum.data(), sum_sq.data(), center.data(), rows,
                             1, n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sum_sq[i]), 0U) << "tvla " << i;
    }

    // solve: acc += hyp * row with hyp = v.
    const double hyp = v;
    const std::uint64_t part_n = 1;
    std::vector<double> acc(n, -square);
    kernels->solve_accumulate(acc.data(), &hyp, row.data(), n, &part_n, 1,
                              n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(acc[i]), 0U) << "solve " << i;
    }
  }
}

TEST(BatchKernels, BatchShapeMismatchesThrow) {
  partitioned_cpa cpa(32);
  std::vector<double> tile(5 * 32, 0.0);
  std::vector<std::uint8_t> partitions(4); // wrong: 4 partitions, 5 rows
  EXPECT_ANY_THROW(cpa.add_batch(partitions, tile.data(), 32, 5));
  partitions.resize(5);
  EXPECT_ANY_THROW(cpa.add_batch(partitions, tile.data(), 16, 5));

  tvla_accumulator tvla(32);
  std::vector<unsigned char> classes(4);
  EXPECT_ANY_THROW(tvla.add_batch(tile.data(), 32, 5, classes));
  classes.resize(5);
  EXPECT_ANY_THROW(tvla.add_batch(tile.data(), 16, 5, classes));
}

} // namespace
} // namespace usca::stats
