#include "pim/crossbar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.h"

namespace vwsdk {
namespace {

/// compute() on a fresh output sized for the input's whole cycles.
std::vector<double> run(const Crossbar& array,
                        const std::vector<double>& input,
                        const ConverterModel& adc = {}) {
  std::vector<double> output(input.size() /
                             static_cast<std::size_t>(array.bound_rows()) *
                             static_cast<std::size_t>(array.bound_cols()));
  array.compute(input, output, adc);
  return output;
}

TEST(Crossbar, StartsErased) {
  const Crossbar array({4, 4}, 4, 4);
  EXPECT_EQ(array.programmed_cell_count(), 0);
  EXPECT_EQ(array.cell(2, 3), 0.0);
}

TEST(Crossbar, ProgramAndRead) {
  Crossbar array({4, 4}, 4, 4);
  array.program(1, 2, -0.5);
  EXPECT_EQ(array.cell(1, 2), -0.5);
  EXPECT_EQ(array.cell(2, 1), 0.0);
  EXPECT_EQ(array.programmed_cell_count(), 1);
}

TEST(Crossbar, DoubleProgramIsACollision) {
  Crossbar array({4, 4}, 4, 4);
  array.program(0, 0, 1.0);
  EXPECT_THROW(array.program(0, 0, 2.0), InvalidArgument);
}

TEST(Crossbar, OutOfRangeAccessRejected) {
  Crossbar array({4, 8}, 4, 8);
  EXPECT_THROW(array.program(4, 0, 1.0), InvalidArgument);
  EXPECT_THROW(array.program(0, 8, 1.0), InvalidArgument);
  EXPECT_THROW(array.cell(-1, 0), InvalidArgument);
}

TEST(Crossbar, ComputeIsMatrixVectorProduct) {
  // 2x3 array: cells[r][c] = weight; input = (2, 3).
  Crossbar array({2, 3}, 2, 3);
  array.program(0, 0, 1.0);
  array.program(0, 1, 2.0);
  array.program(1, 1, -1.0);
  array.program(1, 2, 4.0);
  const std::vector<double> out = run(array, {2.0, 3.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 2.0);        // 2*1
  EXPECT_EQ(out[1], 1.0);        // 2*2 + 3*(-1)
  EXPECT_EQ(out[2], 12.0);       // 3*4
}

TEST(Crossbar, ComputeRejectsWrongInputLength) {
  const Crossbar array({2, 3}, 2, 3);
  EXPECT_THROW(run(array, {1.0}), InvalidArgument);
  EXPECT_THROW(run(array, {1.0, 2.0, 3.0}), InvalidArgument);
  EXPECT_THROW(run(array, {}), InvalidArgument);
}

TEST(Crossbar, IdleRowsContributeNothing) {
  Crossbar array({3, 1}, 3, 1);
  array.program(0, 0, 5.0);
  array.program(2, 0, 7.0);
  const std::vector<double> out = run(array, {0.0, 123.0, 1.0});
  EXPECT_EQ(out[0], 7.0);  // row 1 has no cell; row 0 driven with 0
}

TEST(Crossbar, QuantizingAdcAppliedPerColumn) {
  Crossbar array({1, 2}, 1, 2);
  array.program(0, 0, 1.0);
  array.program(0, 1, 1.0);
  // 3-bit ADC over [0, 8): step 1; value 2.7 -> 2.0.
  const ConverterModel adc(3, 0.0, 8.0);
  const std::vector<double> out = run(array, {2.7}, adc);
  EXPECT_EQ(out[0], 2.0);
  EXPECT_EQ(out[1], 2.0);
}

TEST(Crossbar, NoiseAppliedAtProgrammingIsDeterministic) {
  NoiseModel noise_a({0.1, 0.0}, 42);
  NoiseModel noise_b({0.1, 0.0}, 42);
  Crossbar a({1, 1}, 1, 1);
  Crossbar b({1, 1}, 1, 1);
  a.program(0, 0, 1.0, &noise_a);
  b.program(0, 0, 1.0, &noise_b);
  EXPECT_EQ(a.cell(0, 0), b.cell(0, 0));
  EXPECT_NE(a.cell(0, 0), 1.0);  // sigma 0.1 perturbs with prob ~1
}

TEST(Crossbar, BatchedComputeMatchesPerCycle) {
  // Noisy cells and a quantizing ADC: a batch of N cycles must equal N
  // single-cycle calls bit for bit.
  NoiseModel noise({0.05, 0.01}, 3);
  Crossbar array({5, 4}, 5, 4);
  for (Dim row = 0; row < 5; ++row) {
    for (Dim col = 0; col < 4; ++col) {
      if ((row + col) % 3 != 0) {
        array.program(row, col, 0.25 * (row - 2) + 0.5 * col, &noise);
      }
    }
  }
  const ConverterModel adc(6, -4.0, 4.0);
  const std::vector<std::vector<double>> cycles = {
      {1.0, -0.5, 0.0, 2.0, 0.3},
      {0.0, 0.0, 0.0, 0.0, 0.0},
      {-1.7, 0.0, 0.9, 0.0, -0.25}};
  std::vector<double> batch;
  for (const std::vector<double>& input : cycles) {
    batch.insert(batch.end(), input.begin(), input.end());
  }
  for (const ConverterModel& converter : {ConverterModel{}, adc}) {
    const std::vector<double> batched = run(array, batch, converter);
    ASSERT_EQ(batched.size(), cycles.size() * 4);
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      const std::vector<double> single = run(array, cycles[i], converter);
      EXPECT_EQ(std::memcmp(single.data(), batched.data() + i * 4,
                            4 * sizeof(double)),
                0)
          << "cycle " << i;
    }
  }
}

TEST(Crossbar, CompactBlockStoresOnlyTheBoundCells) {
  Crossbar array({8, 6}, 3, 2);
  EXPECT_EQ(array.bound_rows(), 3);
  EXPECT_EQ(array.bound_cols(), 2);
  array.program(2, 1, 4.5);
  EXPECT_EQ(array.cell(2, 1), 4.5);
  EXPECT_EQ(array.cell(7, 5), 0.0);  // unbound: reads as erased
  EXPECT_THROW(array.program(3, 0, 1.0), InvalidArgument);
  EXPECT_THROW(array.program(0, 2, 1.0), InvalidArgument);
  EXPECT_THROW(array.cell(8, 0), InvalidArgument);
  EXPECT_THROW(array.program(2, 1, 1.0), InvalidArgument);  // twice
  EXPECT_EQ(array.programmed_cell_count(), 1);
  EXPECT_THROW(Crossbar({8, 6}, 0, 2), InvalidArgument);
  EXPECT_THROW(Crossbar({8, 6}, 3, 7), InvalidArgument);
}

TEST(Crossbar, CompactBlockMatchesTheFullArrayBitwise) {
  // The same noisy cells on a full array and on the compact block they
  // span; unbound rows drive 0 on the full array.  Every bound column
  // must read out the same bits, with and without a quantizing ADC.
  NoiseModel noise_full({0.05, 0.01}, 9);
  NoiseModel noise_compact({0.05, 0.01}, 9);
  Crossbar full({7, 6}, 7, 6);
  Crossbar compact({7, 6}, 4, 3);
  for (Dim row = 0; row < 4; ++row) {
    for (Dim col = 0; col < 3; ++col) {
      if ((row * 3 + col) % 4 != 1) {
        const double weight = 0.37 * (row - 1.5) - 0.21 * col;
        full.program(row, col, weight, &noise_full);
        compact.program(row, col, weight, &noise_compact);
      }
    }
  }
  const std::vector<double> drives = {0.9, -1.3, 0.0, 2.25,
                                      -0.75, 0.5, 1.1, -2.0};
  std::vector<double> full_input(2 * 7, 0.0);
  for (std::size_t i = 0; i < 2; ++i) {
    std::copy_n(drives.begin() + static_cast<std::ptrdiff_t>(4 * i), 4,
                full_input.begin() + static_cast<std::ptrdiff_t>(7 * i));
  }
  for (const ConverterModel& adc :
       {ConverterModel{}, ConverterModel(6, -4.0, 4.0)}) {
    const std::vector<double> wide = run(full, full_input, adc);
    const std::vector<double> narrow = run(compact, drives, adc);
    ASSERT_EQ(narrow.size(), 2u * 3u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(std::memcmp(wide.data() + i * 6, narrow.data() + i * 3,
                            3 * sizeof(double)),
                0)
          << "cycle " << i;
    }
  }
}

TEST(Crossbar, ComputeRejectsWrongOutputLength) {
  const Crossbar array({4, 4}, 2, 3);
  const std::vector<double> input = {1.0, 2.0, 3.0, 4.0};  // 2 cycles
  std::vector<double> output(5);
  EXPECT_THROW(array.compute(input, output), InvalidArgument);
}

}  // namespace
}  // namespace vwsdk
