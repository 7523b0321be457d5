#include "pim/crossbar.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.h"

namespace vwsdk {
namespace {

TEST(Crossbar, StartsErased) {
  const Crossbar array({4, 4});
  EXPECT_EQ(array.programmed_cell_count(), 0);
  EXPECT_EQ(array.cell(2, 3), 0.0);
}

TEST(Crossbar, ProgramAndRead) {
  Crossbar array({4, 4});
  array.program(1, 2, -0.5);
  EXPECT_EQ(array.cell(1, 2), -0.5);
  EXPECT_EQ(array.cell(2, 1), 0.0);
  EXPECT_EQ(array.programmed_cell_count(), 1);
}

TEST(Crossbar, DoubleProgramIsACollision) {
  Crossbar array({4, 4});
  array.program(0, 0, 1.0);
  EXPECT_THROW(array.program(0, 0, 2.0), InvalidArgument);
}

TEST(Crossbar, OutOfRangeAccessRejected) {
  Crossbar array({4, 8});
  EXPECT_THROW(array.program(4, 0, 1.0), InvalidArgument);
  EXPECT_THROW(array.program(0, 8, 1.0), InvalidArgument);
  EXPECT_THROW(array.cell(-1, 0), InvalidArgument);
}

TEST(Crossbar, ComputeIsMatrixVectorProduct) {
  // 2x3 array: cells[r][c] = weight; input = (2, 3).
  Crossbar array({2, 3});
  array.program(0, 0, 1.0);
  array.program(0, 1, 2.0);
  array.program(1, 1, -1.0);
  array.program(1, 2, 4.0);
  const std::vector<double> out = array.compute({2.0, 3.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 2.0);        // 2*1
  EXPECT_EQ(out[1], 1.0);        // 2*2 + 3*(-1)
  EXPECT_EQ(out[2], 12.0);       // 3*4
}

TEST(Crossbar, ComputeRejectsWrongInputLength) {
  const Crossbar array({2, 3});
  EXPECT_THROW(array.compute({1.0}), InvalidArgument);
  EXPECT_THROW(array.compute({1.0, 2.0, 3.0}), InvalidArgument);
  EXPECT_THROW(array.compute({}), InvalidArgument);
}

TEST(Crossbar, IdleRowsContributeNothing) {
  Crossbar array({3, 1});
  array.program(0, 0, 5.0);
  array.program(2, 0, 7.0);
  const std::vector<double> out = array.compute({0.0, 123.0, 1.0});
  EXPECT_EQ(out[0], 7.0);  // row 1 has no cell; row 0 driven with 0
}

TEST(Crossbar, QuantizingAdcAppliedPerColumn) {
  Crossbar array({1, 2});
  array.program(0, 0, 1.0);
  array.program(0, 1, 1.0);
  // 3-bit ADC over [0, 8): step 1; value 2.7 -> 2.0.
  const ConverterModel adc(3, 0.0, 8.0);
  const std::vector<double> out = array.compute({2.7}, adc);
  EXPECT_EQ(out[0], 2.0);
  EXPECT_EQ(out[1], 2.0);
}

TEST(Crossbar, NoiseAppliedAtProgrammingIsDeterministic) {
  NoiseModel noise_a({0.1, 0.0}, 42);
  NoiseModel noise_b({0.1, 0.0}, 42);
  Crossbar a({1, 1});
  Crossbar b({1, 1});
  a.program(0, 0, 1.0, &noise_a);
  b.program(0, 0, 1.0, &noise_b);
  EXPECT_EQ(a.cell(0, 0), b.cell(0, 0));
  EXPECT_NE(a.cell(0, 0), 1.0);  // sigma 0.1 perturbs with prob ~1
}

TEST(Crossbar, BatchedComputeMatchesPerCycle) {
  // Noisy cells and a quantizing ADC: a batch of N cycles must equal N
  // single-cycle calls bit for bit.
  NoiseModel noise({0.05, 0.01}, 3);
  Crossbar array({5, 4});
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
    const std::vector<double> batched = array.compute(batch, converter);
    ASSERT_EQ(batched.size(), cycles.size() * 4);
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      const std::vector<double> single = array.compute(cycles[i], converter);
      EXPECT_EQ(std::memcmp(single.data(), batched.data() + i * 4,
                            4 * sizeof(double)),
                0)
          << "cycle " << i;
    }
  }
}

}  // namespace
}  // namespace vwsdk
