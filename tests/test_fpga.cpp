// Tests for the FPGA area/timing model against Tables IV and V.  The
// same fit is the "worst cell error" row of `alpusim conform`.
#include <gtest/gtest.h>

#include <cmath>

#include "fpga/area_model.hpp"

namespace alpu::fpga {
namespace {

double pct(double model, double paper) {
  return std::abs(model - paper) / paper * 100.0;
}

struct TableCase {
  hw::AlpuFlavor flavor;
  PublishedRow row;
};

class PublishedRows : public ::testing::TestWithParam<TableCase> {};

TEST_P(PublishedRows, EstimatesWithinTwoPercent) {
  const TableCase& tc = GetParam();
  PrototypeParams p;
  p.flavor = tc.flavor;
  p.total_cells = tc.row.total_cells;
  p.block_size = tc.row.block_size;
  const SynthesisEstimate est = estimate(p);

  EXPECT_LT(pct(static_cast<double>(est.luts),
                static_cast<double>(tc.row.luts)), 2.0);
  EXPECT_LT(pct(static_cast<double>(est.flip_flops),
                static_cast<double>(tc.row.flip_flops)), 2.0);
  EXPECT_LT(pct(static_cast<double>(est.slices),
                static_cast<double>(tc.row.slices)), 2.0);
  EXPECT_LT(pct(est.clock_mhz, tc.row.clock_mhz), 2.0);
  EXPECT_EQ(est.pipeline_latency, tc.row.pipeline_latency);
}

std::vector<TableCase> all_rows() {
  std::vector<TableCase> cases;
  for (const auto& r : published_table4()) {
    cases.push_back({hw::AlpuFlavor::kPostedReceive, r});
  }
  for (const auto& r : published_table5()) {
    cases.push_back({hw::AlpuFlavor::kUnexpected, r});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Tables4And5, PublishedRows, ::testing::ValuesIn(all_rows()),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      const TableCase& tc = info.param;
      return std::string(tc.flavor == hw::AlpuFlavor::kPostedReceive
                             ? "posted"
                             : "unexpected") +
             "_" + std::to_string(tc.row.total_cells) + "c" +
             std::to_string(tc.row.block_size) + "b";
    });

// ---- structural sanity -----------------------------------------------------

TEST(AreaModel, PostedCellStoresMaskUnexpectedDoesNot) {
  PrototypeParams posted{.flavor = hw::AlpuFlavor::kPostedReceive};
  PrototypeParams unexpected{.flavor = hw::AlpuFlavor::kUnexpected};
  // 42 match + 42 mask + 16 tag + 1 valid vs 42 + 16 + 1.
  EXPECT_EQ(cell_flip_flops(posted), 101u);
  EXPECT_EQ(cell_flip_flops(unexpected), 59u);
}

TEST(AreaModel, FlipFlopsScaleWithCells) {
  PrototypeParams p;
  p.total_cells = 256;
  const auto big = estimate(p);
  p.total_cells = 128;
  const auto small = estimate(p);
  // Doubling the cells roughly doubles storage.
  EXPECT_GT(static_cast<double>(big.flip_flops),
            1.9 * static_cast<double>(small.flip_flops));
  EXPECT_LT(static_cast<double>(big.flip_flops),
            2.2 * static_cast<double>(small.flip_flops));
}

TEST(AreaModel, LargerBlocksTradeFfForLuts) {
  // The paper's consistent trend: bigger blocks -> fewer FFs (fewer
  // per-block request registers), slightly more LUTs, fewer slices.
  PrototypeParams p;
  p.total_cells = 256;
  p.block_size = 8;
  const auto b8 = estimate(p);
  p.block_size = 32;
  const auto b32 = estimate(p);
  EXPECT_LT(b32.flip_flops, b8.flip_flops);
  EXPECT_GT(b32.luts, b8.luts);
  EXPECT_LT(b32.slices, b8.slices);
}

TEST(AreaModel, Block32MissesTheNineNsConstraint) {
  PrototypeParams p;
  p.block_size = 16;
  EXPECT_GT(estimate(p).clock_mhz, 111.0);
  p.block_size = 32;
  EXPECT_LT(estimate(p).clock_mhz, 105.0);
}

TEST(AreaModel, LatencyRuleMatchesBlockCount) {
  PrototypeParams p;
  // >= 16 blocks -> 2-cycle cross-block stage -> 7 total.
  p.total_cells = 256;
  p.block_size = 8;  // 32 blocks
  EXPECT_EQ(estimate(p).pipeline_latency, 7u);
  p.block_size = 32;  // 8 blocks
  EXPECT_EQ(estimate(p).pipeline_latency, 6u);
  p.total_cells = 128;
  p.block_size = 8;  // 16 blocks
  EXPECT_EQ(estimate(p).pipeline_latency, 7u);
  p.block_size = 16;  // 8 blocks
  EXPECT_EQ(estimate(p).pipeline_latency, 6u);
}

TEST(AreaModel, AsicProjectionIsFiveTimesFpga) {
  PrototypeParams p;
  const auto est = estimate(p);
  EXPECT_DOUBLE_EQ(est.asic_clock_mhz, est.clock_mhz * 5.0);
  EXPECT_GT(est.asic_clock_mhz, 500.0);  // the Section VI-A claim
}

TEST(AreaModel, PublishedTablesHaveSixRowsEach) {
  EXPECT_EQ(published_table4().size(), 6u);
  EXPECT_EQ(published_table5().size(), 6u);
}

}  // namespace
}  // namespace alpu::fpga
