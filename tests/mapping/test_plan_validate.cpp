#include "mapping/plan_validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "mapping/plan_builder.h"

namespace vwsdk {
namespace {

const ArrayGeometry kSmall{64, 32};

MappingPlan good_plan() {
  const ConvShape shape = ConvShape::square(8, 3, 4, 6);
  return build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
}

bool has_issue(const MappingPlan& plan, const std::string& text) {
  for (const std::string& issue : validate_plan(plan)) {
    if (issue.find(text) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(PlanValidate, BuilderOutputsAreValid) {
  EXPECT_TRUE(validate_plan(good_plan()).empty());
  EXPECT_NO_THROW(expect_valid(good_plan()));
}

TEST(PlanValidate, DetectsRowOutsideArray) {
  MappingPlan plan = good_plan();
  plan.tiles[0].rows.front().row = 64;
  const auto issues = validate_plan(plan);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("outside array"), std::string::npos);
}

TEST(PlanValidate, DetectsDuplicateRowBinding) {
  MappingPlan plan = good_plan();
  plan.tiles[0].rows.push_back(plan.tiles[0].rows.front());
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found || issue.find("duplicate row binding") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsDuplicateRowKey) {
  MappingPlan plan = good_plan();
  // A second row carrying the first row's (ic, dy, dx, dup) on a free
  // row index: every row index stays unique, the key does not.
  RowBinding twin = plan.tiles[0].rows.front();
  twin.row = static_cast<Dim>(plan.tiles[0].rows.size());
  ASSERT_LT(twin.row, kSmall.rows);
  plan.tiles[0].rows.push_back(twin);
  EXPECT_TRUE(has_issue(plan, "row key (0,0,0,0) bound twice"));
  EXPECT_FALSE(has_issue(plan, "duplicate row binding"));
  EXPECT_THROW(expect_valid(plan), InternalError);
}

TEST(PlanValidate, DetectsRowOffsetOutsideWindow) {
  MappingPlan plan = good_plan();
  // The 4x3 window's offsets are dx in [0, 4), dy in [0, 3).
  plan.tiles[0].rows.front().dx = 4;
  EXPECT_TRUE(has_issue(plan, "row key (0,0,4,0) outside the layer or the "
                              "4x3 window"));
  // SMD rows range over the 3x3 kernel.
  const ConvShape small = ConvShape::square(6, 3, 1, 2);
  plan = build_plan_for_cost(small, kSmall, smd_cost(small, kSmall));
  ASSERT_EQ(plan.kind, PlanKind::kSmd);
  plan.tiles[0].rows.front().dy = 3;
  EXPECT_TRUE(has_issue(plan, "the 3x3 window"));
}

TEST(PlanValidate, DetectsDuplicateColumnKey) {
  MappingPlan plan = good_plan();
  ColBinding twin = plan.tiles[0].cols.front();
  twin.col = static_cast<Dim>(plan.tiles[0].cols.size());
  ASSERT_LT(twin.col, kSmall.cols);
  plan.tiles[0].cols.push_back(twin);
  EXPECT_TRUE(has_issue(plan, "col key (0,0,0,0) bound twice"));
  EXPECT_FALSE(has_issue(plan, "duplicate col binding"));
}

TEST(PlanValidate, DetectsColumnKeyOutsideLayerOrWindow) {
  MappingPlan plan = good_plan();
  // A 4x3 window holds 2x1 kernel windows: win_px in [0, 2).
  plan.tiles[0].cols.front().win_px = 2;
  EXPECT_TRUE(has_issue(plan, "col key (0,0,2,0) outside"));
  const ConvShape small = ConvShape::square(6, 3, 1, 2);
  plan = build_plan_for_cost(small, kSmall, smd_cost(small, kSmall));
  plan.tiles[0].cols.front().dup = plan.cost.smd_duplicates;
  EXPECT_TRUE(has_issue(plan, "col key (0,0,0,7) outside"));
}

TEST(PlanValidate, DetectsBandBindingsThatDifferAcrossTiles) {
  // 9 IC x 40 OC with a 4x3 window: AR = 2 channel bands, AC = 3.
  const ConvShape shape = ConvShape::square(8, 3, 9, 40);
  const MappingPlan good =
      build_plan_for_cost(shape, kSmall, vw_cost(shape, kSmall, {4, 3}));
  ASSERT_EQ(good.tiles.size(), 6u);
  ASSERT_TRUE(validate_plan(good).empty());

  MappingPlan plan = good;
  plan.tiles[1].rows.pop_back();  // tile(0,1) drops a row tile(0,0) binds
  EXPECT_TRUE(
      has_issue(plan, "tile(0,1): row bindings differ from tile(0,0)"));
  plan = good;
  plan.tiles[5].cols.front().oc += 1;  // tile(1,2) vs tile(0,2)
  EXPECT_TRUE(
      has_issue(plan, "tile(1,2): col bindings differ from tile(0,2)"));
  plan = good;
  std::swap(plan.tiles[0], plan.tiles[1]);
  EXPECT_TRUE(has_issue(plan, "tile(0,1) stored at position (0,0)"));
}

TEST(PlanValidate, DetectsChannelDroppedFromCoverage) {
  MappingPlan plan = good_plan();
  // Remove every row binding of channel 2.
  auto& rows = plan.tiles[0].rows;
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [](const RowBinding& rb) { return rb.ic == 2; }),
             rows.end());
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found || issue.find("input row entity 2 not mapped") !=
                         std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsOutputChannelMissing) {
  MappingPlan plan = good_plan();
  auto& cols = plan.tiles[0].cols;
  cols.erase(std::remove_if(cols.begin(), cols.end(),
                            [](const ColBinding& cb) { return cb.oc == 5; }),
             cols.end());
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found || issue.find("output column entity 5 not mapped") !=
                         std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsBaseGridGap) {
  MappingPlan plan = good_plan();
  plan.base_x.pop_back();
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found ||
            issue.find("not fully covered along x") != std::string::npos ||
            issue.find("cycles") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsCycleMismatch) {
  MappingPlan plan = good_plan();
  plan.cost.total += 1;
  bool found = false;
  for (const std::string& issue : validate_plan(plan)) {
    found = found || issue.find("analytic cycles") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(PlanValidate, DetectsEmptyPlan) {
  MappingPlan plan;
  plan.shape = ConvShape::square(8, 3, 4, 6);
  plan.geometry = kSmall;
  const auto issues = validate_plan(plan);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("no tiles"), std::string::npos);
}

TEST(PlanValidate, SmdAndIm2colPlansValidate) {
  const ConvShape small = ConvShape::square(6, 3, 1, 2);
  EXPECT_TRUE(
      validate_plan(build_plan_for_cost(small, kSmall, smd_cost(small, kSmall)))
          .empty());
  const ConvShape split = ConvShape::square(6, 3, 8, 10);
  EXPECT_TRUE(validate_plan(build_plan_for_cost(split, kSmall,
                                                im2col_cost(split, kSmall)))
                  .empty());
}

}  // namespace
}  // namespace vwsdk
