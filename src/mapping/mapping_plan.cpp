#include "mapping/mapping_plan.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

const ArrayTile& MappingPlan::tile(Dim ar, Dim ac) const {
  VWSDK_REQUIRE(ar >= 0 && ar < cost.ar_cycles && ac >= 0 &&
                    ac < cost.ac_cycles,
                cat("tile (", ar, ", ", ac, ") out of range ",
                    cost.ar_cycles, "x", cost.ac_cycles));
  const std::size_t index = static_cast<std::size_t>(ar) *
                                static_cast<std::size_t>(cost.ac_cycles) +
                            static_cast<std::size_t>(ac);
  VWSDK_ASSERT(index < tiles.size(), "tile list inconsistent with cost");
  return tiles[index];
}

Cycles MappingPlan::total_cycles() const {
  const Count grid = (kind == PlanKind::kSmd)
                         ? ceil_div(shape.num_windows(), cost.smd_duplicates)
                         : checked_mul(static_cast<Count>(base_x.size()),
                                       static_cast<Count>(base_y.size()));
  return checked_mul(grid, static_cast<Count>(tiles.size()));
}

Count MappingPlan::programmed_cells() const {
  Count total = 0;
  for (const ArrayTile& t : tiles) {
    for (const CellBlock& c : column_classes(shape, t)) {
      total = checked_add(
          total, checked_mul(static_cast<Count>(c.rows.size()),
                             static_cast<Count>(c.cols.size())));
    }
  }
  return total;
}

std::vector<CellBlock> column_classes(const ConvShape& shape,
                                      const ArrayTile& tile) {
  std::vector<CellBlock> classes;
  std::map<std::tuple<Dim, Dim, Dim>, std::size_t> index;
  for (const ColBinding& cb : tile.cols) {
    const auto [it, fresh] =
        index.try_emplace({cb.win_py, cb.win_px, cb.dup}, classes.size());
    if (fresh) {
      CellBlock& c = classes.emplace_back();
      for (const RowBinding& rb : tile.rows) {
        if (cell_weight(shape, rb, cb).has_value()) {
          c.rows.push_back(rb.row);
        }
      }
      std::sort(c.rows.begin(), c.rows.end());
    }
    classes[it->second].cols.push_back(cb.col);
  }
  return classes;
}

}  // namespace vwsdk
