#include "mapping/plan_validate.h"

#include <algorithm>
#include <cstdint>

#include "common/error.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace vwsdk {

namespace {

/// Indices in [0, size) bound within one tile.  Each index remembers the
/// last tile that bound it, so starting a tile clears the set in O(1).
class TileMarks {
 public:
  explicit TileMarks(Count size) : tile_(static_cast<std::size_t>(size), 0) {}

  /// Starts the next tile with no index bound.
  void next_tile() { ++current_; }

  /// Binds `index`; false if the current tile already bound it.
  bool mark(Count index) {
    std::uint32_t& tile = tile_[static_cast<std::size_t>(index)];
    if (tile == current_) {
      return false;
    }
    tile = current_;
    return true;
  }

 private:
  std::vector<std::uint32_t> tile_;
  std::uint32_t current_ = 0;
};

/// The tile band (AR for row entities, AC for column entities) that binds
/// each entity: kUnbound, one band index, or kSeveral.
class Bands {
 public:
  explicit Bands(Count entities)
      : band_(static_cast<std::size_t>(entities), kUnbound) {}

  void bind(Count entity, Dim band) {
    Dim& owner = band_[static_cast<std::size_t>(entity)];
    owner = (owner == kUnbound || owner == band) ? band : kSeveral;
  }

  /// Every entity must be bound by exactly one band.
  void check(const char* entity_name, const char* band_name,
             std::vector<std::string>& issues) const {
    for (std::size_t entity = 0; entity < band_.size(); ++entity) {
      if (band_[entity] == kUnbound) {
        issues.push_back(cat(entity_name, " ", entity, " not mapped"));
      } else if (band_[entity] == kSeveral) {
        issues.push_back(cat(entity_name, " ", entity,
                             " mapped in more than one ", band_name,
                             " tile"));
      }
    }
  }

 private:
  static constexpr Dim kUnbound = -1;
  static constexpr Dim kSeveral = -2;
  std::vector<Dim> band_;
};

/// value in [0, end), as one unsigned comparison.
bool in_range(Dim value, Count end) {
  return static_cast<std::uint64_t>(static_cast<Count>(value)) <
         static_cast<std::uint64_t>(end);
}

/// The binding checks of single tiles, and the global band coverage they
/// feed.  Within one tile a row key (ic, dy, dx, dup) and a column key
/// (oc, win_py, win_px, dup) are bound at most once.  Globally every input
/// row entity lies in exactly one AR tile band and every output column
/// entity in exactly one AC tile band.  The entities are whole channels
/// for kWindowed and otherwise the keys less the duplicate: flat window
/// elements (ic, dy, dx) / flat columns (oc, window) for kWindowedSplit,
/// flat kernel elements (ic, ky, kx) / output channels for im2col and SMD.
class BindingCheck {
 public:
  BindingCheck(const MappingPlan& plan, std::vector<std::string>& issues)
      : plan_(plan),
        issues_(issues),
        // Row offsets range over the parallel window (the kernel for
        // im2col and SMD); column window indices over the kernel windows
        // inside it.
        offsets_(plan.kind == PlanKind::kIm2colDense ||
                         plan.kind == PlanKind::kSmd
                     ? kernel_window(plan.shape)
                     : plan.cost.window),
        wip_w_(windows_in_pw_w(plan.shape, offsets_)),
        wip_h_(windows_in_pw_h(plan.shape, offsets_)),
        dups_(plan.kind == PlanKind::kSmd ? plan.cost.smd_duplicates : 1),
        row_offsets_(checked_mul(plan.shape.in_channels, offsets_.area())),
        col_windows_(checked_mul(plan.shape.out_channels,
                                 checked_mul(wip_w_, wip_h_))),
        whole_channels_(plan.kind == PlanKind::kWindowed),
        rows_(plan.geometry.rows),
        cols_(plan.geometry.cols),
        row_keys_(checked_mul(dups_, row_offsets_)),
        col_keys_(checked_mul(dups_, col_windows_)),
        row_bands_(whole_channels_ ? plan.shape.in_channels : row_offsets_),
        col_bands_(whole_channels_ ? plan.shape.out_channels : col_windows_) {
  }

  /// Kernel windows per parallel window along x and y.
  Count wip_w() const { return wip_w_; }
  Count wip_h() const { return wip_h_; }

  /// Checks the row bindings of `tile`, binding its row entities to its
  /// AR band.
  void rows(const ArrayTile& tile) {
    rows_.next_tile();
    row_keys_.next_tile();
    for (const RowBinding& rb : tile.rows) {
      if (!in_range(rb.row, plan_.geometry.rows)) {
        issue(tile, ": row ", rb.row, " outside array");
        continue;
      }
      if (!rows_.mark(rb.row)) {
        issue(tile, ": duplicate row binding ", rb.row);
      }
      if (!in_range(rb.ic, plan_.shape.in_channels) ||
          !in_range(rb.dup, dups_) || !in_range(rb.dy, offsets_.h) ||
          !in_range(rb.dx, offsets_.w)) {
        issue(tile, ": row key (", rb.ic, ",", rb.dy, ",", rb.dx, ",",
              rb.dup, ") outside the layer or the ", offsets_.to_string(),
              " window");
        continue;
      }
      const Count offset =
          (rb.ic * static_cast<Count>(offsets_.h) + rb.dy) * offsets_.w +
          rb.dx;
      if (!row_keys_.mark(rb.dup * row_offsets_ + offset)) {
        issue(tile, ": row key (", rb.ic, ",", rb.dy, ",", rb.dx, ",",
              rb.dup, ") bound twice");
      }
      row_bands_.bind(whole_channels_ ? rb.ic : offset, tile.ar_index);
    }
  }

  /// Checks the column bindings of `tile`, binding its column entities to
  /// its AC band.
  void cols(const ArrayTile& tile) {
    cols_.next_tile();
    col_keys_.next_tile();
    for (const ColBinding& cb : tile.cols) {
      if (!in_range(cb.col, plan_.geometry.cols)) {
        issue(tile, ": col ", cb.col, " outside array");
        continue;
      }
      if (!cols_.mark(cb.col)) {
        issue(tile, ": duplicate col binding ", cb.col);
      }
      if (!in_range(cb.oc, plan_.shape.out_channels) ||
          !in_range(cb.dup, dups_) || !in_range(cb.win_py, wip_h_) ||
          !in_range(cb.win_px, wip_w_)) {
        issue(tile, ": col key (", cb.oc, ",", cb.win_py, ",", cb.win_px,
              ",", cb.dup, ") outside the layer or the parallel window");
        continue;
      }
      const Count window = (cb.oc * wip_h_ + cb.win_py) * wip_w_ + cb.win_px;
      if (!col_keys_.mark(cb.dup * col_windows_ + window)) {
        issue(tile, ": col key (", cb.oc, ",", cb.win_py, ",", cb.win_px,
              ",", cb.dup, ") bound twice");
      }
      col_bands_.bind(whole_channels_ ? cb.oc : window, tile.ac_index);
    }
  }

  /// Reports every entity not bound by exactly one band.
  void coverage() const {
    row_bands_.check("input row entity", "AR", issues_);
    col_bands_.check("output column entity", "AC", issues_);
  }

 private:
  template <typename... Parts>
  void issue(const ArrayTile& tile, const Parts&... parts) {
    issues_.push_back(
        cat("tile(", tile.ar_index, ",", tile.ac_index, ")", parts...));
  }

  const MappingPlan& plan_;
  std::vector<std::string>& issues_;
  ParallelWindow offsets_;
  Count wip_w_;
  Count wip_h_;
  Count dups_;
  Count row_offsets_;
  Count col_windows_;
  bool whole_channels_;
  TileMarks rows_;
  TileMarks cols_;
  TileMarks row_keys_;
  TileMarks col_keys_;
  Bands row_bands_;
  Bands col_bands_;
};

}  // namespace

std::vector<std::string> validate_plan(const MappingPlan& plan) {
  std::vector<std::string> issues;
  const ConvShape& s = plan.shape;

  if (plan.tiles.empty()) {
    issues.emplace_back("plan has no tiles");
    return issues;
  }
  BindingCheck bindings(plan, issues);
  if (static_cast<Count>(plan.tiles.size()) !=
      plan.cost.ar_cycles * plan.cost.ac_cycles) {
    issues.push_back(cat("tile count ", plan.tiles.size(),
                         " != AR*AC = ", plan.cost.ar_cycles, "*",
                         plan.cost.ac_cycles));
  } else {
    // The tiles of one AR band share its row bindings and the tiles of one
    // AC band its column bindings (the executor sums an AC band's partial
    // sums column by column), so each band is checked on its first tile.
    for (Dim ar = 0; ar < plan.cost.ar_cycles; ++ar) {
      for (Dim ac = 0; ac < plan.cost.ac_cycles; ++ac) {
        const ArrayTile& tile = plan.tile(ar, ac);
        if (tile.ar_index != ar || tile.ac_index != ac) {
          issues.push_back(cat("tile(", tile.ar_index, ",", tile.ac_index,
                               ") stored at position (", ar, ",", ac, ")"));
        }
        if (ac == 0) {
          bindings.rows(tile);
        } else if (tile.rows != plan.tile(ar, 0).rows) {
          issues.push_back(cat("tile(", ar, ",", ac,
                               "): row bindings differ from tile(", ar,
                               ",0)"));
        }
        if (ar == 0) {
          bindings.cols(tile);
        } else if (tile.cols != plan.tile(0, ac).cols) {
          issues.push_back(cat("tile(", ar, ",", ac,
                               "): col bindings differ from tile(0,", ac,
                               ")"));
        }
      }
    }
    bindings.coverage();
  }

  // Window coverage by the base grid (SMD covers windows by construction).
  if (plan.kind != PlanKind::kSmd) {
    std::vector<char> covered_x(static_cast<std::size_t>(s.windows_w()), 0);
    for (const Dim bx : plan.base_x) {
      if (bx % s.stride_w != 0) {
        issues.push_back(cat("base x ", bx, " not stride-aligned"));
        continue;
      }
      const Count first = bx / s.stride_w;
      for (Count k = 0; k < bindings.wip_w(); ++k) {
        if (first + k >= s.windows_w()) {
          issues.push_back(cat("base x ", bx, " overruns the window grid"));
          break;
        }
        covered_x[static_cast<std::size_t>(first + k)] = 1;
      }
    }
    std::vector<char> covered_y(static_cast<std::size_t>(s.windows_h()), 0);
    for (const Dim by : plan.base_y) {
      if (by % s.stride_h != 0) {
        issues.push_back(cat("base y ", by, " not stride-aligned"));
        continue;
      }
      const Count first = by / s.stride_h;
      for (Count k = 0; k < bindings.wip_h(); ++k) {
        if (first + k >= s.windows_h()) {
          issues.push_back(cat("base y ", by, " overruns the window grid"));
          break;
        }
        covered_y[static_cast<std::size_t>(first + k)] = 1;
      }
    }
    if (std::count(covered_x.begin(), covered_x.end(), 1) !=
        static_cast<std::ptrdiff_t>(covered_x.size())) {
      issues.emplace_back("window grid not fully covered along x");
    }
    if (std::count(covered_y.begin(), covered_y.end(), 1) !=
        static_cast<std::ptrdiff_t>(covered_y.size())) {
      issues.emplace_back("window grid not fully covered along y");
    }
  }

  // Realized cycles must equal the analytic cost.
  if (plan.total_cycles() != plan.cost.total) {
    issues.push_back(cat("plan cycles ", plan.total_cycles(),
                         " != analytic cycles ", plan.cost.total));
  }
  return issues;
}

void expect_valid(const MappingPlan& plan) {
  const std::vector<std::string> issues = validate_plan(plan);
  if (!issues.empty()) {
    throw InternalError(cat("invalid mapping plan (", issues.size(),
                            " issues): ", join(issues, "; ")));
  }
}

}  // namespace vwsdk
