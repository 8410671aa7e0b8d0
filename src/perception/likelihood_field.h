// Likelihood field: a map-derived cache that turns the scan-match inner loop
// from "probe a 3×3 occupancy neighborhood with an exp() per cell" into one
// packed-entry lookup (§V's scanMatch bottleneck; AMCL's likelihood-field
// measurement model uses the same cache).
//
// Each entry packs, for one map cell c:
//   bits 0..8  — which cells of c's 3×3 neighborhood are occupied
//                (bit k ↔ offset (k%3−1, k/3−1); bit 4 is c itself)
//   bit 9      — c is unknown (never observed, or out of the map)
// From the mask a scorer recovers exactly what the brute-force scorer
// computes: the minimum squared distance from a beam endpoint to an occupied
// neighbor cell center (min_obstacle_d2), whether any occupied neighbor
// exists at all, and the occupied/unknown flags for the free-space-before-
// endpoint and exploration-bonus checks. Because exp(−d²/2σ²) is monotone in
// d², "max of exp over neighbors" equals "exp of min d²" — the cached score
// agrees with the brute-force one to floating-point rounding (the occupied
// sets and branch decisions are identical by construction; only the d²
// arithmetic rounds differently), and the field itself is σ-independent
// (GMapping's matcher and AMCL share one).
//
// The field carries a 1-cell pad ring so endpoints that land one cell outside
// the map still see their in-bounds occupied neighbors, matching the
// brute-force scorer's bounds behavior; anything further out reads as
// unknown, which is also what the map reports.
//
// Invalidation: OccupancyGrid logs every cell whose occupied/unknown
// classification flips (see its change-tracking API). sync() consumes that
// log and rebuilds only the flipped cells' 3×3 neighborhoods; it falls back
// to a full rebuild when the log overflowed or the field was built against a
// different map (different map_id). The field is derived state: it is copied
// alongside its particle's map during RBPF resampling (staying consistent by
// construction) and is never serialized — after Algorithm 2 state migration
// it rebuilds on first use.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

#include "common/geometry.h"
#include "common/grid.h"
#include "perception/occupancy_grid.h"

namespace lgv::perception {

class LikelihoodField {
 public:
  static constexpr uint16_t kNeighborMask = 0x1FF;     ///< bits 0..8
  static constexpr uint16_t kSelfOccupiedBit = 1u << 4;
  static constexpr uint16_t kUnknownBit = 1u << 9;

  LikelihoodField() = default;

  /// Bring the field up to date with `map`: no-op when already current,
  /// incremental when the map's changelog covers the gap, full rebuild
  /// otherwise. Returns the number of field cells recomputed (the work unit
  /// the platform cycle model charges field maintenance by).
  size_t sync(const OccupancyGrid& map);

  bool in_sync_with(const OccupancyGrid& map) const {
    return compatible_with(map) && synced_version_ == map.change_version();
  }
  bool empty() const { return cells_.size() == 0; }

  const GridFrame& frame() const { return frame_; }
  int width() const { return width_; }
  int height() const { return height_; }

  /// Packed entry for cell `c` (see header comment); cells beyond the pad
  /// ring read as unknown with no occupied neighbors.
  uint16_t entry(CellIndex c) const {
    return cells_.value_or({c.x + 1, c.y + 1}, kUnknownBit);
  }
  bool occupied(CellIndex c) const { return (entry(c) & kSelfOccupiedBit) != 0; }

  /// Force a private copy of the (CoW-shared) entry block now — deep-copy
  /// reference mode for the resample benchmarks.
  void unshare() { cells_.unshare(); }

  bool unknown(CellIndex c) const { return (entry(c) & kUnknownBit) != 0; }
  bool has_obstacle_near(CellIndex c) const { return (entry(c) & kNeighborMask) != 0; }

  /// Minimum squared distance from `p` to the center of an occupied cell in
  /// `c`'s 3×3 neighborhood; +infinity when none is occupied. Computed as
  /// dx²+dy² directly (the brute-force scorers square a hypot), so cached
  /// scores agree with the reference up to floating-point rounding.
  double min_obstacle_d2(CellIndex c, const Point2D& p) const {
    uint16_t mask = entry(c) & kNeighborMask;
    double best = std::numeric_limits<double>::infinity();
    while (mask != 0) {
      const int k = std::countr_zero(mask);
      mask = static_cast<uint16_t>(mask & (mask - 1));
      const Point2D cw = frame_.cell_to_world({c.x + k % 3 - 1, c.y + k / 3 - 1});
      const double dx = cw.x - p.x, dy = cw.y - p.y;
      best = std::min(best, dx * dx + dy * dy);
    }
    return best;
  }

 private:
  bool compatible_with(const OccupancyGrid& map) const {
    return !empty() && map_id_ == map.map_id() && width_ == map.width() &&
           height_ == map.height() && frame_ == map.frame();
  }
  /// Recompute the packed entry of `c` (map coordinates; pad ring included).
  void rebuild_cell(const OccupancyGrid& map, CellIndex c);

  GridFrame frame_;
  int width_ = 0;   ///< map width; the grid below is padded to width_+2
  int height_ = 0;
  // (width_+2)×(height_+2), index shifted by +1. Copy-on-write: a resampled
  // particle's field shares the block with its source until one of them is
  // written (its map copy shares storage too, so they drift together).
  CowGrid<uint16_t> cells_;
  uint64_t map_id_ = 0;
  uint64_t synced_version_ = 0;
};

}  // namespace lgv::perception
