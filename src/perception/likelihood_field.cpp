#include "perception/likelihood_field.h"

namespace lgv::perception {

void LikelihoodField::rebuild_cell(const OccupancyGrid& map, CellIndex c) {
  uint16_t e = map.is_unknown(c) ? kUnknownBit : uint16_t{0};
  uint16_t bit = 1;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx, bit = static_cast<uint16_t>(bit << 1)) {
      if (map.is_occupied({c.x + dx, c.y + dy})) e |= bit;
    }
  }
  if (cells_.at(c.x + 1, c.y + 1) != e) cells_.mut_at(c.x + 1, c.y + 1) = e;
}

size_t LikelihoodField::sync(const OccupancyGrid& map) {
  if (in_sync_with(map)) return 0;

  if (compatible_with(map) && synced_version_ >= map.changelog_base()) {
    // Incremental: a flipped cell changes the neighbor mask of every cell in
    // its 3×3 neighborhood (and its own unknown flag), so rebuild exactly
    // those. Duplicate entries are harmless — rebuild_cell is idempotent.
    const std::vector<CellIndex>& log = map.changelog();
    size_t rebuilt = 0;
    for (size_t i = synced_version_ - map.changelog_base(); i < log.size(); ++i) {
      const CellIndex q = log[i];
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          rebuild_cell(map, {q.x + dx, q.y + dy});
          ++rebuilt;
        }
      }
    }
    synced_version_ = map.change_version();
    return rebuilt;
  }

  // Full rebuild, pad ring included.
  frame_ = map.frame();
  width_ = map.width();
  height_ = map.height();
  cells_ = CowGrid<uint16_t>(width_ + 2, height_ + 2, 0);
  for (int y = -1; y <= height_; ++y) {
    for (int x = -1; x <= width_; ++x) {
      rebuild_cell(map, {x, y});
    }
  }
  map_id_ = map.map_id();
  synced_version_ = map.change_version();
  return cells_.size();
}

}  // namespace lgv::perception
