// Log-odds occupancy grid: the map representation maintained by each RBPF
// particle and published to the rest of the pipeline as OccupancyGridMsg.
//
// State movement is designed to be proportional to *change*, not map area
// (docs/state-sync.md):
//   - the cell block lives behind a copy-on-write CowGrid, so copying a grid
//     (RBPF resample, migration snapshots) is O(1) until a copy writes;
//   - every mutation batch stamps a globally-unique write_version onto the
//     16×16 tiles it touches, so a delta against a retained snapshot only
//     scans tiles written since the snapshot;
//   - full snapshots RLE-encode the cell block (occupancy grids are long
//     runs of unknown/saturated cells), deltas ship only changed-cell runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/grid.h"
#include "msg/messages.h"

namespace lgv::perception {

struct OccupancyGridConfig {
  double resolution = 0.1;     ///< m/cell (SLAM map; costmaps run finer)
  double log_odds_hit = 0.9;   ///< evidence added per occupied observation
  double log_odds_miss = -0.4; ///< evidence removed per free observation
  double log_odds_min = -4.0;
  double log_odds_max = 4.0;
  double occupied_threshold = 0.65;  ///< probability above which a cell is solid
  double free_threshold = 0.35;      ///< probability below which a cell is free
};

/// On-wire encoding of one grid record (first byte of the record).
enum class GridEncoding : uint8_t {
  kRaw = 0,    ///< full snapshot, cell block as raw floats (reference mode)
  kRle = 1,    ///< full snapshot, cell block as (run_len, value) runs
  kDelta = 2,  ///< changed-cell runs against a base snapshot the receiver holds
};

class OccupancyGrid {
 public:
  /// Side length of the change-tracking tiles (cells).
  static constexpr int kTileSize = 16;

  OccupancyGrid();
  /// Fixed extent map covering [origin, origin + size] meters.
  OccupancyGrid(Point2D origin, double width_m, double height_m,
                OccupancyGridConfig config = {});

  const GridFrame& frame() const { return frame_; }
  int width() const { return log_odds_.width(); }
  int height() const { return log_odds_.height(); }
  const OccupancyGridConfig& config() const { return config_; }

  double log_odds_at(CellIndex c) const;
  double probability_at(CellIndex c) const;
  bool is_occupied(CellIndex c) const;
  bool is_free(CellIndex c) const;
  bool is_unknown(CellIndex c) const;
  bool in_bounds(CellIndex c) const { return log_odds_.in_bounds(c); }

  /// Integrate one scan taken from `pose`. Beams with range beyond
  /// max_usable clear only. Returns the number of cells touched (the work
  /// unit Fig. 6's map-update cost is charged by).
  size_t integrate_scan(const Pose2D& pose, const msg::LaserScan& scan);

  /// Known/unknown bookkeeping for exploration.
  size_t known_cells() const { return known_cells_; }
  double known_area_m2() const;

  // ---- Change tracking (consumed by LikelihoodField::sync) -----------------
  // Every time a cell's occupied or unknown classification flips, the cell is
  // appended to a bounded changelog and the change version increments. A
  // derived structure that remembers (map_id, change_version) can tell whether
  // it is current, cheaply catch up through the changelog, or must rebuild
  // from scratch (changelog overflowed, or it was built from another map).
  // The changelog is in-memory state only: it is copied with the grid (so a
  // resampled particle's field stays consistent with its map copy) but never
  // serialized — across Algorithm 2 migration, derived fields rebuild.

  /// Identity of this grid's mutation history. Copies share the id (their
  /// histories are identical up to the copy point); grids built fresh —
  /// constructors, from_msg, from_binary, and every deserialize path — get a
  /// new id, so a field synced against one grid can never claim to be
  /// current for a different grid at a coincidentally-equal change version.
  /// (Migration lineage is tracked by write_version instead, which is
  /// globally unique and therefore needs no id qualifier.)
  uint64_t map_id() const { return map_id_; }
  /// Total classification flips ever applied (monotone).
  uint64_t change_version() const { return change_version_; }
  /// Version before the oldest retained changelog entry; entry i of
  /// changelog() is the flip that produced version changelog_base()+i+1.
  uint64_t changelog_base() const { return changelog_base_; }
  const std::vector<CellIndex>& changelog() const {
    static const std::vector<CellIndex> kEmptyLog;
    return changelog_ == nullptr ? kEmptyLog : *changelog_;
  }

  // ---- Value-level change tracking (consumed by the delta codec) -----------
  // Orthogonal to the classification changelog above: every mutation batch
  // (integrate_scan, from_msg/from_binary fill, delta apply) draws one stamp
  // from a process-global counter and stamps it onto the 16×16 tiles whose
  // cell values it actually changes. Because stamps are globally unique,
  // a write_version identifies one exact grid *state*: unmutated copies
  // share it, and any write diverges it. A delta against a snapshot at
  // write_version V only has to scan tiles stamped after V.

  /// Stamp of the most recent mutation batch (globally unique per state).
  uint64_t write_version() const { return write_version_; }
  /// Number of tiles written since `base_version` (delta cost estimate).
  size_t dirty_tiles_since(uint64_t base_version) const;
  size_t tile_count() const { return tile_versions_.size(); }

  /// Record that the *current* state is the base the last committed migration
  /// shipped: subsequent serialize_delta calls encode against it. The marker
  /// rides along with copies (a resampled particle's map still knows which
  /// committed state it descends from); writes never change it.
  void mark_delta_base() { delta_base_version_ = write_version_; }
  /// write_version of the committed base this grid descends from (0 = none).
  uint64_t delta_base_version() const { return delta_base_version_; }

  /// True when both grids still alias one cell block (no write since copy).
  bool shares_cells_with(const OccupancyGrid& o) const {
    return log_odds_.shares_storage_with(o.log_odds_);
  }
  /// Force private copies of the shared blocks now (deep-copy reference mode
  /// for the CoW benchmarks).
  void unshare() {
    log_odds_.unshare();
    tile_versions_.unshare();
  }

  /// Occupancy message: kUnknownCell where the log-odds is ±0.0f, else
  /// lround(100 · probability). One exp per distinct log-odds value.
  msg::OccupancyGridMsg to_msg(double stamp) const;
  /// Rebuild from a message, feeding each known cell's probability to
  /// update_cell as evidence. Lossy (a byte per cell), so migration ships
  /// serialize/deserialize_any records instead.
  static OccupancyGrid from_msg(const msg::OccupancyGridMsg& m,
                                OccupancyGridConfig config = {});

  // ---- Lossless state serialization (docs/state-sync.md) -------------------
  // The wire format the Switcher ships during Algorithm 2 state migration.
  // Every record starts with a GridEncoding byte; log-odds are preserved
  // exactly in all modes.

  /// Full snapshot (kRaw or kRle). kRle is the default wire mode; kRaw is
  /// kept as the reference encoding and for incompressible grids.
  void serialize(WireWriter& w, GridEncoding encoding = GridEncoding::kRle) const;
  /// Decode a full snapshot (throws std::runtime_error on a kDelta record —
  /// deltas need a base, use deserialize_any).
  static OccupancyGrid deserialize(WireReader& r);

  /// Delta record against `base`, which must be an unmutated snapshot of a
  /// state this grid descends from (see mark_delta_base / Gmapping's commit
  /// protocol). Encodes runs of cells whose values differ, found by scanning
  /// only tiles written after the base. Requires can_delta_against(base).
  void serialize_delta(WireWriter& w, const OccupancyGrid& base) const;
  bool can_delta_against(const OccupancyGrid& base) const;

  /// Decode any record. For kDelta, `base_lookup(base_write_version)` must
  /// return the receiver's replica of the base state (or nullptr — decode
  /// then throws std::runtime_error); write_version stamps are process-unique
  /// and preserved across serialization, so the stamp alone names the state.
  /// The replica is cloned (O(1), CoW) and the runs applied to the clone.
  using BaseLookup = std::function<const OccupancyGrid*(uint64_t write_version)>;
  static OccupancyGrid deserialize_any(WireReader& r, const BaseLookup& base_lookup);

  /// Seed from ground truth (tests & known-map navigation): solid cells take
  /// log_odds_max, free cells log_odds_min, clamped as update_cell clamps.
  /// One pass leaves the state an update_cell call per source cell, in
  /// raster order, would: cells, counts, changelog tail and tile stamps.
  static OccupancyGrid from_binary(const GridFrame& frame, const Grid<uint8_t>& solid,
                                   OccupancyGridConfig config = {});

 private:
  void update_cell(CellIndex c, double delta);
  /// Cache the classification thresholds in log-odds space and stamp a fresh
  /// map identity. Called by every construction path.
  void init_derived_state();
  bool occupied_log_odds(double l) const { return l > occupied_log_odds_; }
  void record_flip(CellIndex c);
  /// Writable changelog; clones the shared block first when aliased.
  std::vector<CellIndex>& mutable_changelog();
  /// Open a new mutation batch: draw a fresh global write_version stamp.
  void begin_mutation_batch();
  /// Stamp the tile containing cell `c` with the current batch version.
  void touch_tile(CellIndex c);
  int tiles_wide() const { return tile_versions_.width(); }
  void serialize_header(WireWriter& w) const;
  void deserialize_header(WireReader& r);
  void apply_delta_body(WireReader& r);

  GridFrame frame_;
  CowGrid<float> log_odds_;
  OccupancyGridConfig config_;
  size_t known_cells_ = 0;

  // Classification thresholds mapped into log-odds space so is_occupied /
  // is_free are a compare, not an exp. p > t  ⟺  log-odds > log(t/(1−t)).
  double occupied_log_odds_ = 0.0;
  double free_log_odds_ = 0.0;

  // Change tracking (see accessors above). Capped: on overflow the log is
  // dropped and consumers fall back to a full rebuild.
  static constexpr size_t kChangelogCap = 4096;
  uint64_t map_id_ = 0;
  uint64_t change_version_ = 0;
  uint64_t changelog_base_ = 0;
  /// Shared copy-on-write, like the cell block: a particle copy must be O(1),
  /// and at the 4096-entry cap a deep changelog copy would otherwise dominate
  /// the resample. Null means empty.
  std::shared_ptr<std::vector<CellIndex>> changelog_;

  // Value-level change tracking for the delta codec. tile_versions_ is
  // ceil(w/16) × ceil(h/16); entry (tx, ty) holds the write_version of the
  // last batch that changed a cell value inside that tile.
  CowGrid<uint64_t> tile_versions_;
  uint64_t write_version_ = 0;
  uint64_t delta_base_version_ = 0;
};

}  // namespace lgv::perception
