#include "perception/occupancy_grid.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

namespace lgv::perception {

namespace {
/// Map identities are process-unique so a derived field built against one
/// grid can never mistake a different grid at a coincidentally-equal change
/// version for its own.
uint64_t next_map_id() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Write-version stamps come from one process-wide counter so a stamp is
/// never reused across grids: (map_id, write_version) names one exact state
/// even after copies of a map diverge through resampling.
std::atomic<uint64_t> g_write_version{1};

uint64_t next_write_version() {
  return g_write_version.fetch_add(1, std::memory_order_relaxed);
}

/// After restoring a stamp from the wire, push the counter past it so stamps
/// minted later still compare strictly greater (matters only for persisted or
/// crafted buffers; in-process the counter is already ahead).
void bump_write_version_past(uint64_t v) {
  uint64_t cur = g_write_version.load(std::memory_order_relaxed);
  while (cur <= v &&
         !g_write_version.compare_exchange_weak(cur, v + 1, std::memory_order_relaxed)) {
  }
}

/// Upper bound on w*h accepted from the wire (256 MiB of cells) — the dims
/// are attacker-controlled and RLE legitimately decodes a large grid from a
/// handful of bytes, so remaining-buffer size cannot bound the allocation.
constexpr uint64_t kMaxWireCells = uint64_t{1} << 26;

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

/// The value update_cell writes for a cell holding `old`: the evidence sum
/// clamped to the config's range, nudged off zero so an observed cell never
/// reads as unknown.
float next_log_odds(float old, double delta, const OccupancyGridConfig& config) {
  const float next = static_cast<float>(std::clamp(static_cast<double>(old) + delta,
                                                   config.log_odds_min, config.log_odds_max));
  if (next == 0.0f) return delta < 0 ? -1e-3f : 1e-3f;  // stay "known"
  return next;
}

double probability_of(double log_odds) { return 1.0 - 1.0 / (1.0 + std::exp(log_odds)); }

/// Full-snapshot cell payload as (run_len, value) runs of bit-identical
/// floats. Occupancy grids are long stretches of unknown (0.0f) and
/// saturated (±log_odds_max) cells, so this routinely shrinks the block by
/// an order of magnitude without losing a bit.
void encode_rle(WireWriter& w, const std::vector<float>& cells) {
  size_t i = 0;
  while (i < cells.size()) {
    size_t j = i + 1;
    while (j < cells.size() && same_bits(cells[j], cells[i])) ++j;
    w.put_varint(j - i);
    w.put_float(cells[i]);
    i = j;
  }
}

void decode_rle(WireReader& r, std::vector<float>& out) {
  size_t filled = 0;
  while (filled < out.size()) {
    const uint64_t len = r.get_varint();
    if (len == 0 || len > out.size() - filled) {
      throw std::out_of_range("grid rle: bad run length");
    }
    const float v = r.get_float();
    std::fill_n(out.begin() + filled, static_cast<size_t>(len), v);
    filled += static_cast<size_t>(len);
  }
}
}  // namespace

OccupancyGrid::OccupancyGrid() { init_derived_state(); }

OccupancyGrid::OccupancyGrid(Point2D origin, double width_m, double height_m,
                             OccupancyGridConfig config)
    : config_(config) {
  frame_.origin = origin;
  frame_.resolution = config.resolution;
  const int w = static_cast<int>(std::ceil(width_m / config.resolution));
  const int h = static_cast<int>(std::ceil(height_m / config.resolution));
  log_odds_ = CowGrid<float>(w, h, 0.0f);
  tile_versions_ = CowGrid<uint64_t>((w + kTileSize - 1) / kTileSize,
                                     (h + kTileSize - 1) / kTileSize, 0);
  init_derived_state();
}

void OccupancyGrid::init_derived_state() {
  occupied_log_odds_ =
      std::log(config_.occupied_threshold / (1.0 - config_.occupied_threshold));
  free_log_odds_ = std::log(config_.free_threshold / (1.0 - config_.free_threshold));
  map_id_ = next_map_id();
  write_version_ = next_write_version();
}

double OccupancyGrid::log_odds_at(CellIndex c) const {
  return log_odds_.in_bounds(c) ? static_cast<double>(log_odds_.at(c)) : 0.0;
}

double OccupancyGrid::probability_at(CellIndex c) const {
  return probability_of(log_odds_at(c));
}

bool OccupancyGrid::is_occupied(CellIndex c) const {
  return log_odds_.in_bounds(c) && occupied_log_odds(log_odds_.at(c));
}

bool OccupancyGrid::is_free(CellIndex c) const {
  return log_odds_.in_bounds(c) && static_cast<double>(log_odds_.at(c)) < free_log_odds_ &&
         log_odds_.at(c) != 0.0f;
}

bool OccupancyGrid::is_unknown(CellIndex c) const {
  return !log_odds_.in_bounds(c) || log_odds_.at(c) == 0.0f;
}

std::vector<CellIndex>& OccupancyGrid::mutable_changelog() {
  if (changelog_ == nullptr) {
    changelog_ = std::make_shared<std::vector<CellIndex>>();
  } else if (changelog_.use_count() != 1) {
    changelog_ = std::make_shared<std::vector<CellIndex>>(*changelog_);
  }
  return *changelog_;
}

void OccupancyGrid::record_flip(CellIndex c) {
  if (changelog_ != nullptr && changelog_->size() >= kChangelogCap) {
    // Overflow: drop the log (releasing, not cloning, a shared block) and
    // let derived structures rebuild in full.
    changelog_ = nullptr;
    changelog_base_ = change_version_;
  }
  mutable_changelog().push_back(c);
  ++change_version_;
}

void OccupancyGrid::begin_mutation_batch() { write_version_ = next_write_version(); }

void OccupancyGrid::touch_tile(CellIndex c) {
  const int tx = c.x / kTileSize;
  const int ty = c.y / kTileSize;
  if (tile_versions_.at(tx, ty) != write_version_) {
    tile_versions_.mut_at(tx, ty) = write_version_;
  }
}

void OccupancyGrid::update_cell(CellIndex c, double delta) {
  if (!log_odds_.in_bounds(c)) return;
  const float old = log_odds_.at(c);
  const bool was_unknown = old == 0.0f;
  const bool was_occupied = occupied_log_odds(old);
  const float next = next_log_odds(old, delta, config_);
  // Saturated cells re-observed with the same evidence land on the same
  // clamped value; skipping the write keeps a CoW-shared block shared.
  if (same_bits(next, old)) return;
  log_odds_.mut_at(c) = next;
  touch_tile(c);
  if (was_unknown) ++known_cells_;
  if (was_unknown || was_occupied != occupied_log_odds(next)) record_flip(c);
}

size_t OccupancyGrid::integrate_scan(const Pose2D& pose, const msg::LaserScan& scan) {
  begin_mutation_batch();
  size_t touched = 0;
  const CellIndex origin_cell = frame_.world_to_cell(pose.position());
  for (size_t i = 0; i < scan.ranges.size(); ++i) {
    const double r = static_cast<double>(scan.ranges[i]);
    const bool hit = r <= scan.range_max;
    const double reach = hit ? r : scan.range_max;
    const double angle = pose.theta + scan.angle_of(i);
    const Point2D end{pose.x + std::cos(angle) * reach, pose.y + std::sin(angle) * reach};
    // Free space along the beam, and the endpoint when it is a hit.
    touched += walk_line(origin_cell, frame_.world_to_cell(end), [&](CellIndex c, bool last) {
      update_cell(c, last && hit ? config_.log_odds_hit : config_.log_odds_miss);
    });
  }
  return touched;
}

double OccupancyGrid::known_area_m2() const {
  return static_cast<double>(known_cells_) * frame_.resolution * frame_.resolution;
}

size_t OccupancyGrid::dirty_tiles_since(uint64_t base_version) const {
  size_t n = 0;
  for (uint64_t v : tile_versions_.data()) {
    if (v > base_version) ++n;
  }
  return n;
}

msg::OccupancyGridMsg OccupancyGrid::to_msg(double stamp) const {
  msg::OccupancyGridMsg m;
  m.header.stamp = stamp;
  m.header.frame_id = "map";
  m.frame = frame_;
  m.width = log_odds_.width();
  m.height = log_odds_.height();
  m.data.resize(static_cast<size_t>(m.width) * m.height, msg::kUnknownCell);
  // A known cell's byte is a pure function of its float's bits, and maps
  // hold few distinct values (a seeded known map two, a SLAM map a few
  // hundred), so each distinct value costs one exp and each run of
  // bit-identical cells one lookup. The unknown test comes first, as in
  // is_unknown, so -0.0f stays unknown.
  const float* cells = log_odds_.data().data();
  const size_t n = m.data.size();
  std::unordered_map<uint32_t, int8_t> bytes;
  for (size_t i = 0; i < n;) {
    const float v = cells[i];
    size_t end = i + 1;
    while (end < n && same_bits(cells[end], v)) ++end;
    if (v != 0.0f) {
      const auto [it, inserted] = bytes.try_emplace(std::bit_cast<uint32_t>(v), 0);
      if (inserted) it->second = static_cast<int8_t>(std::lround(probability_of(v) * 100.0));
      std::memset(m.data.data() + i, it->second, end - i);
    }
    i = end;
  }
  return m;
}

OccupancyGrid OccupancyGrid::from_msg(const msg::OccupancyGridMsg& m,
                                      OccupancyGridConfig config) {
  config.resolution = m.frame.resolution;
  OccupancyGrid g(m.frame.origin, m.width * m.frame.resolution,
                  m.height * m.frame.resolution, config);
  for (int y = 0; y < m.height && y < g.height(); ++y) {
    for (int x = 0; x < m.width && x < g.width(); ++x) {
      const int8_t v = m.at(x, y);
      if (v < 0) continue;
      const double p = std::clamp(static_cast<double>(v) / 100.0, 0.01, 0.99);
      const double l = std::log(p / (1.0 - p));
      g.update_cell({x, y}, l);
    }
  }
  return g;
}

void OccupancyGrid::serialize_header(WireWriter& w) const {
  w.put_varint(write_version_);
  w.put_varint(change_version_);
  w.put_double(frame_.origin.x);
  w.put_double(frame_.origin.y);
  w.put_double(frame_.resolution);
  w.put_signed(log_odds_.width());
  w.put_signed(log_odds_.height());
  w.put_double(config_.log_odds_hit);
  w.put_double(config_.log_odds_miss);
  w.put_double(config_.log_odds_min);
  w.put_double(config_.log_odds_max);
  w.put_double(config_.occupied_threshold);
  w.put_double(config_.free_threshold);
  w.put_varint(known_cells_);
}

void OccupancyGrid::deserialize_header(WireReader& r) {
  const uint64_t write_version = r.get_varint();
  const uint64_t change_version = r.get_varint();
  frame_.origin.x = r.get_double();
  frame_.origin.y = r.get_double();
  frame_.resolution = r.get_double();
  const int w = static_cast<int>(r.get_signed());
  const int h = static_cast<int>(r.get_signed());
  if (w < 0 || h < 0 ||
      static_cast<uint64_t>(w) * static_cast<uint64_t>(h) > kMaxWireCells) {
    throw std::out_of_range("grid: wire dimensions out of range");
  }
  config_.resolution = frame_.resolution;
  config_.log_odds_hit = r.get_double();
  config_.log_odds_miss = r.get_double();
  config_.log_odds_min = r.get_double();
  config_.log_odds_max = r.get_double();
  config_.occupied_threshold = r.get_double();
  config_.free_threshold = r.get_double();
  known_cells_ = r.get_varint();
  // init_derived_state mints a *fresh* map_id — a stale likelihood field must
  // never mistake the replica for the grid it was built against. The wire
  // write_version is preserved instead: it is globally unique, so a later
  // delta keyed on this state still decodes here.
  init_derived_state();
  write_version_ = write_version;
  bump_write_version_past(write_version);
  change_version_ = change_version;
  changelog_ = nullptr;
  changelog_base_ = change_version;
  delta_base_version_ = 0;
  log_odds_ = CowGrid<float>(w, h, 0.0f);
  // Every tile conservatively "last written at" the restored state's stamp.
  tile_versions_ = CowGrid<uint64_t>((w + kTileSize - 1) / kTileSize,
                                     (h + kTileSize - 1) / kTileSize, write_version);
}

void OccupancyGrid::serialize(WireWriter& w, GridEncoding encoding) const {
  assert(encoding == GridEncoding::kRaw || encoding == GridEncoding::kRle);
  w.put_varint(static_cast<uint64_t>(encoding));
  serialize_header(w);
  if (encoding == GridEncoding::kRaw) {
    w.put_repeated_float(log_odds_.data());
  } else {
    encode_rle(w, log_odds_.data());
  }
}

OccupancyGrid OccupancyGrid::deserialize(WireReader& r) {
  return deserialize_any(r, nullptr);
}

bool OccupancyGrid::can_delta_against(const OccupancyGrid& base) const {
  // The write_version match pins the exact state (stamps are never reused),
  // so no further identity check is needed; dims/frame are sanity belts.
  return delta_base_version_ != 0 && base.write_version_ == delta_base_version_ &&
         base.width() == width() && base.height() == height() && base.frame_ == frame_;
}

void OccupancyGrid::serialize_delta(WireWriter& w, const OccupancyGrid& base) const {
  assert(can_delta_against(base));
  w.put_varint(static_cast<uint64_t>(GridEncoding::kDelta));
  w.put_varint(base.write_version_);
  w.put_varint(write_version_);
  w.put_varint(change_version_);
  w.put_varint(known_cells_);

  // Collect runs of changed cells in ascending flat-index order. Only tiles
  // stamped after the base can contain a change, so the scan is proportional
  // to the written region, not the map.
  struct Run {
    size_t start;
    size_t len;
  };
  std::vector<Run> runs;
  std::vector<float> values;
  if (!log_odds_.shares_storage_with(base.log_odds_)) {
    const std::vector<float>& cur = log_odds_.data();
    const std::vector<float>& old = base.log_odds_.data();
    const int tiles_w = tile_versions_.width();
    const int tiles_h = tile_versions_.height();
    const int grid_w = width();
    const int grid_h = height();
    std::vector<int> dirty_in_row;
    for (int ty = 0; ty < tiles_h; ++ty) {
      dirty_in_row.clear();
      for (int tx = 0; tx < tiles_w; ++tx) {
        if (tile_versions_.at(tx, ty) > base.write_version_) dirty_in_row.push_back(tx);
      }
      if (dirty_in_row.empty()) continue;
      const int y_end = std::min(grid_h, (ty + 1) * kTileSize);
      for (int y = ty * kTileSize; y < y_end; ++y) {
        for (int tx : dirty_in_row) {
          const int x_end = std::min(grid_w, (tx + 1) * kTileSize);
          for (int x = tx * kTileSize; x < x_end; ++x) {
            const size_t idx = static_cast<size_t>(y) * grid_w + x;
            if (same_bits(cur[idx], old[idx])) continue;
            if (!runs.empty() && runs.back().start + runs.back().len == idx) {
              ++runs.back().len;
            } else {
              runs.push_back({idx, 1});
            }
            values.push_back(cur[idx]);
          }
        }
      }
    }
  }

  w.put_varint(runs.size());
  size_t prev_end = 0;
  size_t vi = 0;
  for (const Run& run : runs) {
    w.put_varint(run.start - prev_end);  // gap from the previous run's end
    w.put_varint(run.len);
    for (size_t k = 0; k < run.len; ++k) w.put_float(values[vi++]);
    prev_end = run.start + run.len;
  }
}

void OccupancyGrid::apply_delta_body(WireReader& r) {
  // Each run costs at least gap(1) + len(1) + one float(4) bytes on the wire.
  const size_t n_runs = r.get_count(6);
  const size_t total = log_odds_.size();
  size_t pos = 0;
  for (size_t i = 0; i < n_runs; ++i) {
    const uint64_t gap = r.get_varint();
    if (gap > total - pos) throw std::out_of_range("grid delta: run start out of range");
    pos += static_cast<size_t>(gap);
    const size_t len = r.get_count(4);
    if (len == 0 || len > total - pos) {
      throw std::out_of_range("grid delta: run length out of range");
    }
    std::vector<float>& cells = log_odds_.mutable_data();
    for (size_t k = 0; k < len; ++k) {
      cells[pos + k] = r.get_float();
      touch_tile({static_cast<int>((pos + k) % width()),
                  static_cast<int>((pos + k) / width())});
    }
    pos += len;
  }
}

OccupancyGrid OccupancyGrid::deserialize_any(WireReader& r, const BaseLookup& base_lookup) {
  const uint64_t enc = r.get_varint();
  switch (static_cast<GridEncoding>(enc)) {
    case GridEncoding::kRaw: {
      OccupancyGrid g;
      g.deserialize_header(r);
      std::vector<float> cells = r.get_repeated_float();
      if (cells.size() != g.log_odds_.size()) {
        throw std::out_of_range("grid: raw cell count mismatch");
      }
      g.log_odds_.mutable_data() = std::move(cells);
      return g;
    }
    case GridEncoding::kRle: {
      OccupancyGrid g;
      g.deserialize_header(r);
      decode_rle(r, g.log_odds_.mutable_data());
      return g;
    }
    case GridEncoding::kDelta: {
      const uint64_t base_version = r.get_varint();
      const uint64_t new_version = r.get_varint();
      const uint64_t change_version = r.get_varint();
      const uint64_t known_cells = r.get_varint();
      const OccupancyGrid* base = base_lookup ? base_lookup(base_version) : nullptr;
      if (base == nullptr || base->write_version_ != base_version) {
        throw std::runtime_error("grid delta: base state unknown to receiver");
      }
      OccupancyGrid g = *base;  // O(1): clones share the cell block (CoW)
      bump_write_version_past(new_version);
      g.write_version_ = new_version;
      g.change_version_ = change_version;
      g.known_cells_ = known_cells;
      g.changelog_ = nullptr;
      g.changelog_base_ = change_version;
      g.delta_base_version_ = 0;
      g.apply_delta_body(r);
      return g;
    }
    default:
      throw std::runtime_error("grid: unknown wire encoding");
  }
}

OccupancyGrid OccupancyGrid::from_binary(const GridFrame& frame, const Grid<uint8_t>& solid,
                                         OccupancyGridConfig config) {
  config.resolution = frame.resolution;
  OccupancyGrid g(frame.origin, solid.width() * frame.resolution,
                  solid.height() * frame.resolution, config);
  // One pass sets the state an update_cell call per source cell, in raster
  // order, left: every cell starts unknown, so each call was a first
  // observation, a classification flip and a tile touch. When the extent's
  // ceil rounds up, the grid is a column or row larger than the source, and
  // those cells stay unknown and unlogged.
  const int w = std::min(solid.width(), g.width());
  const int h = std::min(solid.height(), g.height());
  if (w == 0 || h == 0) return g;
  const float solid_value = next_log_odds(0.0f, config.log_odds_max, config);
  const float free_value = next_log_odds(0.0f, config.log_odds_min, config);
  std::vector<float>& cells = g.log_odds_.mutable_data();
  for (int y = 0; y < h; ++y) {
    const uint8_t* src = solid.data().data() + static_cast<size_t>(y) * solid.width();
    float* dst = cells.data() + static_cast<size_t>(y) * g.width();
    for (int x = 0; x < w; ++x) dst[x] = src[x] != 0 ? solid_value : free_value;
  }
  // from_binary opens no batch of its own: touched tiles carry the
  // constructor's stamp.
  for (int ty = 0; ty < (h + kTileSize - 1) / kTileSize; ++ty) {
    for (int tx = 0; tx < (w + kTileSize - 1) / kTileSize; ++tx) {
      g.tile_versions_.mut_at(tx, ty) = g.write_version_;
    }
  }
  // record_flip drops the log every kChangelogCap flips, so n flips leave
  // the last (n - 1) mod cap + 1 cells of the raster order.
  const uint64_t n = static_cast<uint64_t>(w) * static_cast<uint64_t>(h);
  g.known_cells_ = n;
  g.change_version_ = n;
  g.changelog_base_ = (n - 1) / kChangelogCap * kChangelogCap;
  std::vector<CellIndex>& log = g.mutable_changelog();
  log.reserve(n - g.changelog_base_);
  for (uint64_t i = g.changelog_base_; i < n; ++i) {
    log.push_back({static_cast<int>(i % w), static_cast<int>(i / w)});
  }
  return g;
}

}  // namespace lgv::perception
