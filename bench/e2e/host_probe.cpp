#include "host_probe.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numbers>

namespace lgv::e2e {
namespace {

constexpr int kGrid = 64;  // 4 KiB: stays in L1 whatever the simulator touched
constexpr int kReps = 7;

std::array<uint8_t, kGrid * kGrid> make_grid() {
  std::array<uint8_t, kGrid * kGrid> g{};
  uint64_t s = 1;
  for (uint8_t& cell : g) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    cell = (s >> 60) == 0 ? 1 : 0;  // 1 in 16 cells occupied
  }
  return g;
}

double one_probe() {
  static const std::array<uint8_t, kGrid * kGrid> grid = make_grid();
  const auto t0 = std::chrono::steady_clock::now();
  double hits = 0.0;
  for (int r = 0; r < 720; ++r) {
    const double a = r * (std::numbers::pi / 360.0);
    const double dx = std::cos(a), dy = std::sin(a);
    double x = kGrid / 2, y = kGrid / 2;
    for (int i = 0; i < 200; ++i) {
      x += dx;
      y += dy;
      const int ix = static_cast<int>(x) & (kGrid - 1);
      const int iy = static_cast<int>(y) & (kGrid - 1);
      if (grid[static_cast<size_t>(iy * kGrid + ix)] != 0) {
        hits += std::sqrt(x * x + y * y);
        break;
      }
    }
  }
  if (hits < 0.0) std::abort();  // keeps the loop observable
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

double host_probe_s() {
  std::array<double, kReps> t{};
  for (double& x : t) x = one_probe();
  std::nth_element(t.begin(), t.begin() + kReps / 2, t.end());
  return t[kReps / 2];
}

}  // namespace lgv::e2e
