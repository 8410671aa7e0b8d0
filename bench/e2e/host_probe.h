// Host-speed probe. The machines this benchmark runs on are shared, and
// their speed drifts: on a shared 4-core x86-64 VM the same missions
// ran anywhere from 56 to 110 virtual s per wall second within half an hour,
// and the simulator's CPU time per virtual second moved with them, so the
// drift is the host getting slower, not the benchmark waiting. A fixed probe
// timed next to the work slows down with the host, which lets the host-clock
// metrics be stated for a reference host: a run's durations are scaled by
// kReferenceProbeS / (the probe's median time during the run). Over 300 samples of
// four missions each, this probe's speed correlated 0.64 with mission speed;
// a 512x512 variant cut the spread of ten-sample medians from 14% to 6% in a
// drifting half hour.
//
// The probe is the benchmark's own code — a ray march over a 64x64 grid that
// stays in L1, whatever the simulator left in the caches — so no change to
// the program under test can move it.
#pragma once

namespace lgv::e2e {

/// The probe's median time on that VM when it was quiet.
/// It only fixes the unit: two commits measured on one host share it.
inline constexpr double kReferenceProbeS = 30e-6;

/// Median wall time of a few probe runs (seconds).
double host_probe_s();

}  // namespace lgv::e2e
