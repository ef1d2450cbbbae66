// Energy-proportionality analysis (paper §1/§2 background).
//
// Barroso & Hölzle's critique — which motivates the whole micro-server
// agenda — is that conventional servers idle at ~50% of peak power, so
// power does not track load. This module measures a profile's power-vs-
// load curve on the simulated hardware and reduces it to standard metrics:
//
//   * dynamic range   = (Pbusy - Pidle) / Pbusy  (paper: "narrow power
//     spectrum between idling and full utilization");
//   * proportionality gap = mean over load L of (P(L)/Pbusy - L), the
//     area between the measured curve and the ideal diagonal;
//   * energy-proportionality coefficient EP = 1 - gap/0.5 (1 = ideal,
//     0 = constant power).
#ifndef WIMPY_CORE_PROPORTIONALITY_H_
#define WIMPY_CORE_PROPORTIONALITY_H_

#include <vector>

#include "common/units.h"
#include "hw/profile.h"
#include "obs/capture.h"

namespace wimpy::core {

struct PowerCurvePoint {
  double load = 0;      // offered CPU utilisation in [0, 1]
  Watts power = 0;      // measured mean node power at that load
  double normalized = 0;  // power / busy power
};

struct ProportionalityReport {
  std::vector<PowerCurvePoint> curve;
  double dynamic_range = 0;
  double proportionality_gap = 0;
  double ep_coefficient = 0;  // 1 ideal, 0 constant-power
  Watts idle_power = 0;
  Watts busy_power = 0;
  // Per-load-point observability capture (curve order; empty logs for
  // sinks not wanted). Each load point runs on a fresh scheduler whose
  // clock restarts at zero, so each keeps its own log.
  std::vector<obs::Captured> point_obs;
};

// Measures the node's power at each load level by running duty-cycled CPU
// work on the simulated hardware and integrating joules. With
// `wants.trace` / `wants.metrics`, each load point records a "load_point"
// span plus per-second `node.*` probe samples into its capture.
ProportionalityReport MeasureProportionality(
    const hw::HardwareProfile& profile,
    const std::vector<double>& loads = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                        0.6, 0.7, 0.8, 0.9, 1.0},
    const obs::TraceMetricsWants& wants = {});

}  // namespace wimpy::core

#endif  // WIMPY_CORE_PROPORTIONALITY_H_
