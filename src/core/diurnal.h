// Diurnal-load evaluation: what the proportionality story costs over a
// real day.
//
// The paper's TCO model (§6) reduces a day to a single utilisation bound;
// datacenter load actually swings diurnally (Barroso's classic curves,
// [22][37]). This module drives the full simulated web testbeds through a
// 24-hour load profile and integrates energy, giving the daily-joules
// comparison between platforms — and quantifying how much the Dell
// cluster's flat power curve costs during the trough hours.
#ifndef WIMPY_CORE_DIURNAL_H_
#define WIMPY_CORE_DIURNAL_H_

#include <vector>

#include "common/units.h"
#include "obs/capture.h"
#include "web/service.h"

namespace wimpy::core {

// Smooth day shape: trough in the early morning, peak in the evening.
struct DiurnalPattern {
  double peak_rps = 7000;
  double trough_fraction = 0.25;  // trough load as a fraction of peak

  // Offered request rate at `hour` in [0, 24).
  double RateAt(double hour) const;
};

struct HourlyEnergy {
  double hour = 0;
  double offered_rps = 0;
  double achieved_rps = 0;
  Watts power = 0;
};

struct DailyReport {
  std::vector<HourlyEnergy> hours;
  Joules daily_joules = 0;
  double daily_requests = 0;
  double requests_per_joule = 0;
  // Per-sampled-hour observability capture (hour order; empty logs for
  // sinks not wanted). Every hour runs on a fresh testbed whose
  // simulated clock restarts at zero, so each hour keeps its own log —
  // exporters emit them as separate trace pids / metric series rather
  // than concatenating timelines.
  std::vector<obs::Captured> hour_obs;
};

// Samples the day at `samples` evenly spaced hours, runs each as a short
// closed-loop measurement on a fresh testbed, and scales to 24 h. The
// sinks in `config` are ignored; each hour captures the trace and
// metrics `wants` asks for.
DailyReport MeasureDailyEnergy(const web::WebTestbedConfig& config,
                               const DiurnalPattern& pattern,
                               int samples = 8,
                               const obs::TraceMetricsWants& wants = {});

}  // namespace wimpy::core

#endif  // WIMPY_CORE_DIURNAL_H_
