#include "core/diurnal.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace wimpy::core {

double DiurnalPattern::RateAt(double hour) const {
  // Cosine day: trough at 04:00, peak at 16:00.
  const double phase =
      std::cos((hour - 16.0) / 24.0 * 2.0 * std::numbers::pi);
  const double low = peak_rps * trough_fraction;
  return low + (peak_rps - low) * 0.5 * (1.0 + phase);
}

DailyReport MeasureDailyEnergy(const web::WebTestbedConfig& config,
                               const DiurnalPattern& pattern,
                               int samples,
                               const obs::TraceMetricsWants& wants) {
  DailyReport report;
  samples = std::max(1, samples);
  const double hours_per_sample = 24.0 / samples;

  for (int i = 0; i < samples; ++i) {
    const double hour = (i + 0.5) * hours_per_sample;
    const double rate = pattern.RateAt(hour);

    // Per-hour sinks: each hour's testbed registers fresh probes.
    obs::Capture capture(wants);
    web::WebTestbedConfig hour_config = config;
    capture.AttachTo(hour_config);

    web::WebExperiment experiment(hour_config);
    // Closed-loop at the hour's offered load; short window, scaled up.
    const double concurrency = std::max(1.0, rate / 10.0);
    const web::LevelReport level = experiment.MeasureClosedLoop(
        web::LightMix(), concurrency, 10, Seconds(2), Seconds(8));
    report.hour_obs.push_back(capture.Take());

    HourlyEnergy entry;
    entry.hour = hour;
    entry.offered_rps = rate;
    entry.achieved_rps = level.achieved_rps;
    entry.power = level.middle_tier_power;
    report.hours.push_back(entry);

    report.daily_joules += level.middle_tier_power * hours_per_sample *
                           3600.0;
    report.daily_requests +=
        level.achieved_rps * hours_per_sample * 3600.0;
  }
  report.requests_per_joule =
      report.daily_joules > 0 ? report.daily_requests / report.daily_joules
                              : 0;
  return report;
}

}  // namespace wimpy::core
