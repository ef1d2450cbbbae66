// The caller side of an obs::Sinks bundle (docs/observability.md): one
// owning capture per replication.
//
// A `Capture` creates the sinks a caller asks for, hands their view to an
// experiment config (`AttachTo`), and after the run moves everything they
// recorded out as one plain-data `Captured` value — what a sweep
// replication returns. Sweeps merge the values in [config][replication]
// index order, so exports are byte-identical at any --threads.
//
// Lifetime: the capture must outlive the experiment run it observes;
// testbeds sever their probes from it as they are torn down (RunSinks),
// so `Take` after the run reads no dead component.
#ifndef WIMPY_OBS_CAPTURE_H_
#define WIMPY_OBS_CAPTURE_H_

#include "obs/energy.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace wimpy::obs {

// The sinks a run without the online plane can feed: a MapReduce
// cluster (MrClusterConfig) or a bare node takes only a tracer and a
// metrics registry.
struct TraceMetricsWants {
  bool trace = false;
  bool metrics = false;
};

// Which sinks a capture creates; the rest stay null (off).
struct CaptureWants : TraceMetricsWants {
  bool telemetry = false;
  bool energy = false;
};

// Everything one run recorded; empty members for sinks that were off.
struct Captured {
  TraceLog trace;
  MetricsSeries metrics;
  TelemetrySeries telemetry;
  AlertLog alerts;
  EnergyLedger ledger;
};

class Capture {
 public:
  explicit Capture(const TraceMetricsWants& wants);
  explicit Capture(const CaptureWants& wants);

  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  const Sinks& sinks() const { return sinks_; }

  // Points `target`'s four sinks at this capture's; its sampling rate is
  // kept.
  void AttachTo(Sinks& target) const;

  // Moves the recorded logs out.
  Captured Take();

 private:
  Tracer tracer_;
  MetricsRegistry metrics_;
  Telemetry telemetry_;
  EnergyAttributor energy_;
  Sinks sinks_;
};

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_CAPTURE_H_
