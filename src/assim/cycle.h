// Sequential (cycled) data assimilation.
//
// The paper's engine runs continuously: the city model provides a new
// background every analysis step, and crowd observations correct it (§4.2;
// §8 calls for "adapted data assimilation algorithms that merge
// traditional simulations ... with fixed and mobile observations").
// A single BLUE step forgets everything the previous observations taught;
// the cycle instead propagates the previous analysis *increment* with the
// model tendency:
//
//   background(t+1) = model(t+1)
//                   + w * [ analysis(t) - model(t) ]   (persisted increment)
//
// and then assimilates the window's observations. w in [0,1] is the
// increment-persistence weight: 0 reduces to independent analyses, values
// near 1 assume model errors change slowly (true here: missing/bias-
// perturbed sources are static).
#pragma once

#include <functional>
#include <vector>

#include "assim/assimilator.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace mps::assim {

/// Cycle configuration.
struct CycleConfig {
  DurationMs step = hours(1);
  /// Persistence of the previous analysis increment into the next
  /// background.
  double persistence_weight = 0.8;
  BlueParams blue;
  ObservationPolicy policy;
  /// Also maintain the posterior spread (analysis-error std dev per cell,
  /// see spread()). The spread shares each step's observation-covariance
  /// factorization with the analysis — one assembly + Cholesky per step
  /// serves both (per tile when blue.localization is enabled), never the
  /// assemble-twice/factor-twice double solve of calling blue_analysis
  /// and analysis_spread back to back.
  bool compute_spread = false;
  /// Optional parallel compute plane for each step's BLUE analysis;
  /// nullptr runs sequentially with a bit-identical field (DESIGN.md
  /// §10). Must outlive the cycle.
  exec::Executor* executor = nullptr;
};

/// Diagnostics of one cycle step.
struct CycleStep {
  TimeMs at = 0;                 ///< analysis time
  double innovation_rms = 0.0;
  double residual_rms = 0.0;
  std::size_t observations_used = 0;
  /// True when an injected kAssimStall fault skipped this step's
  /// assimilation (time still advanced; the increment persisted).
  bool stalled = false;
};

/// Cumulative cycle counters plus the last assimilated step's diagnostics.
struct CycleStats {
  std::uint64_t steps = 0;
  std::uint64_t observations_used = 0;
  std::uint64_t stalled_steps = 0;
  double innovation_rms = 0.0;  ///< of the last step that assimilated
  double residual_rms = 0.0;
};

/// The running assimilation cycle. The model field is supplied by a
/// callback so any simulator (CityNoiseModel or a test stub) can drive it.
class AssimilationCycle {
 public:
  using ModelFn = std::function<Grid(TimeMs)>;

  /// Starts the cycle at `start`: the initial analysis is the raw model.
  AssimilationCycle(ModelFn model, TimeMs start, CycleConfig config = {});

  /// Advances one step: builds the background for time()+step from the
  /// model plus the persisted increment, assimilates `window`
  /// (observations captured in (time(), time()+step]) and returns the
  /// step diagnostics.
  CycleStep advance(const std::vector<phone::Observation>& window,
                    const Calibration& calibration = identity_calibration());

  /// Current analysis field (valid at time()).
  const Grid& analysis() const { return analysis_; }

  /// Posterior spread of the current analysis, maintained when
  /// config.compute_spread is set (bit-identical to a standalone
  /// analysis_spread over the same window). Before the first advance() —
  /// or when compute_spread is off — every cell is blue.sigma_b.
  const Grid& spread() const { return spread_; }

  /// Time the current analysis is valid for.
  TimeMs time() const { return now_; }

  const CycleConfig& config() const { return config_; }

  /// Steps executed so far.
  std::size_t steps() const { return stats_.steps; }
  const CycleStats& stats() const { return stats_; }

  /// Registers the stats as "assim.*" registry metrics: steps /
  /// observations_used / stalled_steps counters and innovation_rms /
  /// residual_rms gauges; also records the assim.cycle_ms wall-clock
  /// histogram. Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

  /// Attaches a span tracker: observations of each advance() window that
  /// carry a span id are stamped kAssimilated at the analysis time.
  void set_tracer(obs::SpanTracker* tracer) { tracer_ = tracer; }

  /// Arms fault injection: a kAssimStall fault makes advance() skip the
  /// analysis for that step (engine hiccup) while virtual time still
  /// moves forward. Pass nullptr to disarm.
  void arm_faults(fault::FaultPlan* plan) {
    stall_fault_ = fault::FaultPoint(plan, fault::FaultSite::kAssimStall);
  }

 private:
  ModelFn model_;
  CycleConfig config_;
  TimeMs now_;
  Grid analysis_;
  Grid model_at_now_;
  Grid spread_;
  CycleStats stats_;
  obs::LatencyHistogram* cycle_ms_ = nullptr;
  obs::SpanTracker* tracer_ = nullptr;
  fault::FaultPoint stall_fault_;
  obs::Sources sources_;
};

}  // namespace mps::assim
