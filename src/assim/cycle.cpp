#include "assim/cycle.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "assim/localize.h"

namespace mps::assim {

AssimilationCycle::AssimilationCycle(ModelFn model, TimeMs start,
                                     CycleConfig config)
    : model_(std::move(model)),
      config_(config),
      now_(start),
      analysis_(model_(start)),
      model_at_now_(analysis_),
      spread_(analysis_.nx(), analysis_.ny(), analysis_.width_m(),
              analysis_.height_m(), config.blue.sigma_b) {
  if (config_.step <= 0)
    throw std::invalid_argument("AssimilationCycle: step must be positive");
  if (config_.persistence_weight < 0.0 || config_.persistence_weight > 1.0)
    throw std::invalid_argument(
        "AssimilationCycle: persistence_weight must be in [0,1]");
}

void AssimilationCycle::set_metrics(obs::Registry* registry) {
  sources_.detach();
  cycle_ms_ = nullptr;
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  sources_.counter(r, "assim.steps", stats_.steps);
  sources_.counter(r, "assim.observations_used", stats_.observations_used);
  sources_.counter(r, "assim.stalled_steps", stats_.stalled_steps);
  sources_.gauge(r, "assim.innovation_rms",
                 [this] { return stats_.innovation_rms; });
  sources_.gauge(r, "assim.residual_rms",
                 [this] { return stats_.residual_rms; });
  // Wall-clock step cost, not virtual time: an analysis step takes
  // microseconds-to-milliseconds of real compute.
  cycle_ms_ = &r.histogram(
      "assim.cycle_ms",
      {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0});
}

CycleStep AssimilationCycle::advance(
    const std::vector<phone::Observation>& window,
    const Calibration& calibration) {
  auto wall_start = std::chrono::steady_clock::now();
  TimeMs next = now_ + config_.step;

  // Injected engine stall: virtual time still advances and the previous
  // increment persists, but this window is never assimilated (the spans
  // simply never reach kAssimilated — persistence upstream is unaffected).
  if (stall_fault_.should_fail(next)) {
    Grid model_next = model_(next);
    Grid stalled_background = model_next;
    double w = config_.persistence_weight;
    for (std::size_t i = 0; i < stalled_background.size(); ++i)
      stalled_background[i] += w * (analysis_[i] - model_at_now_[i]);
    analysis_ = std::move(stalled_background);
    model_at_now_ = std::move(model_next);
    now_ = next;
    ++stats_.steps;
    ++stats_.stalled_steps;
    CycleStep step;
    step.at = now_;
    step.stalled = true;
    return step;
  }

  Grid model_next = model_(next);

  // background = model(next) + w * (analysis(now) - model(now)).
  Grid background = model_next;
  double w = config_.persistence_weight;
  for (std::size_t i = 0; i < background.size(); ++i)
    background[i] += w * (analysis_[i] - model_at_now_[i]);

  // Convert once, then run the analysis — and, when configured, the
  // spread — off one factorization of the window's observation set: the
  // per-tile factors in the localized engine's single pass, the global
  // ObsFactorization on the dense path. Either way the n_obs × n_obs
  // system is assembled and factored exactly once per step.
  std::vector<AssimObservation> converted =
      convert_observations(window, config_.policy, calibration,
                           /*stats=*/nullptr);
  BlueResult result = [&]() -> BlueResult {
    if (config_.blue.localization.enabled) {
      LocalizedAnalysis localized =
          localized_analyze(background, converted, config_.blue,
                            config_.compute_spread, config_.executor);
      if (config_.compute_spread) spread_ = std::move(*localized.spread);
      return std::move(localized.result);
    }
    if (converted.empty()) {
      if (config_.compute_spread)
        spread_ = Grid(background.nx(), background.ny(), background.width_m(),
                       background.height_m(), config_.blue.sigma_b);
      return BlueResult{background, 0.0, 0.0, 0};
    }
    ObsFactorization factorization(converted, config_.blue, config_.executor);
    if (config_.compute_spread)
      spread_ = analysis_spread(background, converted, factorization,
                                config_.blue, config_.executor);
    return blue_analysis(background, converted, factorization, config_.blue,
                         config_.executor);
  }();

  analysis_ = std::move(result.analysis);
  model_at_now_ = std::move(model_next);
  now_ = next;
  ++stats_.steps;
  stats_.observations_used += result.observations_used;
  stats_.innovation_rms = result.innovation_rms;
  stats_.residual_rms = result.residual_rms;

  CycleStep step;
  step.at = now_;
  step.innovation_rms = result.innovation_rms;
  step.residual_rms = result.residual_rms;
  step.observations_used = result.observations_used;

  if (tracer_ != nullptr) {
    for (const phone::Observation& obs : window)
      if (obs.span_id != 0)
        tracer_->stamp(obs.span_id, obs::Hop::kAssimilated, next);
  }
  if (cycle_ms_ != nullptr)
    cycle_ms_->observe(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count());
  return step;
}

}  // namespace mps::assim
