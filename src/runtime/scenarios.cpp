#include "runtime/scenarios.h"

#include "core/estimator.h"
#include "runtime/scenario_spec.h"

namespace thinair::runtime {

ScenarioSpec fig1_spec() {
  // Figure 1: data-plane efficiency of the group and unicast algorithms vs
  // the erasure probability, Monte-Carlo on the i.i.d. broadcast channel
  // with the oracle estimator, next to the paper's closed forms.
  ScenarioSpec spec;
  spec.name = kFig1Scenario;
  spec.description =
      "Figure 1: group vs unicast efficiency over erasure probability "
      "(analytic + Monte-Carlo, oracle estimator, i.i.d. channel)";
  spec.channel.model = channel::ChannelModelKind::kIid;
  spec.channel.iid_p = 0.1;
  spec.sweep.p_values = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  spec.topology.n_values = {2, 3, 6, 10};
  spec.session.x_packets = 200;
  spec.session.payload_bytes = 100;
  spec.session.rounds = 6;
  spec.estimator.series = {{core::EstimatorKind::kOracle}};
  spec.output.baseline = Baseline::kBoth;
  spec.output.metrics = MetricSet::kEfficiency;
  spec.output.analytic = true;
  return spec;
}

ScenarioSpec fig2_spec() {
  // The three Figure-2 estimator series with the same per-series placement
  // caps the bench uses. The estimator axis is dependent (placement cap
  // varies per series), which the spec's per-series caps express directly.
  ScenarioSpec spec;
  spec.name = kFig2Scenario;
  spec.description =
      "Figure 2: reliability vs group size on the 3x3-cell testbed "
      "(geometry / leave-one-out / slot-fraction estimators)";
  spec.channel.model = channel::ChannelModelKind::kTestbed;
  spec.topology.n_values = {3, 4, 5, 6, 7, 8};
  spec.estimator.series = {{core::EstimatorKind::kGeometry, 60},
                           {core::EstimatorKind::kLeaveOneOut, 24},
                           {core::EstimatorKind::kSlotFraction, 24}};
  return spec;
}

ScenarioSpec headline_spec() {
  ScenarioSpec spec;
  spec.name = kHeadlineScenario;
  spec.description =
      "Sec. 4 headline sweep: every possible positioning of n terminals "
      "and Eve, n = 3..8, geometry estimator";
  spec.channel.model = channel::ChannelModelKind::kTestbed;
  spec.topology.n_values = {3, 4, 5, 6, 7, 8};
  spec.estimator.series = {{core::EstimatorKind::kGeometry}};
  return spec;
}

void register_builtin_scenarios() {
  ScenarioRegistry& registry = ScenarioRegistry::instance();
  if (registry.find(kFig1Scenario) != nullptr) return;  // already done
  register_spec(fig1_spec());
  register_spec(fig2_spec());
  register_spec(headline_spec());
}

}  // namespace thinair::runtime
