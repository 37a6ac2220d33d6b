#include "testbed/experiment.h"

#include <stdexcept>

#include "core/unicast.h"

namespace thinair::testbed {

namespace {

template <typename Session>
ExperimentResult run_with(const ExperimentConfig& config) {
  if (!config.placement.valid())
    throw std::invalid_argument("run_experiment: invalid placement");

  const std::size_t n = config.placement.n_terminals();
  if (!config.terminal_positions.empty() &&
      config.terminal_positions.size() != n)
    throw std::invalid_argument(
        "run_experiment: terminal_positions must align with the placement");

  channel::TestbedChannel ch = build_channel(config.placement, config.channel);
  for (std::size_t i = 0; i < config.terminal_positions.size(); ++i)
    ch.place(terminal_node(i), config.terminal_positions[i]);
  if (config.eve_position.has_value())
    ch.place(eve_node(n), *config.eve_position);
  net::SimMedium medium(ch, channel::Rng(config.seed), config.mac);
  for (std::size_t i = 0; i < n; ++i)
    medium.attach(terminal_node(i), net::Role::kTerminal);
  medium.attach(eve_node(n), net::Role::kEavesdropper);

  core::SessionConfig session_config = config.session;
  if (session_config.estimator.occupied_cells.empty())
    for (channel::CellIndex c : config.placement.terminal_cells)
      session_config.estimator.occupied_cells.push_back(c.value);

  Session session(medium, session_config);
  return ExperimentResult{session.run(), n, config.placement};
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return run_with<core::GroupSecretSession>(config);
}

ExperimentResult run_unicast_experiment(const ExperimentConfig& config) {
  return run_with<core::UnicastSession>(config);
}

}  // namespace thinair::testbed
