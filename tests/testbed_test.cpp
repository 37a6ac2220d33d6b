// Testbed scenario: layout, placement enumeration, experiments, and
// placement sweeps run through the scenario runtime.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/scenario_spec.h"
#include "testbed/experiment.h"
#include "testbed/placements.h"

namespace thinair::testbed {
namespace {

using GroupSummary = runtime::ResultSink::GroupSummary;

// A geometry-estimator placement sweep over n in [n_min, n_max], capped
// at `cap` placements per n.
runtime::ScenarioSpec sweep_spec(std::size_t n_min, std::size_t n_max,
                                 std::size_t cap, std::size_t x_packets) {
  runtime::ScenarioSpec spec;
  spec.name = "testbed-sweep";
  spec.topology.n_values.clear();
  for (std::size_t n = n_min; n <= n_max; ++n)
    spec.topology.n_values.push_back(n);
  spec.topology.max_placements = cap;
  spec.session.x_packets = x_packets;
  return spec;
}

// Runs a spec the way `thinair run --spec` does and returns its per-n
// summaries ("n=3", "n=4", ... in ascending n).
std::vector<GroupSummary> run_placement_sweep(
    const runtime::ScenarioSpec& spec, std::uint64_t seed) {
  const runtime::Scenario scenario = runtime::compile(spec);
  runtime::ResultSink sink(scenario.name, nullptr);
  runtime::RunOptions options;
  options.master_seed = seed;
  (void)run_scenario(scenario, options, sink);
  return sink.summaries();
}

TEST(Layout, PlacementValidity) {
  Placement p;
  p.terminal_cells = {channel::CellIndex{0}, channel::CellIndex{1}};
  p.eve_cell = channel::CellIndex{2};
  EXPECT_TRUE(p.valid());

  p.eve_cell = channel::CellIndex{1};  // collides with a terminal
  EXPECT_FALSE(p.valid());

  p.eve_cell = channel::CellIndex{12};  // off the grid
  EXPECT_FALSE(p.valid());

  p.eve_cell = channel::CellIndex{2};
  p.terminal_cells.push_back(channel::CellIndex{0});  // duplicate terminal
  EXPECT_FALSE(p.valid());
}

TEST(Layout, BuildChannelPlacesEveryNode) {
  Placement p;
  p.terminal_cells = {channel::CellIndex{0}, channel::CellIndex{4}};
  p.eve_cell = channel::CellIndex{8};
  const channel::TestbedChannel ch = build_channel(p);
  EXPECT_EQ(ch.cell_of(terminal_node(0)).value, 0u);
  EXPECT_EQ(ch.cell_of(terminal_node(1)).value, 4u);
  EXPECT_EQ(ch.cell_of(eve_node(2)).value, 8u);
}

TEST(Placements, CountsMatchBinomials) {
  EXPECT_EQ(placement_count(3), 9u * 56u);
  EXPECT_EQ(placement_count(8), 9u * 1u);
  EXPECT_THROW((void)placement_count(0), std::invalid_argument);
  EXPECT_THROW((void)placement_count(9), std::invalid_argument);
}

TEST(Placements, EnumerationIsCompleteAndValid) {
  for (std::size_t n : {3u, 8u}) {
    const auto all = enumerate_placements(n);
    EXPECT_EQ(all.size(), placement_count(n));
    for (const Placement& p : all) {
      EXPECT_TRUE(p.valid());
      EXPECT_EQ(p.n_terminals(), n);
    }
  }
}

TEST(Placements, EnumerationHasNoDuplicates) {
  const auto all = enumerate_placements(4);
  std::set<std::string> seen;
  for (const Placement& p : all) {
    std::string key = std::to_string(p.eve_cell.value) + ":";
    for (auto c : p.terminal_cells) key += std::to_string(c.value) + ",";
    EXPECT_TRUE(seen.insert(key).second) << key;
  }
}

TEST(Placements, SamplingCapsAndCoversEveCells) {
  const auto sample = sample_placements(3, 18);
  EXPECT_EQ(sample.size(), 18u);
  std::set<std::size_t> eve_cells;
  for (const Placement& p : sample) eve_cells.insert(p.eve_cell.value);
  EXPECT_GE(eve_cells.size(), 5u);  // spread across the grid
  // max_count 0 or large returns everything.
  EXPECT_EQ(sample_placements(8, 0).size(), 9u);
  EXPECT_EQ(sample_placements(8, 100).size(), 9u);
}

TEST(Experiment, DeterministicGivenSeed) {
  ExperimentConfig cfg;
  cfg.placement = enumerate_placements(3)[10];
  cfg.session.x_packets_per_round = 45;
  cfg.seed = 5;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.session.secret, b.session.secret);
  EXPECT_DOUBLE_EQ(a.reliability(), b.reliability());
}

TEST(Experiment, InvalidPlacementThrows) {
  ExperimentConfig cfg;
  cfg.placement.terminal_cells = {channel::CellIndex{0},
                                  channel::CellIndex{0}};
  cfg.placement.eve_cell = channel::CellIndex{1};
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

TEST(Experiment, FillsOccupiedCellsForGeometry) {
  ExperimentConfig cfg;
  cfg.placement = enumerate_placements(4)[0];
  cfg.session.x_packets_per_round = 45;
  cfg.seed = 6;
  // Defaults to the geometry estimator, which requires occupied cells —
  // run_experiment must fill them from the placement.
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_EQ(r.n_terminals, 4u);
  EXPECT_EQ(r.session.rounds.size(), 4u);  // full rotation
}

TEST(Experiment, UnicastVariantRuns) {
  ExperimentConfig cfg;
  cfg.placement = enumerate_placements(4)[3];
  cfg.session.x_packets_per_round = 45;
  cfg.seed = 7;
  const ExperimentResult r = run_unicast_experiment(cfg);
  EXPECT_EQ(r.n_terminals, 4u);
  EXPECT_GE(r.reliability(), 0.0);
  EXPECT_LE(r.reliability(), 1.0);
}

TEST(Sweep, ProducesOneRowPerGroupSize) {
  const std::vector<GroupSummary> rows =
      run_placement_sweep(sweep_spec(3, 5, 4, 45), 1);
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const util::Summary& rel = rows[i].metrics.at("reliability");
    EXPECT_EQ(rows[i].group, "n=" + std::to_string(3 + i));
    EXPECT_EQ(rows[i].cases, 4u);
    EXPECT_EQ(rel.count(), 4u);
    EXPECT_GE(rel.min(), 0.0);
    EXPECT_LE(rel.exceeded_by(0.50), 1.0);
    EXPECT_GE(rel.exceeded_by(0.95), rel.min() - 1e-12);
  }
}

TEST(Sweep, ValidatesRange) {
  // Testbed placements exist for n in [2, 8] only.
  EXPECT_THROW((void)runtime::compile(sweep_spec(1, 1, 4, 45)),
               std::invalid_argument);
  EXPECT_THROW((void)runtime::compile(sweep_spec(9, 9, 4, 45)),
               std::invalid_argument);
}

TEST(Sweep, GeometryEstimatorIsSafeAcrossPlacements) {
  // The library's soundness claim, measured: the geometry bound keeps
  // median reliability at 1.0.
  const std::vector<GroupSummary> rows =
      run_placement_sweep(sweep_spec(4, 4, 10, 90), 99);
  ASSERT_EQ(rows.size(), 1u);
  const util::Summary& rel = rows[0].metrics.at("reliability");
  EXPECT_DOUBLE_EQ(rel.exceeded_by(0.50), 1.0);
  EXPECT_GE(rel.min(), 0.8);
}

TEST(Sweep, InterferenceOffKillsTheSecretRate) {
  const runtime::ScenarioSpec on = sweep_spec(4, 4, 4, 45);
  runtime::ScenarioSpec off = on;
  off.channel.testbed.interference_enabled = false;
  const double rate_on =
      run_placement_sweep(on, 1).at(0).metrics.at("secret_rate_bps").mean();
  const double rate_off =
      run_placement_sweep(off, 1).at(0).metrics.at("secret_rate_bps").mean();
  EXPECT_GT(rate_on, 10.0 * (rate_off + 1.0));
}

}  // namespace
}  // namespace thinair::testbed
