// Determinism suite for the parallel batch engine (the first concurrent
// pipeline in the repo). The contract under test: `parallel_workers` is a
// pure throughput knob — serial and parallel runs must produce BIT-identical
// Fix vectors, for every seed, worker count, and update cadence. Doubles are
// compared by bit pattern, not tolerance: any scheduling-dependent
// reordering of floating-point work is a failure here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "sim/simulator.h"
#include "support/thread_pool.h"

namespace vire::engine {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void expect_bit_identical(const std::vector<Fix>& a, const std::vector<Fix>& b,
                          const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(context + " fix " + std::to_string(i));
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(bits(a[i].time), bits(b[i].time));
    EXPECT_EQ(a[i].valid, b[i].valid);
    EXPECT_EQ(bits(a[i].position.x), bits(b[i].position.x));
    EXPECT_EQ(bits(a[i].position.y), bits(b[i].position.y));
    EXPECT_EQ(bits(a[i].smoothed_position.x), bits(b[i].smoothed_position.x));
    EXPECT_EQ(bits(a[i].smoothed_position.y), bits(b[i].smoothed_position.y));
    EXPECT_EQ(a[i].survivor_count, b[i].survivor_count);
  }
}

struct Session {
  std::vector<std::vector<Fix>> rounds;
  /// VIRE locates that fell back to the union of the reader maps (their
  /// flight record's survivors_per_step ends in 0): the path that keeps
  /// most of the grid alive and works the per-thread locate scratch hardest.
  std::size_t union_fallbacks = 0;
};

/// Runs a full engine session (simulated testbed, 12 static tags + one ghost
/// that never beacons, several update rounds spanning grid refreshes) and
/// returns the per-round Fix vectors. Four tags sit just outside the
/// reference lattice, where the readers disagree most and elimination often
/// falls back to the union of the reader maps.
Session run_session(std::uint64_t seed, int workers, int rounds) {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = seed;
  sim::RfidSimulator simulator(environment, deployment, sim_config);
  const auto reference_ids = simulator.add_reference_tags();

  const geom::Vec2 positions[] = {{0.4, 0.4}, {1.4, 1.8}, {1.5, 1.5}, {2.2, 2.2},
                                  {2.8, 0.6}, {0.2, 2.9}, {3.0, 3.0}, {1.0, 0.5},
                                  {-0.6, 1.7}, {3.6, -0.4}, {1.9, 3.7}, {-0.3, -0.5}};
  std::vector<sim::TagId> tags;
  for (const auto& p : positions) tags.push_back(simulator.add_tag(p));
  simulator.run_for(35.0);

  EngineConfig config;
  config.parallel_workers = workers;
  config.min_refresh_interval_s = 10.0;  // refresh mid-session too
  LocalizationEngine engine(deployment, config);
  engine.set_reference_ids(reference_ids);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    engine.track(tags[i], "tag-" + std::to_string(i));
  }
  engine.track(999999, "ghost");  // never detected: invalid fixes too

  Session session;
  for (int r = 0; r < rounds; ++r) {
    simulator.run_for(5.0);
    session.rounds.push_back(engine.update(simulator.middleware(), simulator.now()));
    for (const obs::FixRecord& rec : engine.flight_recorder().snapshot()) {
      const auto& steps = rec.refinement.survivors_per_step;
      if (rec.time == simulator.now() && rec.decision == "vire" && !steps.empty() &&
          steps.back() == 0) {
        ++session.union_fallbacks;
      }
    }
  }
  return session;
}

/// Compares the two sessions fix for fix and returns how many union-fallback
/// locates the second one ran.
std::size_t expect_sessions_identical(std::uint64_t seed, int workers_a, int workers_b,
                                      int rounds) {
  const Session a = run_session(seed, workers_a, rounds);
  const Session b = run_session(seed, workers_b, rounds);
  EXPECT_EQ(a.union_fallbacks, b.union_fallbacks);
  EXPECT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size() && r < b.rounds.size(); ++r) {
    expect_bit_identical(a.rounds[r], b.rounds[r],
                         "seed=" + std::to_string(seed) + " workers=" +
                             std::to_string(workers_a) + "vs" +
                             std::to_string(workers_b) + " round " +
                             std::to_string(r));
  }
  return b.union_fallbacks;
}

TEST(Determinism, SerialMatchesTwoWorkers) { expect_sessions_identical(7, 1, 2, 4); }

TEST(Determinism, SerialMatchesFourWorkers) {
  // The comparison must cover the union fallback, the locate path with the
  // largest per-thread scratch footprint, or a scratch buffer shared across
  // pool threads could go unnoticed here and under TSan.
  EXPECT_GT(expect_sessions_identical(7, 1, 4, 4), 0u)
      << "no union-fallback locate in the 4-worker session";
}

TEST(Determinism, SerialMatchesEightWorkers) { expect_sessions_identical(7, 1, 8, 4); }

TEST(Determinism, SerialMatchesHardwareConcurrency) {
  expect_sessions_identical(7, 1, 0, 3);
}

TEST(Determinism, HoldsAcrossSeeds) {
  for (const std::uint64_t seed : {21ULL, 1234ULL, 0xC0FFEEULL}) {
    expect_sessions_identical(seed, 1, 4, 3);
  }
}

TEST(Determinism, RepeatedParallelRunsIdentical) {
  const Session a = run_session(42, 4, 3);
  const Session b = run_session(42, 4, 3);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    expect_bit_identical(a.rounds[r], b.rounds[r], "repeat round " + std::to_string(r));
  }
}

TEST(Determinism, ParallelGridInterpolationBitIdentical) {
  // The per-reader fan-out in VirtualGrid must reproduce the serial build
  // exactly, value for value, including NaN patterns.
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = 11;
  sim::RfidSimulator simulator(environment, deployment, sim_config);
  const auto reference_ids = simulator.add_reference_tags();
  simulator.run_for(30.0);

  std::vector<sim::RssiVector> refs;
  for (const auto id : reference_ids) {
    refs.push_back(simulator.middleware().rssi_vector(id));
  }

  core::VirtualGridConfig config;
  config.subdivision = 10;
  config.boundary_extension_cells = 5;
  const core::VirtualGrid serial(deployment.reference_grid(), refs, config);
  support::ThreadPool pool(4);
  const core::VirtualGrid parallel(deployment.reference_grid(), refs, config, &pool);

  ASSERT_EQ(serial.node_count(), parallel.node_count());
  ASSERT_EQ(serial.reader_count(), parallel.reader_count());
  for (int k = 0; k < serial.reader_count(); ++k) {
    const auto& sv = serial.reader_values(k);
    const auto& pv = parallel.reader_values(k);
    ASSERT_EQ(sv.size(), pv.size());
    for (std::size_t i = 0; i < sv.size(); ++i) {
      ASSERT_EQ(bits(sv[i]), bits(pv[i]))
          << "reader " << k << " node " << i;
    }
  }
}

TEST(Determinism, WorkerCountIsReportedAndValidated) {
  const env::Deployment deployment = env::Deployment::paper_testbed();
  EngineConfig serial_config;
  serial_config.parallel_workers = 1;
  EXPECT_EQ(LocalizationEngine(deployment, serial_config).worker_count(), 1u);

  EngineConfig quad_config;
  quad_config.parallel_workers = 4;
  EXPECT_EQ(LocalizationEngine(deployment, quad_config).worker_count(), 4u);

  EngineConfig bad_config;
  bad_config.parallel_workers = -2;
  EXPECT_THROW(LocalizationEngine(deployment, bad_config), std::invalid_argument);
}

}  // namespace
}  // namespace vire::engine
