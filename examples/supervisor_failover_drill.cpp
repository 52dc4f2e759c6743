// Supervisor failover drill: kill the CONTROL PLANE, not the shards
// (docs/service.md, "Supervisor failover & elastic membership").
//
//   ./build/examples/supervisor_failover_drill [path/to/vire_shardd]
//
// The supervisor journals every control-plane op (ingest batches, sequence
// allocations, membership and breaker transitions) to <root>/journal/. This
// drill proves the two halves of that contract:
//
//   SIGTERM — clean shutdown drains every shard and checkpoints the control
//             journal, so the next incarnation replays ZERO batches;
//   SIGKILL — destructors never run, a batch is journaled and streamed but
//             never acked, the shard processes are orphaned to init; the
//             next incarnation rebuilds from the journal, ADOPTS both
//             still-running orphans (same pids, no respawn), replays the
//             un-acked suffix — and the merged poll stream stays fix-for-fix
//             BIT-IDENTICAL to an uninterrupted single-engine run.
//
// The merged scrape of the recovered fleet lands in
// bench_out/supervisor_failover_metrics.prom for the CI metric-presence
// check (journal + adoption + replay series).
//
// Exit code 0 iff both contracts hold and every poll is bit-identical.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "service/supervisor.h"
#include "service/wire.h"
#include "sim/simulator.h"

namespace {

using namespace vire;
namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 40.0;
constexpr double kPollS = 5.0;
constexpr int kPolls = 10;
constexpr int kCutPoll = 5;  // first incarnation answers polls 0..4

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct Capture {
  std::vector<std::vector<sim::RssiReading>> segments;
  std::vector<sim::SimTime> poll_times;
  std::vector<std::vector<engine::Fix>> golden;
  std::vector<sim::TagId> reference_ids;
  std::vector<std::pair<sim::TagId, std::string>> tracked;
};

/// One recorded scenario feeds the golden engine and every fleet
/// incarnation, so any divergence is the control plane's fault.
Capture capture_scenario() {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = kSeed;
  sim_config.middleware.window_s = 10.0;

  sim::RfidSimulator simulator(environment, deployment, sim_config);
  sim::ReadingRecorder recorder;
  simulator.set_interceptor(&recorder);

  Capture capture;
  capture.reference_ids = simulator.add_reference_tags();
  const sim::TagId pallet = simulator.add_tag({1.4, 1.8});
  const sim::TagId forklift = simulator.add_tag({2.3, 1.1});
  const sim::TagId cart = simulator.add_tag({0.9, 2.6});
  capture.tracked = {{pallet, "pallet"}, {forklift, "forklift"}, {cart, "cart"}};

  engine::EngineConfig engine_config;
  engine_config.min_refresh_interval_s = 10.0;
  engine::LocalizationEngine engine(deployment, engine_config);
  simulator.middleware().attach_metrics(engine.metrics());
  engine.set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) engine.track(tag, name);

  simulator.run_for(kWarmupS);
  capture.segments.push_back(recorder.take());
  for (int poll = 0; poll < kPolls; ++poll) {
    simulator.run_for(kPollS);
    capture.segments.push_back(recorder.take());
    const sim::SimTime now = simulator.now();
    capture.poll_times.push_back(now);
    simulator.middleware().evict_stale(now);
    capture.golden.push_back(engine.update(simulator.middleware(), now));
  }
  return capture;
}

bool same_poll(const std::vector<engine::Fix>& a,
               const std::vector<engine::Fix>& b, int poll) {
  if (a.size() != b.size()) {
    std::printf("  MISMATCH poll %d: %zu vs %zu fixes\n", poll, a.size(),
                b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const engine::Fix& x = a[i];
    const engine::Fix& y = b[i];
    const bool same =
        x.tag == y.tag && x.name == y.name && bits(x.time) == bits(y.time) &&
        x.valid == y.valid && x.quality == y.quality &&
        bits(x.position.x) == bits(y.position.x) &&
        bits(x.position.y) == bits(y.position.y) &&
        bits(x.smoothed_position.x) == bits(y.smoothed_position.x) &&
        bits(x.smoothed_position.y) == bits(y.smoothed_position.y) &&
        x.survivor_count == y.survivor_count &&
        x.used_fallback == y.used_fallback && bits(x.age_s) == bits(y.age_s);
    if (!same) {
      std::printf("  MISMATCH poll %d fix %zu (tag %u): (%.17g, %.17g) vs "
                  "(%.17g, %.17g)\n",
                  poll, i, x.tag, x.position.x, x.position.y, y.position.x,
                  y.position.y);
      return false;
    }
  }
  return true;
}

service::SupervisorConfig drill_config(const fs::path& root,
                                       const fs::path& shardd) {
  service::SupervisorConfig config;
  config.shards = 2;
  config.root_dir = root;
  config.shardd_binary = shardd;
  config.checkpoint_every_updates = 2;
  config.restart_backoff_initial_s = 0.01;
  config.restart_backoff_max_s = 0.05;
  config.request_retries = 3;
  config.spawn_wait_s = 120.0;
  config.seed = 7;
  return config;
}

/// First incarnation: warmup + polls 0..kCutPoll-1, each poll's fixes
/// serialized to `polls_file` so the parent can audit them against golden.
/// Returns the supervisor still running (caller decides how it dies).
void run_first_incarnation(service::Supervisor& supervisor,
                           const Capture& capture, const fs::path& polls_file) {
  supervisor.start();
  supervisor.set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) {
    supervisor.track(tag, name, std::nullopt);
  }
  std::ofstream out(polls_file, std::ios::binary);
  supervisor.ingest(capture.segments[0]);
  for (int poll = 0; poll < kCutPoll; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const std::string bytes =
        service::encode_fixes(supervisor.poll(capture.poll_times[poll]));
    const auto len = static_cast<std::uint32_t>(bytes.size());
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  out.flush();
}

/// Waits for `ready_file`, asserting the child has not exited underneath us.
bool await_ready(pid_t child, const fs::path& ready_file) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  while (!fs::exists(ready_file)) {
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) != 0) {
      std::printf("  FAIL: first incarnation exited before it was killed\n");
      return false;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::printf("  FAIL: first incarnation never became ready\n");
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

/// Audits the first incarnation's recorded polls against golden.
bool audit_child_polls(const Capture& capture, const fs::path& polls_file) {
  std::ifstream in(polls_file, std::ios::binary);
  if (!in.is_open()) {
    std::printf("  FAIL: no recorded polls at %s\n",
                polls_file.string().c_str());
    return false;
  }
  for (int poll = 0; poll < kCutPoll; ++poll) {
    std::uint32_t len = 0;
    if (!in.read(reinterpret_cast<char*>(&len), sizeof(len))) return false;
    std::string bytes(len, '\0');
    if (!in.read(bytes.data(), static_cast<std::streamsize>(len))) return false;
    const auto fixes = service::decode_fixes(bytes);
    if (!fixes.has_value() ||
        !same_poll(*fixes, capture.golden[static_cast<std::size_t>(poll)],
                   poll)) {
      return false;
    }
  }
  return true;
}

/// Recovers over `root`, checks the replay contract, finishes the stream
/// bit-identically. `expect_replay`: the SIGKILL leg kills one shard process
/// first, so its slice of the cut batch survives only in the journal (>0
/// replayed batches, the living orphan adopted); SIGTERM checkpointed
/// (exactly 0). `skip_ingest_poll` marks a poll the journal already carries.
bool recover_and_finish(service::Supervisor& supervisor, const Capture& capture,
                        bool expect_replay, int skip_ingest_poll) {
  if (!supervisor.recovered_from_journal()) {
    std::printf("  FAIL: second incarnation did not recover from journal\n");
    return false;
  }
  supervisor.start();
  // A shard whose death the dying incarnation had already observed can be
  // restored cooled-down: tick until the half-open probe brings it back.
  const auto up_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    while (supervisor.shard_state(shard) != service::ShardState::kUp) {
      if (std::chrono::steady_clock::now() >= up_deadline) {
        std::printf("  FAIL: shard %u not up after recovery\n", shard);
        return false;
      }
      supervisor.tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  const auto* replayed = supervisor.metrics().find_counter(
      "vire_supervisor_replayed_batches_total");
  const auto* adoptions =
      supervisor.metrics().find_counter("vire_supervisor_adoptions_total");
  if (replayed == nullptr || adoptions == nullptr) return false;
  if (expect_replay) {
    if (replayed->value() == 0) {
      std::printf("  FAIL: the dead shard's journal suffix did not replay\n");
      return false;
    }
    if (adoptions->value() != 1) {
      std::printf("  FAIL: expected exactly the living orphan adopted, "
                  "got %llu\n",
                  static_cast<unsigned long long>(adoptions->value()));
      return false;
    }
    std::printf("  recovered: %llu batches replayed, living orphan adopted, "
                "dead shard respawned\n",
                static_cast<unsigned long long>(replayed->value()));
  } else {
    if (replayed->value() != 0) {
      std::printf("  FAIL: clean SIGTERM checkpointed, yet %llu batches "
                  "replayed\n",
                  static_cast<unsigned long long>(replayed->value()));
      return false;
    }
    std::printf("  recovered: zero batches replayed (checkpoint held)\n");
  }
  for (int poll = kCutPoll; poll < kPolls; ++poll) {
    if (poll != skip_ingest_poll) {
      supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    }
    if (!same_poll(supervisor.poll(capture.poll_times[poll]),
                   capture.golden[static_cast<std::size_t>(poll)], poll)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* force = std::getenv("VIRE_FORCE_DRILLS");
  const bool forced = force != nullptr && std::strcmp(force, "1") == 0;
  if (std::thread::hardware_concurrency() <= 1 && !forced) {
    std::printf(
        "failover drill: SKIPPED — single hardware thread. Each incarnation\n"
        "spawns (or adopts) whole engine processes; on one core they starve\n"
        "behind the drill and spawn deadlines flake instead of proving\n"
        "anything about the journal. See docs/robustness.md,\n"
        "'Single-core machines'. VIRE_FORCE_DRILLS=1 overrides.\n"
        "Exit 0: skipped, not passed.\n");
    return 0;
  }

  const fs::path shardd =
      argc > 1 ? fs::path(argv[1]) : fs::path(VIRE_SHARDD_DEFAULT);
  if (!fs::exists(shardd)) {
    std::printf("failover drill: shard binary not found at %s\n"
                "usage: %s [path/to/vire_shardd]\n",
                shardd.string().c_str(), argv[0]);
    return 2;
  }

  std::printf("failover drill: supervisor SIGTERM vs SIGKILL over a journaled "
              "control plane\n");
  std::printf("\n[1/4] golden single-engine run\n");
  const Capture capture = capture_scenario();
  std::printf("  %d polls captured\n", kPolls);

  // ---------------------------------------------------------------- SIGTERM
  std::printf("\n[2/4] SIGTERM: clean checkpoint => zero replay\n");
  const fs::path term_root = "failover_drill_term";
  fs::remove_all(term_root);
  fs::create_directories(term_root);
  const fs::path term_polls = term_root / "first_polls.bin";
  const fs::path term_ready = term_root / "first_ready";

  pid_t child = ::fork();
  if (child < 0) return 1;
  if (child == 0) {
    // vire_supervisord's SIGTERM path: block the signal, finish the current
    // work, then stop() — which drains every shard and checkpoints the
    // control journal before the process exits.
    sigset_t mask;
    sigemptyset(&mask);
    sigaddset(&mask, SIGTERM);
    sigprocmask(SIG_BLOCK, &mask, nullptr);
    service::Supervisor first(env::Deployment::paper_testbed(),
                              drill_config(term_root, shardd));
    run_first_incarnation(first, capture, term_polls);
    { std::ofstream ready(term_ready); }
    int sig = 0;
    sigwait(&mask, &sig);
    first.stop();  // drain + checkpoint: the journal owes nothing
    std::_Exit(0);
  }
  if (!await_ready(child, term_ready)) return 1;
  if (::kill(child, SIGTERM) != 0) return 1;
  int status = 0;
  if (::waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::printf("  FAIL: SIGTERM incarnation did not exit cleanly\n");
    return 1;
  }
  if (!audit_child_polls(capture, term_polls)) return 1;
  {
    service::Supervisor second(env::Deployment::paper_testbed(),
                               drill_config(term_root, shardd));
    if (!recover_and_finish(second, capture, /*expect_replay=*/false,
                            /*skip_ingest_poll=*/-1)) {
      return 1;
    }
    second.stop();
  }
  fs::remove_all(term_root);
  std::printf("  bit-identical through a clean handover\n");

  // ---------------------------------------------------------------- SIGKILL
  std::printf("\n[3/4] SIGKILL with mixed shard fates: journal replay + "
              "orphan adoption\n");
  const fs::path kill_root = "failover_drill_kill";
  fs::remove_all(kill_root);
  fs::create_directories(kill_root);
  const fs::path kill_polls = kill_root / "first_polls.bin";
  const fs::path kill_ready = kill_root / "first_ready";

  child = ::fork();
  if (child < 0) return 1;
  if (child == 0) {
    service::Supervisor first(env::Deployment::paper_testbed(),
                              drill_config(kill_root, shardd));
    run_first_incarnation(first, capture, kill_polls);
    // The worst spot to die: shard 1's process goes down FIRST, so its slice
    // of this batch is journaled (write-ahead) but never reaches its WAL —
    // after the supervisor's own SIGKILL it survives only in the journal.
    pid_t victim = -1;
    {
      std::ifstream in(kill_root / "shard-1" / "shardd.pid");
      in >> victim;
    }
    if (victim <= 0) std::_Exit(3);
    ::kill(victim, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    first.ingest(capture.segments[kCutPoll + 1]);
    { std::ofstream ready(kill_ready); }
    for (;;) ::pause();  // SIGKILL only: the destructor must never run
  }
  if (!await_ready(child, kill_ready)) return 1;
  if (::kill(child, SIGKILL) != 0) return 1;
  if (::waitpid(child, &status, 0) != child) return 1;
  if (!audit_child_polls(capture, kill_polls)) return 1;

  std::string prom;
  {
    service::Supervisor second(env::Deployment::paper_testbed(),
                               drill_config(kill_root, shardd));
    if (!recover_and_finish(second, capture, /*expect_replay=*/true,
                            /*skip_ingest_poll=*/kCutPoll)) {
      return 1;
    }
    prom = second.snapshot_prometheus();
    second.stop();
  }
  fs::remove_all(kill_root);
  std::printf("  bit-identical through a hard crash\n");

  // ---------------------------------------------------------------- metrics
  std::printf("\n[4/4] merged metrics snapshot\n");
  fs::create_directories("bench_out");
  std::ofstream("bench_out/supervisor_failover_metrics.prom") << prom;
  for (const char* needle :
       {"vire_supervisor_journal_appends_total",
        "vire_supervisor_journal_checkpoints_total",
        "vire_supervisor_journal_replayed_ops_total",
        "vire_supervisor_adoptions_total",
        "vire_supervisor_replayed_batches_total",
        "vire_supervisor_membership_changes_total"}) {
    if (prom.find(needle) == std::string::npos) {
      std::printf("  FAIL: merged scrape is missing %s\n", needle);
      return 1;
    }
  }
  std::printf("  bench_out/supervisor_failover_metrics.prom written\n");

  std::printf("\nfailover drill: SIGTERM => ZERO REPLAY, SIGKILL => "
              "JOURNAL-EXACT RECOVERY\n");
  return 0;
}
