// Crash drill: SIGKILL a live localization pipeline mid-scenario and prove
// that recovery reproduces the uninterrupted run BIT FOR BIT (see
// docs/robustness.md, "Crash recovery").
//
//   ./build/examples/crash_drill
//
// The drill:
//   1. golden run — the paper-testbed scenario, uninterrupted;
//   2. crash+recover — a forked child runs the same scenario with the WAL
//      and periodic checkpoints enabled; the parent watches the WAL and
//      SIGKILLs the child mid-run, then recovers (checkpoint + WAL replay +
//      deterministic catch-up) into a fresh engine and diffs every fix
//      against the golden trace by bit pattern;
//   3. torn-tail variant — the WAL's last frame is corrupted before
//      recovery; the truncated tail must be detected, counted, and the
//      recovered fixes must still match golden;
//   4. corrupt-checkpoint variant — the newest checkpoint is byte-flipped;
//      recovery must reject it, fall back to the older checkpoint (longer
//      replay), and still match golden.
//
// Exit code 0 iff every variant is bit-identical.

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "obs/exporters.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "sim/simulator.h"

namespace {

using namespace vire;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 40.0;
constexpr double kPollS = 5.0;
constexpr int kPolls = 24;
constexpr int kCheckpointEveryPolls = 6;
constexpr std::uint64_t kKillAfterMarkers = 14;  // >= two checkpoints written

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

engine::EngineConfig make_engine_config() {
  engine::EngineConfig config;
  config.min_refresh_interval_s = 10.0;
  return config;
}

struct Pipeline {
  std::unique_ptr<sim::RfidSimulator> simulator;
  std::unique_ptr<engine::LocalizationEngine> engine;
};

/// Builds the deterministic drill scenario: paper testbed, seed 11, two
/// tracked tags. Every phase (golden, crashed child, recovery) constructs
/// the exact same pipeline, so the reading stream is regenerable at will.
Pipeline make_pipeline(sim::ReadingInterceptor* interceptor) {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = kSeed;
  sim_config.middleware.window_s = 10.0;

  Pipeline p;
  p.simulator = std::make_unique<sim::RfidSimulator>(environment, deployment,
                                                     sim_config);
  if (interceptor != nullptr) p.simulator->set_interceptor(interceptor);
  const auto reference_ids = p.simulator->add_reference_tags();
  const sim::TagId pallet = p.simulator->add_tag({1.4, 1.8});
  const sim::TagId forklift = p.simulator->add_tag({2.3, 1.1});

  p.engine = std::make_unique<engine::LocalizationEngine>(
      deployment, make_engine_config());
  p.simulator->middleware().attach_metrics(p.engine->metrics());
  p.engine->set_reference_ids(reference_ids);
  p.engine->track(pallet, "pallet");
  p.engine->track(forklift, "forklift");
  return p;
}

bool same_fix(const engine::Fix& a, const engine::Fix& b) {
  return a.tag == b.tag && a.name == b.name && bits(a.time) == bits(b.time) &&
         a.valid == b.valid && a.quality == b.quality &&
         bits(a.position.x) == bits(b.position.x) &&
         bits(a.position.y) == bits(b.position.y) &&
         bits(a.smoothed_position.x) == bits(b.smoothed_position.x) &&
         bits(a.smoothed_position.y) == bits(b.smoothed_position.y) &&
         a.survivor_count == b.survivor_count &&
         a.used_fallback == b.used_fallback && bits(a.age_s) == bits(b.age_s);
}

bool same_poll(const std::vector<engine::Fix>& a,
               const std::vector<engine::Fix>& b, const char* what, int poll) {
  if (a.size() != b.size()) {
    std::printf("  MISMATCH %s poll %d: %zu vs %zu fixes\n", what, poll,
                a.size(), b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_fix(a[i], b[i])) {
      std::printf("  MISMATCH %s poll %d fix %zu (tag %u): (%.17g, %.17g) vs "
                  "(%.17g, %.17g)\n",
                  what, poll, i, a[i].tag, a[i].position.x, a[i].position.y,
                  b[i].position.x, b[i].position.y);
      return false;
    }
  }
  return true;
}

/// The uninterrupted reference trace: one Fix vector per poll.
std::vector<std::vector<engine::Fix>> run_golden() {
  Pipeline p = make_pipeline(nullptr);
  p.simulator->run_for(kWarmupS);
  std::vector<std::vector<engine::Fix>> polls;
  for (int poll = 0; poll < kPolls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    polls.push_back(p.engine->update(p.simulator->middleware(), now));
  }
  return polls;
}

/// Child body: the same scenario with persistence on. Never returns — the
/// parent SIGKILLs it (a normal exit means the kill raced and the drill
/// must be retried with a longer run).
[[noreturn]] void run_child(const std::filesystem::path& dir) {
  Pipeline p = make_pipeline(nullptr);

  persist::WalConfig wal_config;
  wal_config.dir = dir / "wal";
  persist::WalWriter wal(wal_config);
  wal.attach_metrics(p.engine->metrics());
  p.simulator->middleware().attach_journal(&wal);

  persist::CheckpointStoreConfig store_config;
  store_config.dir = dir / "ckpt";
  persist::CheckpointStore store(store_config);
  store.attach_metrics(p.engine->metrics());
  const std::uint64_t fingerprint =
      persist::engine_config_fingerprint(p.engine->config());

  p.simulator->run_for(kWarmupS);
  for (int poll = 0; poll < kPolls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    // Marker BEFORE update: a crash mid-update replays the whole update.
    wal.append_update_marker(now);
    p.engine->update(p.simulator->middleware(), now);
    if ((poll + 1) % kCheckpointEveryPolls == 0) {
      persist::Checkpoint ckpt;
      ckpt.config_fingerprint = fingerprint;
      ckpt.wal_sequence = wal.next_sequence();
      ckpt.sim_time = now;
      ckpt.engine = p.engine->snapshot();
      ckpt.middleware = p.simulator->middleware().snapshot();
      ckpt.counters = persist::sample_counters(p.engine->metrics());
      store.write(ckpt);
    }
    // Pace the run so the parent's kill reliably lands mid-scenario.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(poll >= 10 ? 200 : 20));
  }
  _exit(7);  // finished without being killed: drill setup failure
}

/// Forks the persistent scenario and SIGKILLs it once the WAL shows
/// `kKillAfterMarkers` update markers. Returns false if the child exited on
/// its own (kill raced).
bool crash_scenario(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) run_child(dir);  // never returns

  bool killed = false;
  for (;;) {
    int status = 0;
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      std::printf("  child exited (status %d) before the kill landed\n",
                  status);
      return false;
    }
    const persist::WalReadResult wal = persist::read_wal(dir / "wal");
    std::uint64_t markers = 0;
    for (const auto& frame : wal.frames) {
      if (frame.type == persist::FrameType::kUpdate) ++markers;
    }
    if (markers >= kKillAfterMarkers) {
      kill(pid, SIGKILL);
      killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (!(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)) {
    std::printf("  unexpected child status %d\n", status);
    return false;
  }
  return killed;
}

/// Recovers from `dir` and replays + continues the scenario, diffing every
/// fix against the golden trace.
bool recover_and_verify(const std::filesystem::path& dir,
                        const std::vector<std::vector<engine::Fix>>& golden,
                        std::uint64_t expect_min_corrupt_frames,
                        std::uint64_t expect_min_rejected_checkpoints) {
  persist::CatchUpGate gate;
  gate.set_open(false);  // regenerated stream is muted during catch-up
  Pipeline p = make_pipeline(&gate);

  // The journaling form opens the WAL writer (resuming after the valid
  // prefix) and replays what its one walk kept; a torn tail is counted once.
  persist::RecoveryManager manager({dir / "wal", dir / "ckpt"});
  std::unique_ptr<persist::WalWriter> wal;
  const persist::RecoveryReport report =
      manager.recover(*p.engine, p.simulator->middleware(), {}, wal);
  std::printf(
      "  recovered: checkpoint@%llu, %llu frames replayed "
      "(%llu updates), %llu corrupt, %llu checkpoints rejected, t=%.0fs\n",
      static_cast<unsigned long long>(report.checkpoint_sequence),
      static_cast<unsigned long long>(report.frames_replayed),
      static_cast<unsigned long long>(report.updates_replayed),
      static_cast<unsigned long long>(report.corrupt_frames),
      static_cast<unsigned long long>(report.checkpoints_rejected),
      report.recovered_time);

  if (!report.checkpoint_loaded) {
    std::printf("  FAIL: no checkpoint loaded\n");
    return false;
  }
  if (report.corrupt_frames < expect_min_corrupt_frames) {
    std::printf("  FAIL: expected >= %llu corrupt frames, saw %llu\n",
                static_cast<unsigned long long>(expect_min_corrupt_frames),
                static_cast<unsigned long long>(report.corrupt_frames));
    return false;
  }
  if (report.checkpoints_rejected < expect_min_rejected_checkpoints) {
    std::printf("  FAIL: expected >= %llu rejected checkpoints, saw %llu\n",
                static_cast<unsigned long long>(expect_min_rejected_checkpoints),
                static_cast<unsigned long long>(report.checkpoints_rejected));
    return false;
  }

  // The poll the pipeline is restored to: poll k runs at warmup + (k+1)*5 s.
  const int done_polls =
      static_cast<int>((report.recovered_time - kWarmupS) / kPollS + 0.5);
  if (done_polls <= 0 || done_polls >= kPolls) {
    std::printf("  FAIL: implausible recovered poll count %d\n", done_polls);
    return false;
  }

  // 1. The replayed updates must match the golden polls they correspond to.
  const int replay_first =
      done_polls - static_cast<int>(report.updates_replayed);
  for (std::size_t i = 0; i < report.replayed_fixes.size(); ++i) {
    if (!same_poll(report.replayed_fixes[i],
                   golden[static_cast<std::size_t>(replay_first) + i],
                   "replayed", replay_first + static_cast<int>(i))) {
      return false;
    }
  }

  // 2. Catch the simulator's clock up to the recovered time with deliveries
  // muted (the recovered middleware already holds that history), reattach
  // the journal, open the gate, and continue the scenario to the end.
  p.simulator->run_until(report.recovered_time);
  gate.set_open(true);

  p.simulator->middleware().attach_journal(wal.get());

  for (int poll = done_polls; poll < kPolls; ++poll) {
    p.simulator->run_for(kPollS);
    const sim::SimTime now = p.simulator->now();
    p.simulator->middleware().evict_stale(now);
    wal->append_update_marker(now);
    const auto fixes = p.engine->update(p.simulator->middleware(), now);
    if (!same_poll(fixes, golden[static_cast<std::size_t>(poll)], "continued",
                   poll)) {
      return false;
    }
  }
  std::printf("  bit-identical: %d replayed + %d continued polls\n",
              static_cast<int>(report.updates_replayed), kPolls - done_polls);
  // Snapshot the recovered pipeline's metrics (the vire_persist_* series in
  // particular) for inspection and the CI metric-presence check.
  obs::write_prometheus_snapshot(p.engine->metrics(),
                                 "bench_out/crash_drill_metrics.prom");
  return true;
}

void corrupt_last_bytes(const std::filesystem::path& file) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  const std::streamoff target = size >= 3 ? size - 3 : 0;
  f.seekg(target);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(target);
  f.write(&byte, 1);
}

std::filesystem::path newest_file(const std::filesystem::path& dir) {
  std::filesystem::path newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  return newest;
}

}  // namespace

int main() {
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf(
        "crash drill: SKIPPED — single hardware thread. The drill relies on\n"
        "the parent racing the child (watch the WAL, SIGKILL mid-run); with\n"
        "one core that race cannot be scheduled reliably and the drill\n"
        "flakes instead of proving anything. See docs/robustness.md,\n"
        "'Single-core machines'. Exit 0: skipped, not passed.\n");
    return 0;
  }
  std::printf("crash drill: %d polls, checkpoint every %d, kill after %llu "
              "update markers\n",
              kPolls, kCheckpointEveryPolls,
              static_cast<unsigned long long>(kKillAfterMarkers));

  std::printf("\n[1/4] golden run\n");
  const auto golden = run_golden();
  std::printf("  %d polls\n", kPolls);

  // The golden engine is destroyed here: fork() below happens while the
  // process is single-threaded.
  const std::filesystem::path base = "crash_drill_out";

  std::printf("\n[2/4] SIGKILL mid-run, recover\n");
  if (!crash_scenario(base / "clean")) return 1;
  if (!recover_and_verify(base / "clean", golden, 0, 0)) return 1;

  std::printf("\n[3/4] torn WAL tail, recover\n");
  if (!crash_scenario(base / "torn")) return 1;
  {
    const auto segment = newest_file(base / "torn" / "wal");
    std::printf("  corrupting tail of %s\n", segment.string().c_str());
    corrupt_last_bytes(segment);
  }
  if (!recover_and_verify(base / "torn", golden, 1, 0)) return 1;

  std::printf("\n[4/4] corrupt newest checkpoint, fall back to the older one\n");
  if (!crash_scenario(base / "ckpt_corrupt")) return 1;
  {
    const auto newest = newest_file(base / "ckpt_corrupt" / "ckpt");
    std::printf("  corrupting %s\n", newest.string().c_str());
    corrupt_last_bytes(newest);
  }
  if (!recover_and_verify(base / "ckpt_corrupt", golden, 0, 1)) return 1;

  std::printf("\ncrash drill: ALL VARIANTS BIT-IDENTICAL\n");
  return 0;
}
