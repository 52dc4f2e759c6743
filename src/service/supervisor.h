#pragma once
// Supervisor: the one coordinator of a multi-shard localization fleet
// (docs/service.md, "Architecture").
//
// The supervisor owns the ShardRouter, the reference broadcast, the poll
// merge, migration and crash recovery. Each shard is a one-engine
// ShardedService serving the wire protocol on its own Unix socket and
// journaling to its own WAL/checkpoint directory; a ShardRunner decides
// how it is hosted (ProcessShardRunner: one vire_shardd process per shard;
// InProcessShardRunner: a server thread in this process). Requests always
// go over ServiceClient, however the shard is hosted. The supervisor itself
// implements Frontend, so vire_supervisord fronts the whole fleet through
// the same ServiceServer that fronts a single shard.
//
// Failure detection — three independent ways:
//   * heartbeat: kHeartbeat probes on an interval; a probe that times out
//     or a shard with no successful ack within heartbeat_timeout_s is dead;
//   * socket: any request hitting EOF/ECONNRESET/EPIPE (TransportError);
//   * waitpid: the runner reports the shard exited before it was asked to.
//
// Restart policy: exponential backoff with deterministic jitter between
// restarts; a crash-loop circuit breaker marks the shard DOWN after
// breaker_max_deaths deaths inside breaker_window_s, re-probing it
// (half-open) every breaker_cooldown_s. While a shard is unreachable its
// tags are answered from last-known fixes with FixQuality::kHold — graceful
// degradation, never a stall.
//
// Durability + bit-identity: every ingest batch gets a sequence and is held
// in a per-shard op-log until the shard's heartbeat reports the batch
// durably journaled (WAL kAck marker, persist/wal.h). On restart the shard
// runs its normal checkpoint+WAL recovery, reports the last acked batch,
// and the supervisor replays exactly the un-acked suffix — plus any polls
// that could not be delivered while the shard was dead — in original order.
// Combined with the shard's own resume gate this keeps the merged poll
// stream fix-for-fix bit-identical to an uninterrupted single-engine run
// (tests/service/supervisor_chaos_test.cpp).
//
// Durable control plane (docs/service.md, "Supervisor failover & elastic
// membership"): the control-plane state that used to live only in this
// process — op-logs, the ingest cursor, router membership, breaker states —
// is journaled write-ahead to <root>/journal/ (service/control_journal.h)
// and checkpointed periodically. A supervisor restarted over an existing
// root rebuilds all of it, re-adopts still-running shards through its
// runner (for processes: pidfile + socket handshake; it cannot waitpid
// them, so liveness is kill(pid,0)/ESRCH) or restarts dead ones, and
// replays only the un-acked suffix — merged polls stay bit-identical
// through a SIGKILL of the *supervisor* itself. Membership is elastic at
// runtime: admin_add_shard / admin_remove_shard (wire kAddShard /
// kRemoveShard) walk a journaled joining->active->draining state machine,
// seed newcomers with a reference-only snapshot and re-feed moved tags from
// the source shard's WAL suffix through normal ingest.

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/localization_engine.h"
#include "env/deployment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/control_journal.h"
#include "service/frontend.h"
#include "service/shard_router.h"
#include "service/shard_runner.h"
#include "sim/types.h"

namespace vire::service {

enum class ShardState : std::uint8_t {
  kStarting = 0, ///< spawned, not yet connected/caught up
  kUp = 1,       ///< serving
  kBackoff = 2,  ///< dead, restart scheduled
  kDown = 3,     ///< circuit breaker open; degraded answers only
};
[[nodiscard]] std::string_view to_string(ShardState state) noexcept;

enum class DeathCause : std::uint8_t {
  kHeartbeatTimeout = 0,
  kSocket = 1,
  kWaitpid = 2,
};
inline constexpr std::size_t kDeathCauseCount = 3;
[[nodiscard]] std::string_view to_string(DeathCause cause) noexcept;

struct SupervisorConfig {
  int shards = 2;
  /// Root for per-shard sockets (shard-<id>.sock) and data dirs (shard-<id>).
  std::filesystem::path root_dir;
  /// Path to the vire_shardd binary (the built-in process runner).
  std::filesystem::path shardd_binary;
  /// Extra argv appended to every shard spawn (test seam: --abort-on-start).
  std::vector<std::string> shardd_extra_args;

  // Forwarded to each shard.
  int engine_workers = 1;
  double middleware_window_s = 10.0;
  int checkpoint_every_updates = 8;

  ShardRouterConfig router;

  /// Per-request read deadline on the supervisor->shard connection.
  double request_timeout_s = 10.0;
  /// Extra attempts a forwarded request gets after a transport failure
  /// (each attempt revives the shard first when possible).
  int request_retries = 2;

  /// Longest pending backoff a poll-path revival will wait out inline.
  /// try_revive() runs on the server's event-loop thread with mutex_ held, so
  /// waiting out a full restart_backoff_max_s would stall every connection;
  /// beyond this bound the request degrades (held fixes / journaled op-log)
  /// and tick() performs the restart on schedule instead.
  double inline_revival_max_wait_s = 0.25;

  double heartbeat_interval_s = 0.5;
  /// A shard with no successful heartbeat ack for this long is declared
  /// dead even if no request has failed yet.
  double heartbeat_timeout_s = 5.0;

  double restart_backoff_initial_s = 0.05;
  double restart_backoff_max_s = 2.0;
  double restart_backoff_multiplier = 2.0;
  /// Jitter fraction applied to each backoff delay (deterministic, derived
  /// from `seed`, shard id and restart count via splitmix64).
  double restart_jitter_frac = 0.1;
  /// A shard continuously up this long gets its backoff counter reset.
  double backoff_reset_after_s = 10.0;

  /// Breaker: this many deaths inside breaker_window_s opens the circuit.
  int breaker_max_deaths = 5;
  double breaker_window_s = 10.0;
  /// How long the breaker stays open before a half-open restart probe.
  double breaker_cooldown_s = 5.0;

  /// Budget for a spawned shard to bind its socket and accept the first
  /// connection.
  double spawn_wait_s = 10.0;
  /// Delay between connect attempts while waiting for a spawn.
  double connect_retry_s = 0.02;

  std::uint64_t seed = 0;
  /// Per-shard op-log bound (entries). Overflow evicts the oldest entry; with
  /// the control journal on, the evicted history stays recoverable (the shard
  /// is marked for a journal-backed op-log rebuild at its next bring-up and
  /// vire_supervisor_oplog_overflow_total counts the episode). Only with the
  /// journal off is an evicted entry truly unreplayable
  /// (vire_supervisor_oplog_dropped_total).
  std::size_t oplog_capacity = 4096;

  /// Durable control plane: journal every control-plane op (ingest batches,
  /// sequence allocations, membership and breaker transitions) to
  /// <root_dir>/journal/ so a restarted supervisor rebuilds its op-log,
  /// reseeds sequences, re-adopts orphaned shard processes and replays only
  /// the un-acked suffix.
  bool control_journal = true;
  /// Journal appends between automatic control checkpoints.
  std::uint64_t journal_checkpoint_every_ops = 1024;

  /// Fleet-wide tracing (docs/observability.md, "Fleet observability"):
  /// enables the supervisor's own tracer and passes --trace to every spawned
  /// shard, so fleet_trace_json() can merge the whole fleet's spans. Trace
  /// contexts are stamped on the wire regardless of this flag (the bytes are
  /// identical on or off), so merged polls stay bit-identical either way.
  bool fleet_tracing = false;
  /// Events pulled per shard by one kTraceDump (bounds the reply frame).
  std::size_t trace_pull_events = 4096;
  /// End-to-end ingest-to-fix SLO; a polled fix older than this bumps
  /// vire_fleet_slo_burn_total. <= 0 disables burn counting.
  double ingest_to_fix_slo_s = 1.0;
};

class Supervisor : public Frontend {
 public:
  /// `clock` may be null (a built-in SteadyClock is used); when provided it
  /// must outlive the supervisor. `runner` hosts the shards; null builds a
  /// ProcessShardRunner over config.shardd_binary. A caller's runner must
  /// outlive the supervisor.
  Supervisor(const env::Deployment& deployment, SupervisorConfig config,
             Clock* clock = nullptr, ShardRunner* runner = nullptr);
  /// With the built-in process runner this is stop(). A supervisor over a
  /// caller's runner instead leaves its shards running there, for the next
  /// supervisor over the same root and runner to adopt — the in-process
  /// stand-in for a supervisor SIGKILL.
  ~Supervisor() override;

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Starts (or adopts) every shard and brings it up. A shard that fails
  /// to come up is left in backoff (or breaker-open) — start() itself never
  /// throws for a crashing shard; tick() keeps retrying it.
  void start();
  /// Drains every shard, checkpoints the control journal, then stops each
  /// shard through the runner (graceful, then kill). Idempotent.
  void stop();

  /// Drives supervision: reaps dead shards, sends due heartbeats, trims
  /// acked op-log entries, executes scheduled restarts and breaker probes.
  /// Call periodically (vire_supervisord ticks every heartbeat_interval_s/2);
  /// safe to call concurrently with the server thread's Frontend calls.
  void tick();

  // Frontend. ingest() assigns each batch an internal sequence and journals
  // it in the owning shards' op-logs until durably acked. poll() sends every
  // shard its poll (reviving dead ones inline when the breaker allows)
  // before reading any reply, so the shards compute at once; it degrades a
  // DOWN shard's tags to FixQuality::kHold answers, and reports a shard's
  // refusal only after every other reply is read. Both stamp their own
  // trace contexts; the caller's sequence and context are unused.
  void ingest(const std::vector<sim::RssiReading>& readings,
              std::uint64_t sequence = 0,
              const obs::TraceContext& ctx = {}) override;
  std::vector<engine::Fix> poll(sim::SimTime now,
                                const obs::TraceContext& ctx = {}) override;
  [[nodiscard]] std::optional<engine::Fix> latest_fix(
      sim::TagId tag) const override;
  std::optional<std::string> explain_json(sim::TagId tag) override;
  std::string snapshot_prometheus() const override;
  std::string snapshot_json() const override;
  void set_reference_ids(std::vector<sim::TagId> ids) override;
  void track(sim::TagId tag, std::string name,
             std::optional<std::uint32_t> zone) override;
  /// Fleet durability cursor: next batch sequence + the lowest batch
  /// sequence every shard has durably journaled.
  HeartbeatInfo heartbeat() override;
  /// The supervisor's own span ring (kTraceDump against vire_supervisord).
  obs::TraceDump trace_dump(std::size_t max_events) override;
  /// Flight-recorder provenance pulled from every UP shard, merged as
  /// {"fleet":[{"shard":N,"provenance":{...}},...]} — explain_fix-style
  /// introspection against a live fleet through one connection.
  std::optional<std::string> provenance_json() override;
  /// Live membership (wire kAddShard/kRemoveShard): spawn + seed + migrate a
  /// new shard process into the fleet, returning its id; or drain shard `id`
  /// (WAL-suffix migration of every tag it owns) and retire its process,
  /// returning the number of tags moved. Both journal the state machine
  /// (joining -> active -> draining) so an interrupted change resumes after
  /// a supervisor restart.
  std::uint64_t admin_add_shard() override;
  std::uint64_t admin_remove_shard(std::uint32_t id) override;
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept override {
    return metrics_;
  }

  /// One merged Chrome trace for the whole fleet: pulls each UP shard's span
  /// ring (kTraceDump), rebases its timestamps onto the supervisor timeline
  /// using the heartbeat-estimated clock offset, and tags every process with
  /// Perfetto process_name/pid metadata (supervisor pid 1, shard N pid N+2).
  [[nodiscard]] std::string fleet_trace_json();
  /// Writes fleet_trace_json() to `path`, creating parent directories.
  void write_fleet_trace(const std::filesystem::path& path);

  // Introspection (tests, drills).
  [[nodiscard]] ShardState shard_state(std::uint32_t shard) const;
  [[nodiscard]] pid_t shard_pid(std::uint32_t shard) const;
  [[nodiscard]] std::uint64_t restarts() const noexcept;
  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] MemberPhase member_phase(std::uint32_t shard) const;
  [[nodiscard]] bool shard_adopted(std::uint32_t shard) const;
  /// True when the constructor rebuilt state from an existing journal.
  [[nodiscard]] bool recovered_from_journal() const noexcept {
    return recovered_from_journal_;
  }
  /// Forces a control checkpoint now (drills; stop() does this implicitly).
  void checkpoint_now();
  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }
  [[nodiscard]] const SupervisorConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }

 private:
  struct OpEntry {
    enum class Kind : std::uint8_t { kBatch, kPoll };
    Kind kind = Kind::kBatch;
    std::uint64_t sequence = 0;               ///< kBatch
    std::vector<sim::RssiReading> readings;   ///< kBatch
    sim::SimTime time = 0.0;                  ///< kPoll (missed while dead)
    /// Control-journal sequence of this entry (0 = journal disabled).
    std::uint64_t journal_seq = 0;
  };

  struct ManagedShard {
    std::uint32_t id = 0;
    std::filesystem::path socket;
    std::filesystem::path data_dir;
    /// True when the running shard was left behind by a previous supervisor
    /// incarnation and adopted rather than started.
    bool adopted = false;
    /// Membership state machine position (journaled; control_journal.h).
    MemberPhase phase = MemberPhase::kActive;
    std::unique_ptr<ServiceClient> client;
    ShardState state = ShardState::kStarting;
    int restart_count = 0;        ///< consecutive failed/backed-off restarts
    double next_restart_time = 0.0;
    double last_heartbeat_ok = 0.0;
    double up_since = 0.0;
    std::uint64_t heartbeat_seq = 0;
    std::uint64_t last_ack = 0;   ///< durably journaled batch cursor
    std::deque<double> death_times;
    double breaker_open_until = 0.0;
    /// Un-acked batches + undelivered polls, in original order.
    std::deque<OpEntry> oplog;
    /// Capacity overflow evicted journal-backed entries: rebuild the op-log
    /// from the control journal at the next bring-up (replay()).
    bool oplog_overflow = false;
    /// Journal sequence of the oldest evicted entry — holds the checkpoint
    /// floor down so the needed suffix is never pruned before the rebuild.
    std::uint64_t overflow_floor = 0;
    /// Journal sequence through which journaled polls have been executed.
    std::uint64_t polls_done = 0;
    /// Clock offset of this shard's trace clock vs the supervisor's,
    /// estimated from heartbeat round trips; reset when the process restarts
    /// (a new process has a new clock epoch).
    obs::ClockOffsetEstimator offset;
    /// Cumulative anomaly auto-dumps last reported by this shard's ack.
    std::uint64_t anomaly_dumps = 0;
    /// Ingest stamp (supervisor tracer clock, µs) per in-flight batch
    /// sequence; matched and cleared at the next successful poll merge to
    /// feed vire_fleet_ingest_to_fix_seconds and the batch_e2e spans.
    std::map<std::uint64_t, double> pending_batches;
  };

  [[nodiscard]] std::uint32_t owner_of(sim::TagId tag) const;
  [[nodiscard]] bool is_reference(sim::TagId tag) const;

  /// Builds a ManagedShard record (paths + lazily-registered per-shard
  /// metrics) for `id`; does not insert it into shards_.
  [[nodiscard]] ManagedShard make_shard(std::uint32_t id);
  void ensure_shard_metrics(std::uint32_t id);

  [[nodiscard]] ShardLaunch launch_for(const ManagedShard& shard) const;
  /// Connects + handshakes with the shard's socket; throws TransportError.
  [[nodiscard]] std::unique_ptr<ServiceClient> connect(
      const ManagedShard& shard) const;
  /// Re-attach to a shard a previous supervisor incarnation left running:
  /// the runner finds it, the socket handshake proves it serves.
  bool try_adopt(ManagedShard& shard, const ShardLaunch& launch);
  /// Drops the connection and ends the shard through the runner: `graceful`
  /// stops it (queued work finishes), otherwise it is killed.
  void release(ManagedShard& shard, bool graceful) noexcept;
  /// Start (or adopt) + connect + handshake + re-register + recover +
  /// replay. Returns false (shard killed) on any failure.
  bool bring_up(ManagedShard& shard);
  void replay(ManagedShard& shard);
  void push_oplog(ManagedShard& shard, OpEntry entry);
  /// Records a durable-ack cursor learned from the shard (recovery or
  /// heartbeat) and keeps ingest_seq_ strictly above every cursor: a WAL can
  /// carry acks from a previous supervisor incarnation, and a fresh batch
  /// numbered at or below such a cursor would be dropped as a duplicate by
  /// the shard and trimmed as acked here — silent data loss.
  void observe_ack(ManagedShard& shard, std::uint64_t ack);
  void trim_oplog(ManagedShard& shard);
  void handle_death(ManagedShard& shard, DeathCause cause);
  /// Restart a non-UP shard if policy allows (waits out a pending backoff up
  /// to inline_revival_max_wait_s, else defers to tick(); respects an open
  /// breaker). Returns true when the shard is UP again.
  bool try_revive(ManagedShard& shard);
  void mark_up(ManagedShard& shard);
  [[nodiscard]] double backoff_delay(const ManagedShard& shard) const;
  void heartbeat_shard(ManagedShard& shard);
  void refresh_state_metrics();
  void close_breaker(ManagedShard& shard);

  // Control journal (tentpole). All called with mutex_ held.
  void restore_from_journal(RecoveredControlState recovered);
  [[nodiscard]] ControlCheckpoint build_checkpoint() const;
  void write_control_checkpoint();
  void maybe_checkpoint();
  /// Heartbeat-drains every UP shard (forcing its WAL to catch up) and
  /// checkpoints, so a clean shutdown leaves nothing to replay.
  void drain_and_checkpoint();

  // Elastic membership (tentpole). All called with mutex_ held.
  /// Finishes a join: reference seed from an active donor, router insert,
  /// migration of every tag whose owner changed, kShardActive journal mark.
  void complete_join(ManagedShard& fresh);
  /// Moves every tag off `shard` (router removal + per-tag migration).
  /// `in_router` distinguishes a live drain from one resumed after restart
  /// (recovery rebuilds the router without draining members).
  std::uint64_t drain_shard(ManagedShard& shard, bool in_router);
  /// Resumes interrupted joins/drains left behind by a crashed supervisor.
  void resume_membership();
  /// Moves one tag across processes: export (+untrack) at the source,
  /// WAL-suffix readings re-fed through normal ingest at the destination,
  /// then the exported per-tag state imported on top.
  void migrate_tag_cross(sim::TagId tag, std::uint32_t from_id,
                         std::uint32_t to_id);
  [[nodiscard]] std::vector<sim::RssiReading> migration_readings_cross(
      const ManagedShard& source, sim::TagId tag) const;
  /// Deterministic nonzero trace id for a batch/poll sequence (seeded).
  [[nodiscard]] std::uint64_t trace_id_for(std::uint64_t sequence) const;
  void observe_ingest_to_fix(double latency_s);

  /// Runs `fn` against the shard, reviving it first and retrying transport
  /// failures up to SupervisorConfig::request_retries. `first_attempt` > 0
  /// says that many attempts were already spent; nullopt = unreachable.
  template <typename Fn>
  auto with_shard(ManagedShard& shard, Fn fn, int first_attempt = 0)
      -> std::optional<decltype(fn(std::declval<ServiceClient&>()))>;

  env::Deployment deployment_;
  SupervisorConfig config_;
  SteadyClock steady_clock_;
  Clock* clock_;
  /// The built-in process runner when the caller supplied none; declared
  /// after the clock it may pace.
  std::unique_ptr<ShardRunner> owned_runner_;
  ShardRunner* runner_ = nullptr;
  ShardRouter router_;
  mutable std::mutex mutex_;  ///< serializes server thread vs tick loop
  std::map<std::uint32_t, ManagedShard> shards_;  ///< id order
  std::vector<sim::TagId> reference_ids_;
  struct TrackedTag {
    std::string name;
    std::optional<std::uint32_t> zone;
  };
  std::map<sim::TagId, TrackedTag> tags_;
  std::map<sim::TagId, engine::Fix> latest_;
  std::uint64_t ingest_seq_ = 0;
  bool started_ = false;

  std::unique_ptr<ControlJournal> journal_;
  std::uint32_t next_shard_id_ = 0;
  /// Latest poll time seen — the migration horizon cursor (checkpointed).
  double last_poll_time_ = 0.0;
  bool recovered_from_journal_ = false;

  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::Counter* restarts_total_ = nullptr;
  obs::Counter* deaths_total_[kDeathCauseCount] = {};
  obs::Counter* breaker_open_total_ = nullptr;
  obs::Counter* replayed_batches_ = nullptr;
  obs::Counter* replayed_readings_ = nullptr;
  obs::Counter* replayed_polls_ = nullptr;
  obs::Counter* held_fixes_ = nullptr;
  obs::Counter* heartbeats_total_ = nullptr;
  obs::Counter* oplog_dropped_ = nullptr;
  obs::Counter* oplog_overflow_ = nullptr;
  obs::Counter* adoptions_total_ = nullptr;
  obs::Counter* membership_changes_add_ = nullptr;
  obs::Counter* membership_changes_remove_ = nullptr;
  obs::Counter* membership_moved_tags_ = nullptr;
  obs::Counter* membership_replayed_readings_ = nullptr;
  obs::Counter* polls_total_ = nullptr;
  obs::Gauge* state_gauges_[4] = {};
  obs::Histogram* poll_seconds_ = nullptr;
  obs::Histogram* ingest_to_fix_seconds_ = nullptr;
  obs::Counter* slo_burn_ = nullptr;
  std::map<std::uint32_t, obs::Histogram*> rtt_seconds_;
  std::map<std::uint32_t, obs::Counter*> anomaly_dumps_total_;
  std::map<std::uint32_t, obs::Gauge*> clock_offset_gauges_;
};

}  // namespace vire::service
