#include "service/supervisor.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/exporters.h"
#include "persist/wal.h"
#include "support/rng.h"

namespace vire::service {

std::string_view to_string(ShardState state) noexcept {
  switch (state) {
    case ShardState::kStarting: return "starting";
    case ShardState::kUp: return "up";
    case ShardState::kBackoff: return "backoff";
    case ShardState::kDown: return "down";
  }
  return "unknown";
}

std::string_view to_string(DeathCause cause) noexcept {
  switch (cause) {
    case DeathCause::kHeartbeatTimeout: return "heartbeat_timeout";
    case DeathCause::kSocket: return "socket";
    case DeathCause::kWaitpid: return "waitpid";
  }
  return "unknown";
}

namespace {

constexpr ShardState kAllStates[] = {ShardState::kStarting, ShardState::kUp,
                                     ShardState::kBackoff, ShardState::kDown};
constexpr DeathCause kAllCauses[] = {DeathCause::kHeartbeatTimeout,
                                     DeathCause::kSocket, DeathCause::kWaitpid};

std::string shard_json(std::uint32_t id) {
  return "{\"shard\":" + std::to_string(id) + "}";
}

}  // namespace

Supervisor::Supervisor(const env::Deployment& deployment,
                       SupervisorConfig config, Clock* clock,
                       ShardRunner* runner)
    : deployment_(deployment),
      config_(std::move(config)),
      clock_(clock != nullptr ? clock : &steady_clock_),
      runner_(runner),
      router_(config_.router) {
  if (config_.shards < 1) {
    throw std::invalid_argument("Supervisor: shards must be >= 1");
  }
  if (runner_ == nullptr) {
    owned_runner_ = std::make_unique<ProcessShardRunner>(
        config_.shardd_binary, config_.shardd_extra_args, clock_);
    runner_ = owned_runner_.get();
  }
  if (config_.fleet_tracing) tracer_.set_enabled(true);

  restarts_total_ = &metrics_.counter("vire_supervisor_restarts_total", {},
                                      "Successful shard process restarts");
  for (DeathCause cause : kAllCauses) {
    deaths_total_[static_cast<std::size_t>(cause)] = &metrics_.counter(
        "vire_supervisor_deaths_total",
        obs::label_pair("cause", std::string(to_string(cause))),
        "Shard deaths by detection cause");
  }
  breaker_open_total_ =
      &metrics_.counter("vire_supervisor_breaker_open_total", {},
                        "Crash-loop circuit breaker openings");
  replayed_batches_ =
      &metrics_.counter("vire_supervisor_replayed_batches_total", {},
                        "Un-acked ingest batches re-sent after a restart");
  replayed_readings_ =
      &metrics_.counter("vire_supervisor_replayed_readings_total", {},
                        "Readings re-sent inside replayed batches");
  replayed_polls_ =
      &metrics_.counter("vire_supervisor_replayed_polls_total", {},
                        "Polls missed while a shard was dead, replayed on revival");
  held_fixes_ = &metrics_.counter(
      "vire_supervisor_held_fixes_total", {},
      "Degraded kHold fixes served for tags of unreachable shards");
  heartbeats_total_ = &metrics_.counter("vire_supervisor_heartbeats_total", {},
                                        "Successful shard heartbeat acks");
  oplog_dropped_ = &metrics_.counter(
      "vire_supervisor_oplog_dropped_total", {},
      "Op-log entries evicted by the capacity bound (no longer replayable)");
  oplog_overflow_ = &metrics_.counter(
      "vire_supervisor_oplog_overflow_total", {},
      "Op-log capacity overflows recovered via a journal-backed rebuild");
  adoptions_total_ = &metrics_.counter(
      "vire_supervisor_adoptions_total", {},
      "Orphaned shard processes re-adopted after a supervisor restart");
  membership_changes_add_ = &metrics_.counter(
      "vire_supervisor_membership_changes_total", obs::label_pair("op", "add"),
      "Live membership changes applied");
  membership_changes_remove_ = &metrics_.counter(
      "vire_supervisor_membership_changes_total",
      obs::label_pair("op", "remove"), "Live membership changes applied");
  membership_moved_tags_ = &metrics_.counter(
      "vire_supervisor_membership_moved_tags_total", {},
      "Tags migrated across shard processes by membership changes");
  membership_replayed_readings_ = &metrics_.counter(
      "vire_supervisor_membership_replayed_readings_total", {},
      "WAL-suffix readings re-fed through ingest during cross-process "
      "migration");
  polls_total_ =
      &metrics_.counter("vire_supervisor_polls_total", {}, "Fleet-wide polls");
  for (ShardState state : kAllStates) {
    state_gauges_[static_cast<std::size_t>(state)] = &metrics_.gauge(
        "vire_supervisor_shard_state",
        obs::label_pair("state", std::string(to_string(state))),
        "Shards currently in each supervision state");
  }
  poll_seconds_ =
      &metrics_.histogram("vire_supervisor_poll_seconds",
                          obs::default_latency_buckets_s(), {},
                          "Fleet poll latency (includes inline revivals)");
  ingest_to_fix_seconds_ = &metrics_.histogram(
      "vire_fleet_ingest_to_fix_seconds", obs::default_latency_buckets_s(), {},
      "End-to-end latency from ingest stamping to the poll merge that "
      "materialized the fix");
  slo_burn_ = &metrics_.counter(
      "vire_fleet_slo_burn_total", {},
      "Polled fixes whose ingest-to-fix latency exceeded the SLO");
  // Control journal first, membership second: a journal over an existing
  // root replaces the config_.shards bootstrap with the journaled truth.
  if (config_.control_journal && !config_.root_dir.empty()) {
    ControlJournalConfig jc;
    jc.dir = config_.root_dir / "journal";
    journal_ = std::make_unique<ControlJournal>(std::move(jc));
    journal_->attach_metrics(metrics_);
    if (config_.fleet_tracing) journal_->attach_tracer(&tracer_);
  }
  RecoveredControlState recovered;
  if (journal_ != nullptr) recovered = journal_->recover();
  if (recovered.recovered) {
    restore_from_journal(std::move(recovered));
  } else {
    for (int i = 0; i < config_.shards; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      router_.add_shard(id);
      shards_.emplace(id, make_shard(id));
      if (journal_ != nullptr) {
        journal_->record_add_shard(id);
        journal_->record_shard_active(id);
      }
    }
    next_shard_id_ = static_cast<std::uint32_t>(config_.shards);
  }
  refresh_state_metrics();
}

void Supervisor::restore_from_journal(RecoveredControlState recovered) {
  recovered_from_journal_ = true;
  ingest_seq_ = recovered.state.ingest_sequence;
  next_shard_id_ = recovered.state.next_shard_id;
  last_poll_time_ = recovered.state.last_poll_time;
  reference_ids_ = std::move(recovered.state.reference_ids);
  for (auto& tag : recovered.state.tags) {
    tags_[tag.tag] = TrackedTag{std::move(tag.name), tag.zone};
  }
  for (auto& fix : recovered.state.latest) {
    latest_[fix.tag] = std::move(fix);
  }
  for (const auto& member : recovered.state.members) {
    ManagedShard shard = make_shard(member.id);
    shard.phase = member.phase;
    shard.last_ack = member.last_ack;
    shard.polls_done = member.polls_done;
    // The un-acked suffix: freshest batch sequences must stay above every
    // journaled one, which restore already guarantees via ingest_sequence.
    auto ops = recovered.oplogs.find(member.id);
    if (ops != recovered.oplogs.end()) {
      for (auto& op : ops->second) {
        OpEntry entry;
        entry.journal_seq = op.journal_sequence;
        if (op.kind == JournaledOp::Kind::kBatch) {
          entry.kind = OpEntry::Kind::kBatch;
          entry.sequence = op.batch_sequence;
          entry.readings = std::move(op.readings);
        } else {
          entry.kind = OpEntry::Kind::kPoll;
          entry.time = op.time;
        }
        shard.oplog.push_back(std::move(entry));
      }
    }
    if (member.breaker_open) {
      // Re-open the breaker where it stood: the shard was crash-looping
      // when the previous supervisor died, so restart with a cooled probe
      // instead of an immediate respawn.
      shard.state = ShardState::kDown;
      shard.breaker_open_until = clock_->now() + config_.breaker_cooldown_s;
    }
    // Only active members sit in the router; joining members never finished
    // their insert, draining members already left it.
    if (member.phase == MemberPhase::kActive) router_.add_shard(member.id);
    shards_.emplace(member.id, std::move(shard));
  }
}

Supervisor::~Supervisor() {
  if (owned_runner_ == nullptr) return;  // the caller's runner keeps them
  try {
    stop();
  } catch (...) {
    // Destructor must not throw; the runner's destructor ends what is left.
  }
}

void Supervisor::start() {
  std::lock_guard lock(mutex_);
  if (started_) return;
  std::filesystem::create_directories(config_.root_dir);
  for (auto& [id, shard] : shards_) {
    if (shard.state == ShardState::kDown) {
      continue;  // recovered breaker-open: tick() probes after the cooldown
    }
    if (bring_up(shard)) {
      mark_up(shard);
    } else {
      handle_death(shard, DeathCause::kWaitpid);
    }
  }
  started_ = true;
  // Finish any join/drain a previous incarnation left mid-flight, then
  // collapse the replayed journal suffix into a fresh checkpoint.
  resume_membership();
  if (journal_ != nullptr) write_control_checkpoint();
  refresh_state_metrics();
}

void Supervisor::stop() {
  std::lock_guard lock(mutex_);
  // Clean shutdown contract: every UP shard's WAL catches up and the control
  // journal checkpoints BEFORE teardown, so a SIGTERM restart replays zero
  // ops (only a SIGKILL leaves an un-acked suffix behind).
  if (started_) drain_and_checkpoint();
  for (auto& [id, shard] : shards_) {
    release(shard, /*graceful=*/true);
    shard.state = ShardState::kDown;
    // Keep the breaker open forever so a stray poll() after stop() degrades
    // instead of respawning.
    shard.breaker_open_until = std::numeric_limits<double>::infinity();
  }
  started_ = false;
  refresh_state_metrics();
}

void Supervisor::tick() {
  std::lock_guard lock(mutex_);
  const double now = clock_->now();
  for (auto& [id, shard] : shards_) {
    switch (shard.state) {
      case ShardState::kUp: {
        if (runner_->exited(id)) {
          handle_death(shard, DeathCause::kWaitpid);
          break;
        }
        if (now - shard.last_heartbeat_ok >= config_.heartbeat_interval_s) {
          heartbeat_shard(shard);
        }
        if (shard.state == ShardState::kUp &&
            clock_->now() - shard.last_heartbeat_ok >
                config_.heartbeat_timeout_s) {
          handle_death(shard, DeathCause::kHeartbeatTimeout);
        }
        break;
      }
      case ShardState::kStarting:
      case ShardState::kBackoff:
        if (now >= shard.next_restart_time) {
          if (bring_up(shard)) {
            mark_up(shard);
          } else {
            handle_death(shard, DeathCause::kWaitpid);
          }
        }
        break;
      case ShardState::kDown:
        if (now >= shard.breaker_open_until) {
          // Half-open probe: one restart attempt; success fully closes the
          // breaker, failure re-opens it for another cooldown.
          if (bring_up(shard)) {
            close_breaker(shard);
          } else {
            shard.breaker_open_until =
                clock_->now() + config_.breaker_cooldown_s;
          }
        }
        break;
    }
  }
  resume_membership();
  maybe_checkpoint();
  refresh_state_metrics();
}

// ---------------------------------------------------------------------------
// Frontend

void Supervisor::ingest(const std::vector<sim::RssiReading>& readings,
                        std::uint64_t /*sequence*/,
                        const obs::TraceContext& /*ctx*/) {
  std::lock_guard lock(mutex_);
  if (readings.empty()) return;
  std::map<std::uint32_t, std::vector<sim::RssiReading>> parts;
  for (const sim::RssiReading& reading : readings) {
    if (is_reference(reading.tag)) {
      // Broadcast to active members only: a joining shard gets the reference
      // history with its seed, a draining one is already leaving the fleet.
      for (const auto& [id, shard] : shards_) {
        if (shard.phase == MemberPhase::kActive) parts[id].push_back(reading);
      }
    } else {
      parts[owner_of(reading.tag)].push_back(reading);
    }
  }
  // A shard's sub-batch must fit one kIngestSeq frame — encode_frame refuses
  // anything bigger, and an oversized entry in the op-log would make every
  // future replay (hence every bring_up) fail. Chunk the largest part's way,
  // one sequence per chunk index so acks stay a plain cursor.
  std::size_t chunks = 1;
  for (const auto& [id, sub] : parts) {
    chunks = std::max(
        chunks, (sub.size() + kMaxReadingsPerBatch - 1) / kMaxReadingsPerBatch);
  }
  const std::uint64_t base = ingest_seq_;
  ingest_seq_ += chunks;
  for (auto& [id, sub] : parts) {
    ManagedShard& shard = shards_.at(id);
    for (std::size_t off = 0; off < sub.size(); off += kMaxReadingsPerBatch) {
      const std::size_t len = std::min(kMaxReadingsPerBatch, sub.size() - off);
      OpEntry entry;
      entry.kind = OpEntry::Kind::kBatch;
      entry.sequence = base + 1 + off / kMaxReadingsPerBatch;
      entry.readings.assign(sub.begin() + static_cast<std::ptrdiff_t>(off),
                            sub.begin() + static_cast<std::ptrdiff_t>(off + len));
      if (journal_ != nullptr) {
        // Write-ahead: the batch is journaled before any delivery attempt,
        // so a supervisor killed mid-ingest still replays it on restart.
        entry.journal_seq =
            journal_->record_batch(id, entry.sequence, entry.readings);
      }
      const std::uint64_t sequence = entry.sequence;
      const std::vector<sim::RssiReading>& chunk = entry.readings;
      // Trace context is stamped UNCONDITIONALLY (same wire bytes whether
      // fleet tracing is on or off), so enabling tracing cannot perturb the
      // stream the shards see. The ingest stamp feeds the e2e histogram at
      // the poll that materializes this batch's fixes.
      const obs::TraceContext ctx{trace_id_for(sequence), sequence};
      if (shard.pending_batches.size() >= config_.oplog_capacity) {
        shard.pending_batches.erase(shard.pending_batches.begin());
      }
      shard.pending_batches.emplace(sequence, tracer_.now_us());
      if (shard.state != ShardState::kUp || shard.client == nullptr) {
        push_oplog(shard, std::move(entry));
        continue;  // journaled; delivered by replay() at the next revival
      }
      try {
        shard.client->stream_sequenced(sequence, ctx, chunk);
        push_oplog(shard, std::move(entry));
      } catch (const TransportError&) {
        // No inline restart on the ingest path: the op-log covers the batch,
        // and the next poll/tick revives the shard.
        push_oplog(shard, std::move(entry));
        handle_death(shard, DeathCause::kSocket);
      }
    }
  }
  maybe_checkpoint();
}

std::vector<engine::Fix> Supervisor::poll(sim::SimTime now,
                                          const obs::TraceContext& /*ctx*/) {
  std::lock_guard lock(mutex_);
  const obs::ScopedTimer timer(poll_seconds_);
  polls_total_->inc();
  const double poll_start_us = tracer_.now_us();
  const std::uint64_t poll_no = polls_total_->value();
  // Stamped on every shard poll like the ingest context: identical bytes
  // with tracing on or off.
  const obs::TraceContext poll_ctx{trace_id_for(~poll_no), poll_no};
  if (now > last_poll_time_) last_poll_time_ = now;  // migration horizon
  const auto poll_fn = [now, &poll_ctx](ServiceClient& c) {
    return c.poll(now, poll_ctx);
  };
  // Scatter: every reachable shard gets its poll before any reply is read,
  // so the shards' engines run at once and the fleet poll costs about the
  // slowest shard, not the sum. Each connection carries one outstanding
  // request; reviving a shard here talks to that shard alone.
  enum class Sent { kUnreachable, kFailed, kPending };
  std::vector<std::pair<ManagedShard*, Sent>> sent;
  for (auto& [id, shard] : shards_) {
    if (shard.phase != MemberPhase::kActive) continue;  // owns no tags
    Sent state = Sent::kUnreachable;
    if (try_revive(shard)) {
      try {
        shard.client->send_poll(now, poll_ctx);
        state = Sent::kPending;
      } catch (const TransportError&) {
        handle_death(shard, DeathCause::kSocket);
        state = Sent::kFailed;
      }
    }
    sent.emplace_back(&shard, state);
  }
  // Gather in id order. A transport failure spends the rest of the shard's
  // attempt budget serially; a refusal (kError) is held until every other
  // reply has been read, so no connection is left with a stale reply.
  std::vector<engine::Fix> merged;
  std::exception_ptr refused;
  for (auto [shard_ptr, state] : sent) {
    ManagedShard& shard = *shard_ptr;
    const std::uint32_t id = shard.id;
    std::optional<std::vector<engine::Fix>> fixes;
    try {
      if (state == Sent::kPending) {
        try {
          fixes = shard.client->receive_poll();
        } catch (const TransportError&) {
          handle_death(shard, DeathCause::kSocket);
          state = Sent::kFailed;
        }
      }
      if (state == Sent::kFailed) {
        fixes = with_shard(shard, poll_fn, /*first_attempt=*/1);
      }
    } catch (const std::exception&) {
      if (refused == nullptr) refused = std::current_exception();
      continue;
    }
    const double shard_end_us = tracer_.now_us();
    // E2E matching: a fix materialized by this poll covers every batch still
    // in flight for its shard, so its ingest-to-fix latency is measured from
    // the OLDEST pending stamp (worst case). A poll with nothing in flight
    // (no ingest since the last poll) degenerates to the poll duration.
    const double oldest_stamp_us = shard.pending_batches.empty()
                                       ? poll_start_us
                                       : shard.pending_batches.begin()->second;
    if (fixes.has_value()) {
      for (const engine::Fix& fix : *fixes) {
        latest_[fix.tag] = fix;
        observe_ingest_to_fix((shard_end_us - oldest_stamp_us) / 1e6);
      }
      merged.insert(merged.end(), fixes->begin(), fixes->end());
      if (tracer_.enabled()) {
        for (const auto& [sequence, stamp_us] : shard.pending_batches) {
          tracer_.complete(
              "supervisor.batch_e2e", stamp_us, shard_end_us,
              "{\"shard\":" + std::to_string(id) +
                  ",\"sequence\":" + std::to_string(sequence) +
                  ",\"trace_id\":" + std::to_string(trace_id_for(sequence)) +
                  "}");
        }
      }
      shard.pending_batches.clear();
      continue;
    }
    // Shard unreachable (breaker open / revival failed): journal the missed
    // poll so revival replays it, and answer its tags from last-known fixes.
    OpEntry entry;
    entry.kind = OpEntry::Kind::kPoll;
    entry.time = now;
    if (journal_ != nullptr) entry.journal_seq = journal_->record_poll(id, now);
    push_oplog(shard, std::move(entry));
    for (const auto& [tag, info] : tags_) {
      if (owner_of(tag) != id) continue;
      const auto it = latest_.find(tag);
      if (it == latest_.end()) continue;  // never fixed: nothing to hold
      engine::Fix held = it->second;
      held.age_s += now - held.time;
      held.time = now;
      held.valid = false;
      held.quality = engine::FixQuality::kHold;
      latest_[tag] = held;
      merged.push_back(held);
      held_fixes_->inc();
      // Held fixes are polled fixes too: the SLO histogram must record the
      // (still-growing) latency of batches stranded behind the dead shard.
      observe_ingest_to_fix((shard_end_us - oldest_stamp_us) / 1e6);
    }
  }
  if (refused != nullptr) std::rethrow_exception(refused);
  std::sort(merged.begin(), merged.end(),
            [](const engine::Fix& a, const engine::Fix& b) {
              return a.tag < b.tag;
            });
  maybe_checkpoint();
  return merged;
}

std::optional<engine::Fix> Supervisor::latest_fix(sim::TagId tag) const {
  std::lock_guard lock(mutex_);
  const auto it = latest_.find(tag);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Supervisor::explain_json(sim::TagId tag) {
  std::lock_guard lock(mutex_);
  const auto it = shards_.find(owner_of(tag));
  if (it == shards_.end()) return std::nullopt;
  auto result = with_shard(
      it->second, [tag](ServiceClient& c) { return c.explain(tag); });
  if (!result.has_value()) return std::nullopt;
  return *result;
}

std::string Supervisor::snapshot_prometheus() const {
  // Scraping mutates connection/supervision state; serialized by mutex_.
  auto* self = const_cast<Supervisor*>(this);
  std::lock_guard lock(self->mutex_);
  std::string out = obs::to_prometheus(metrics_);
  for (auto& [id, shard] : self->shards_) {
    if (shard.state != ShardState::kUp || shard.client == nullptr) continue;
    try {
      out += obs::relabel_prometheus(
          shard.client->snapshot_prometheus(),
          obs::label_pair("process", "shard-" + std::to_string(id)));
    } catch (const TransportError&) {
      self->handle_death(shard, DeathCause::kSocket);
    } catch (const std::exception&) {
      // kError response: skip this shard's scrape, keep the rest.
    }
  }
  return out;
}

std::string Supervisor::snapshot_json() const {
  // Fleet-health view: one document a dashboard can poll from the supervisor
  // socket alone — per-shard supervision state plus the supervisor registry.
  std::lock_guard lock(mutex_);
  const double now = clock_->now();
  std::string out = "{\"fleet\":{\"shards\":[";
  bool first = true;
  for (const auto& [id, shard] : shards_) {
    if (!first) out += ',';
    first = false;
    out += "{\"shard\":" + std::to_string(id);
    out += ",\"state\":\"" + std::string(to_string(shard.state)) + "\"";
    out += ",\"phase\":\"" + std::string(to_string(shard.phase)) + "\"";
    out += ",\"adopted\":";
    out += shard.adopted ? "true" : "false";
    out += ",\"pid\":" + std::to_string(runner_->pid(id));
    out += ",\"restart_count\":" + std::to_string(shard.restart_count);
    out += ",\"heartbeat_age_s\":" +
           obs::format_double(shard.last_heartbeat_ok > 0.0
                                  ? now - shard.last_heartbeat_ok
                                  : -1.0);
    out += ",\"last_ack\":" + std::to_string(shard.last_ack);
    out += ",\"oplog\":" + std::to_string(shard.oplog.size());
    out += ",\"pending_batches\":" + std::to_string(shard.pending_batches.size());
    out += ",\"breaker_open\":";
    out += (shard.state == ShardState::kDown &&
            clock_->now() < shard.breaker_open_until)
               ? "true"
               : "false";
    out += ",\"clock_offset_us\":" +
           (shard.offset.valid() ? obs::format_double(shard.offset.offset_us())
                                 : std::string("null"));
    out += ",\"clock_rtt_us\":" +
           (shard.offset.valid() ? obs::format_double(shard.offset.last_rtt_us())
                                 : std::string("null"));
    out += ",\"anomaly_dumps\":" + std::to_string(shard.anomaly_dumps);
    out += '}';
  }
  out += "],\"journal\":{\"enabled\":";
  out += journal_ != nullptr ? "true" : "false";
  if (journal_ != nullptr) {
    out += ",\"next_sequence\":" + std::to_string(journal_->next_sequence());
    out += ",\"since_checkpoint\":" +
           std::to_string(journal_->appends_since_checkpoint());
  }
  out += "},\"recovered\":";
  out += recovered_from_journal_ ? "true" : "false";
  out += "},\"metrics\":" + obs::to_json(metrics_) + "}";
  return out;
}

void Supervisor::set_reference_ids(std::vector<sim::TagId> ids) {
  std::lock_guard lock(mutex_);
  reference_ids_ = std::move(ids);
  if (journal_ != nullptr) journal_->record_set_reference(reference_ids_);
  for (auto& [id, shard] : shards_) {
    if (shard.state != ShardState::kUp || shard.client == nullptr) {
      continue;  // re-applied during bring_up()
    }
    try {
      shard.client->set_reference_ids(reference_ids_);
    } catch (const TransportError&) {
      handle_death(shard, DeathCause::kSocket);
    }
  }
}

void Supervisor::track(sim::TagId tag, std::string name,
                       std::optional<std::uint32_t> zone) {
  std::lock_guard lock(mutex_);
  TrackedTag& info = tags_[tag];
  info.name = std::move(name);
  info.zone = zone;
  if (journal_ != nullptr) journal_->record_track(tag, info.name, info.zone);
  ManagedShard& shard = shards_.at(owner_of(tag));
  if (shard.state != ShardState::kUp || shard.client == nullptr) return;
  try {
    shard.client->track(TrackRequest{tag, info.name, info.zone});
  } catch (const TransportError&) {
    handle_death(shard, DeathCause::kSocket);
  }
}

HeartbeatInfo Supervisor::heartbeat() {
  std::lock_guard lock(mutex_);
  HeartbeatInfo info;
  info.wal_next_sequence = ingest_seq_ + 1;
  info.mono_now_us = tracer_.now_us();
  std::uint64_t min_ack = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (const auto& [id, shard] : shards_) {
    // Joining members have acked nothing yet and draining members are on
    // their way out: neither may drag the fleet durability cursor to zero.
    if (shard.phase != MemberPhase::kActive) continue;
    any = true;
    min_ack = std::min(min_ack, shard.last_ack);
    info.anomaly_dumps += shard.anomaly_dumps;
  }
  info.last_ack_sequence = any ? min_ack : 0;
  return info;
}

// ---------------------------------------------------------------------------
// Fleet tracing / provenance

std::uint64_t Supervisor::trace_id_for(std::uint64_t sequence) const {
  // Deterministic per (seed, sequence) so retries and the tracing-off path
  // stamp identical wire bytes; |1 keeps the id nonzero (zero = "no trace").
  std::uint64_t state = config_.seed ^ (sequence * 0x9e3779b97f4a7c15ULL) ^
                        0x5649524551ULL;  // "VIREQ"
  return support::splitmix64(state) | 1;
}

void Supervisor::observe_ingest_to_fix(double latency_s) {
  ingest_to_fix_seconds_->observe(latency_s);
  if (config_.ingest_to_fix_slo_s > 0.0 &&
      latency_s > config_.ingest_to_fix_slo_s) {
    slo_burn_->inc();
  }
}

obs::TraceDump Supervisor::trace_dump(std::size_t max_events) {
  std::lock_guard lock(mutex_);
  return tracer_.dump(max_events);
}

std::optional<std::string> Supervisor::provenance_json() {
  std::lock_guard lock(mutex_);
  std::string out = "{\"fleet\":[";
  bool first = true;
  for (auto& [id, shard] : shards_) {
    if (shard.state != ShardState::kUp || shard.client == nullptr) continue;
    try {
      auto prov = shard.client->provenance();
      if (!prov.has_value()) continue;  // shard has no recorded fixes yet
      if (!first) out += ',';
      first = false;
      out += "{\"shard\":" + std::to_string(id) + ",\"provenance\":" + *prov +
             "}";
    } catch (const TransportError&) {
      handle_death(shard, DeathCause::kSocket);
    } catch (const std::exception&) {
      // kError response: skip this shard, keep the rest of the fleet.
    }
  }
  out += "]}";
  if (first) return std::nullopt;  // no shard had anything to report
  return out;
}

std::string Supervisor::fleet_trace_json() {
  std::lock_guard lock(mutex_);
  std::vector<obs::FleetProcess> processes;
  processes.push_back(
      obs::FleetProcess{1, "vire-supervisord", tracer_.dump(0)});
  for (auto& [id, shard] : shards_) {
    if (shard.state != ShardState::kUp || shard.client == nullptr) continue;
    try {
      obs::TraceDump dump = shard.client->trace_dump(
          static_cast<std::uint32_t>(config_.trace_pull_events));
      // Rebase the shard's monotonic clock onto the supervisor's so spans
      // from different processes nest on one timeline.
      if (shard.offset.valid()) obs::rebase(dump, shard.offset.offset_us());
      processes.push_back(obs::FleetProcess{
          id + 2, "vire-shardd-" + std::to_string(id), std::move(dump)});
    } catch (const TransportError&) {
      handle_death(shard, DeathCause::kSocket);
    } catch (const std::exception&) {
      // kError response (e.g. tracing disabled shard-side): skip it.
    }
  }
  return obs::fleet_chrome_json(processes);
}

void Supervisor::write_fleet_trace(const std::filesystem::path& path) {
  const std::string json = fleet_trace_json();
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("vire: cannot open trace file " + path.string());
  }
  out << json;
}

// ---------------------------------------------------------------------------
// Introspection

ShardState Supervisor::shard_state(std::uint32_t shard) const {
  std::lock_guard lock(mutex_);
  return shards_.at(shard).state;
}

pid_t Supervisor::shard_pid(std::uint32_t shard) const {
  std::lock_guard lock(mutex_);
  return runner_->pid(shards_.at(shard).id);
}

std::uint64_t Supervisor::restarts() const noexcept {
  return restarts_total_->value();
}

std::size_t Supervisor::shard_count() const {
  std::lock_guard lock(mutex_);
  return shards_.size();
}

MemberPhase Supervisor::member_phase(std::uint32_t shard) const {
  std::lock_guard lock(mutex_);
  return shards_.at(shard).phase;
}

bool Supervisor::shard_adopted(std::uint32_t shard) const {
  std::lock_guard lock(mutex_);
  return shards_.at(shard).adopted;
}

void Supervisor::checkpoint_now() {
  std::lock_guard lock(mutex_);
  write_control_checkpoint();
}

// ---------------------------------------------------------------------------
// Routing

std::uint32_t Supervisor::owner_of(sim::TagId tag) const {
  const auto it = tags_.find(tag);
  return router_.route(tag,
                       it != tags_.end() ? it->second.zone : std::nullopt);
}

bool Supervisor::is_reference(sim::TagId tag) const {
  return std::find(reference_ids_.begin(), reference_ids_.end(), tag) !=
         reference_ids_.end();
}

// ---------------------------------------------------------------------------
// Process lifecycle

Supervisor::ManagedShard Supervisor::make_shard(std::uint32_t id) {
  ManagedShard shard;
  shard.id = id;
  shard.socket = config_.root_dir / ("shard-" + std::to_string(id) + ".sock");
  shard.data_dir = config_.root_dir / ("shard-" + std::to_string(id));
  ensure_shard_metrics(id);
  return shard;
}

void Supervisor::ensure_shard_metrics(std::uint32_t id) {
  // Lazy: shards can now join at runtime, so per-shard families are created
  // on first sight of an id instead of once in the constructor.
  if (rtt_seconds_.count(id) != 0) return;
  const auto label = obs::label_pair("shard", std::to_string(id));
  rtt_seconds_[id] = &metrics_.histogram(
      "vire_fleet_shard_rtt_seconds", obs::default_latency_buckets_s(), label,
      "Supervisor->shard heartbeat wire round-trip time");
  anomaly_dumps_total_[id] = &metrics_.counter(
      "vire_supervisor_shard_anomaly_dumps_total", label,
      "Anomaly auto-dumps reported by shards in heartbeat acks");
  clock_offset_gauges_[id] = &metrics_.gauge(
      "vire_fleet_shard_clock_offset_us", label,
      "Estimated shard trace-clock offset vs the supervisor (µs)");
}

ShardLaunch Supervisor::launch_for(const ManagedShard& shard) const {
  ShardLaunch launch;
  launch.id = shard.id;
  launch.socket = shard.socket;
  launch.data_dir = shard.data_dir;
  launch.engine_workers = config_.engine_workers;
  launch.middleware_window_s = config_.middleware_window_s;
  launch.checkpoint_every_updates = config_.checkpoint_every_updates;
  launch.trace = config_.fleet_tracing;
  return launch;
}

std::unique_ptr<ServiceClient> Supervisor::connect(
    const ManagedShard& shard) const {
  ClientConfig cc;
  cc.read_timeout_s = config_.request_timeout_s;
  cc.peer_name = "supervisor";
  return std::make_unique<ServiceClient>(shard.socket, cc);
}

bool Supervisor::try_adopt(ManagedShard& shard, const ShardLaunch& launch) {
  if (!runner_->adopt(launch)) return false;
  try {
    shard.client = connect(shard);
  } catch (const TransportError&) {
    // Alive but not serving (wedged orphan): clear it so a fresh start owns
    // the socket path again.
    runner_->kill(shard.id);
    return false;
  }
  shard.adopted = true;
  adoptions_total_->inc();
  tracer_.instant("supervisor.adopt",
                  "{\"shard\":" + std::to_string(shard.id) + ",\"pid\":" +
                      std::to_string(runner_->pid(shard.id)) + "}");
  return true;
}

void Supervisor::release(ManagedShard& shard, bool graceful) noexcept {
  shard.client.reset();
  if (graceful) {
    runner_->stop(shard.id);
  } else {
    runner_->kill(shard.id);
  }
  shard.adopted = false;
}

bool Supervisor::bring_up(ManagedShard& shard) {
  const obs::TraceSpan span(&tracer_, "supervisor.bring_up",
                            shard_json(shard.id));
  shard.client.reset();
  // Adoption first: a previous incarnation's shard may still be running
  // over this shard's data. Re-attaching keeps its warm engine state AND
  // its WAL exactly where the old supervisor left them.
  const ShardLaunch launch = launch_for(shard);
  if (!try_adopt(shard, launch)) {
    release(shard, /*graceful=*/false);  // no-op when already gone
    if (!runner_->start(launch)) return false;
    tracer_.instant("supervisor.spawn",
                    "{\"shard\":" + std::to_string(shard.id) + ",\"pid\":" +
                        std::to_string(runner_->pid(shard.id)) + "}");
    const double deadline = clock_->now() + config_.spawn_wait_s;
    for (;;) {
      if (runner_->exited(shard.id)) {
        return false;  // died before serving (e.g. --abort-on-start)
      }
      try {
        shard.client = connect(shard);
        break;
      } catch (const TransportError&) {
        if (clock_->now() >= deadline) {
          release(shard, /*graceful=*/false);
          return false;
        }
        clock_->sleep_for(config_.connect_retry_s);
      }
    }
  }

  try {
    // Registration before recovery: the shard needs its reference grid and
    // tracked tags in place before the WAL replays through normal ingest.
    if (!reference_ids_.empty()) {
      shard.client->set_reference_ids(reference_ids_);
    }
    for (const auto& [tag, info] : tags_) {
      if (owner_of(tag) != shard.id) continue;
      shard.client->track(TrackRequest{tag, info.name, info.zone});
    }
    observe_ack(shard, shard.client->recover_now());
    replay(shard);
  } catch (const std::exception&) {
    release(shard, /*graceful=*/false);
    return false;
  }
  return true;
}

void Supervisor::replay(ManagedShard& shard) {
  const obs::TraceSpan span(&tracer_, "supervisor.replay",
                            shard_json(shard.id));
  if (shard.oplog_overflow && journal_ != nullptr) {
    // Capacity overflow evicted journal-backed entries (push_oplog): rebuild
    // the full un-acked suffix from the journal instead of replaying a
    // truncated one. overflow_floor kept the needed records from pruning.
    std::deque<OpEntry> rebuilt;
    for (auto& op : journal_->collect_oplog(shard.id, shard.last_ack,
                                            shard.polls_done)) {
      OpEntry entry;
      entry.journal_seq = op.journal_sequence;
      if (op.kind == JournaledOp::Kind::kBatch) {
        entry.kind = OpEntry::Kind::kBatch;
        entry.sequence = op.batch_sequence;
        entry.readings = std::move(op.readings);
      } else {
        entry.kind = OpEntry::Kind::kPoll;
        entry.time = op.time;
      }
      rebuilt.push_back(std::move(entry));
    }
    shard.oplog = std::move(rebuilt);
    shard.oplog_overflow = false;
    shard.overflow_floor = 0;
  }
  std::uint64_t polls_done = shard.polls_done;
  for (auto it = shard.oplog.begin(); it != shard.oplog.end();) {
    if (it->kind == OpEntry::Kind::kBatch) {
      if (it->sequence > shard.last_ack) {
        shard.client->stream_sequenced(it->sequence, it->readings);
        replayed_batches_->inc();
        replayed_readings_->inc(it->readings.size());
      }
      ++it;  // trimmed below once the shard acks it durably
    } else {
      // A poll the shard never saw: execute it now so the shard's engine
      // state advances through the same update sequence as the original
      // timeline (its WAL gate substitutes any updates it already journaled).
      try {
        const std::vector<engine::Fix> fixes = shard.client->poll(it->time);
        for (const engine::Fix& fix : fixes) latest_[fix.tag] = fix;
        replayed_polls_->inc();
      } catch (const TransportError&) {
        throw;  // shard died mid-replay: bring_up fails and reschedules
      } catch (const std::exception&) {
        // kError: the shard is alive but REFUSED this poll (e.g. polled
        // before set_reference_ids). A healthy engine would have refused
        // the original identically, so dropping it cannot diverge the
        // timeline — keeping it would crash-loop bring_up forever.
      }
      if (it->journal_seq > polls_done) polls_done = it->journal_seq;
      it = shard.oplog.erase(it);
    }
  }
  if (polls_done > shard.polls_done) {
    // Journaled polls are NOT idempotent the way batches are (no shard-side
    // sequence gate): mark them executed so a later recovery replays only
    // polls this incarnation never delivered.
    shard.polls_done = polls_done;
    if (journal_ != nullptr) {
      journal_->record_polls_done(shard.id, polls_done);
    }
  }
  // Heartbeat forces the shard to drain its queue and journal the replayed
  // suffix before we declare it up; the ack lets us trim the op-log.
  const HeartbeatAck ack = shard.client->heartbeat(++shard.heartbeat_seq);
  observe_ack(shard, ack.last_ack_sequence);
  trim_oplog(shard);
}

void Supervisor::observe_ack(ManagedShard& shard, std::uint64_t ack) {
  shard.last_ack = ack;
  if (ack > ingest_seq_) ingest_seq_ = ack;
}

void Supervisor::push_oplog(ManagedShard& shard, OpEntry entry) {
  if (shard.oplog.size() >= config_.oplog_capacity) {
    OpEntry& victim = shard.oplog.front();
    if (journal_ != nullptr && victim.journal_seq != 0) {
      // The evicted entry survives in the control journal: mark the shard
      // for a journal-backed op-log rebuild at its next bring-up (replay())
      // instead of silently losing replayable history. overflow_floor pins
      // the checkpoint floor so the suffix is not pruned meanwhile.
      if (shard.overflow_floor == 0 ||
          victim.journal_seq < shard.overflow_floor) {
        shard.overflow_floor = victim.journal_seq;
      }
      if (!shard.oplog_overflow) {
        shard.oplog_overflow = true;
        oplog_overflow_->inc();
        tracer_.instant("supervisor.oplog_overflow", shard_json(shard.id),
                        'g');
      }
    } else {
      // No journal to rebuild from: this entry really is gone.
      oplog_dropped_->inc();
    }
    shard.oplog.pop_front();
  }
  shard.oplog.push_back(std::move(entry));
}

void Supervisor::trim_oplog(ManagedShard& shard) {
  const std::uint64_t ack = shard.last_ack;
  shard.oplog.erase(
      std::remove_if(shard.oplog.begin(), shard.oplog.end(),
                     [ack](const OpEntry& e) {
                       return e.kind == OpEntry::Kind::kBatch &&
                              e.sequence <= ack;
                     }),
      shard.oplog.end());
}

void Supervisor::handle_death(ManagedShard& shard, DeathCause cause) {
  deaths_total_[static_cast<std::size_t>(cause)]->inc();
  tracer_.instant("supervisor.shard_death",
                  "{\"shard\":" + std::to_string(shard.id) + ",\"cause\":\"" +
                      std::string(to_string(cause)) + "\"}",
                  'g');
  release(shard, /*graceful=*/false);  // a wedged-but-alive shard must not linger
  const double now = clock_->now();
  shard.death_times.push_back(now);
  while (!shard.death_times.empty() &&
         shard.death_times.front() + config_.breaker_window_s < now) {
    shard.death_times.pop_front();
  }
  if (static_cast<int>(shard.death_times.size()) >=
      config_.breaker_max_deaths) {
    shard.state = ShardState::kDown;
    shard.breaker_open_until = now + config_.breaker_cooldown_s;
    breaker_open_total_->inc();
    if (journal_ != nullptr) journal_->record_breaker(shard.id, true);
    tracer_.instant("supervisor.breaker_open", shard_json(shard.id), 'g');
  } else {
    shard.state = ShardState::kBackoff;
    shard.next_restart_time = now + backoff_delay(shard);
    ++shard.restart_count;
  }
  refresh_state_metrics();
}

bool Supervisor::try_revive(ManagedShard& shard) {
  if (shard.state == ShardState::kUp) return true;
  if (shard.state == ShardState::kDown) {
    if (clock_->now() < shard.breaker_open_until) return false;
    if (bring_up(shard)) {
      close_breaker(shard);
      return true;
    }
    shard.breaker_open_until = clock_->now() + config_.breaker_cooldown_s;
    refresh_state_metrics();
    return false;
  }
  // kStarting / kBackoff: wait out a *short* scheduled backoff, then restart.
  // A longer backoff is left to tick() — sleeping it out here would block the
  // event-loop thread (mutex_ held) for every other connection.
  const double wait = shard.next_restart_time - clock_->now();
  if (wait > config_.inline_revival_max_wait_s) return false;
  if (wait > 0.0) clock_->sleep_for(wait);
  if (bring_up(shard)) {
    mark_up(shard);
    return true;
  }
  handle_death(shard, DeathCause::kWaitpid);
  return false;
}

void Supervisor::close_breaker(ManagedShard& shard) {
  shard.death_times.clear();
  shard.restart_count = 0;
  if (journal_ != nullptr) journal_->record_breaker(shard.id, false);
  mark_up(shard);
}

void Supervisor::mark_up(ManagedShard& shard) {
  shard.state = ShardState::kUp;
  const double now = clock_->now();
  shard.up_since = now;
  shard.last_heartbeat_ok = now;
  // A restarted process is a fresh clock epoch and a fresh dump counter:
  // mixing pre-restart offset samples would corrupt the rebase.
  shard.offset.reset();
  shard.anomaly_dumps = 0;
  // A joining shard's first bring-up is an arrival, not a restart.
  if (started_ && shard.phase != MemberPhase::kJoining) restarts_total_->inc();
  tracer_.instant("supervisor.shard_up", shard_json(shard.id), 'g');
  refresh_state_metrics();
}

double Supervisor::backoff_delay(const ManagedShard& shard) const {
  double delay = config_.restart_backoff_initial_s;
  for (int i = 0; i < shard.restart_count; ++i) {
    delay = std::min(delay * config_.restart_backoff_multiplier,
                     config_.restart_backoff_max_s);
  }
  // Deterministic jitter: same (seed, shard, restart#) -> same delay, so
  // drills and the restart-storm test are reproducible.
  std::uint64_t state = config_.seed ^
                        (static_cast<std::uint64_t>(shard.id) << 32) ^
                        (static_cast<std::uint64_t>(shard.restart_count) +
                         0x9e3779b97f4a7c15ULL);
  const double unit =
      static_cast<double>(support::splitmix64(state) >> 11) * 0x1.0p-53;
  return delay * (1.0 + config_.restart_jitter_frac * (2.0 * unit - 1.0));
}

void Supervisor::heartbeat_shard(ManagedShard& shard) {
  try {
    const double t0_us = tracer_.now_us();
    const HeartbeatAck ack = shard.client->heartbeat(++shard.heartbeat_seq);
    const double t1_us = tracer_.now_us();
    heartbeats_total_->inc();
    rtt_seconds_[shard.id]->observe((t1_us - t0_us) / 1e6);
    if (ack.mono_now_us > 0.0) {
      // NTP-style midpoint: the shard stamped its clock roughly halfway
      // through the round trip.  EWMA smoothing lives in the estimator.
      shard.offset.observe(t0_us, t1_us, ack.mono_now_us);
      clock_offset_gauges_[shard.id]->set(shard.offset.offset_us());
    }
    if (ack.anomaly_dumps > shard.anomaly_dumps) {
      anomaly_dumps_total_[shard.id]->inc(ack.anomaly_dumps -
                                          shard.anomaly_dumps);
    }
    shard.anomaly_dumps = ack.anomaly_dumps;
    observe_ack(shard, ack.last_ack_sequence);
    trim_oplog(shard);
    shard.last_heartbeat_ok = clock_->now();
    if (clock_->now() - shard.up_since >= config_.backoff_reset_after_s) {
      shard.restart_count = 0;  // stable for a while: forgive old crashes
    }
  } catch (const TimeoutError&) {
    handle_death(shard, DeathCause::kHeartbeatTimeout);
  } catch (const TransportError&) {
    handle_death(shard, DeathCause::kSocket);
  } catch (const std::exception&) {
    // kError response: the shard is alive but refused the probe; the
    // staleness detector in tick() escalates if this persists.
  }
}

// ---------------------------------------------------------------------------
// Durable control plane

ControlCheckpoint Supervisor::build_checkpoint() const {
  ControlCheckpoint state;
  std::uint64_t floor = journal_->next_sequence();
  for (const auto& [id, shard] : shards_) {
    for (const auto& entry : shard.oplog) {
      if (entry.journal_seq != 0) floor = std::min(floor, entry.journal_seq);
    }
    if (shard.oplog_overflow && shard.overflow_floor != 0) {
      floor = std::min(floor, shard.overflow_floor);
    }
  }
  state.journal_floor = floor;
  state.ingest_sequence = ingest_seq_;
  state.next_shard_id = next_shard_id_;
  state.last_poll_time = last_poll_time_;
  for (const auto& [id, shard] : shards_) {
    ControlCheckpoint::Member member;
    member.id = id;
    member.phase = shard.phase;
    member.last_ack = shard.last_ack;
    member.breaker_open = shard.state == ShardState::kDown;
    member.polls_done = shard.polls_done;
    state.members.push_back(member);
  }
  state.reference_ids = reference_ids_;
  for (const auto& [tag, info] : tags_) {
    state.tags.push_back(ControlCheckpoint::Tag{tag, info.name, info.zone});
  }
  for (const auto& [tag, fix] : latest_) state.latest.push_back(fix);
  return state;
}

void Supervisor::write_control_checkpoint() {
  if (journal_ == nullptr) return;
  const obs::TraceSpan span(&tracer_, "supervisor.journal_checkpoint");
  journal_->checkpoint(build_checkpoint());
}

void Supervisor::maybe_checkpoint() {
  if (journal_ == nullptr) return;
  if (journal_->appends_since_checkpoint() <
      config_.journal_checkpoint_every_ops) {
    return;
  }
  write_control_checkpoint();
}

void Supervisor::drain_and_checkpoint() {
  if (journal_ == nullptr) return;
  for (auto& [id, shard] : shards_) {
    if (shard.state != ShardState::kUp || shard.client == nullptr) continue;
    try {
      const HeartbeatAck ack = shard.client->heartbeat(++shard.heartbeat_seq);
      observe_ack(shard, ack.last_ack_sequence);
      trim_oplog(shard);
    } catch (const std::exception&) {
      // Dead mid-shutdown: its un-acked suffix stays journaled for replay.
    }
  }
  write_control_checkpoint();
}

// ---------------------------------------------------------------------------
// Elastic membership

std::uint64_t Supervisor::admin_add_shard() {
  std::lock_guard lock(mutex_);
  if (!started_) {
    throw std::runtime_error("add_shard: supervisor is not started");
  }
  const std::uint32_t id = next_shard_id_++;
  // Journal the intent first: a supervisor killed mid-join resumes it.
  if (journal_ != nullptr) journal_->record_add_shard(id);
  ManagedShard fresh = make_shard(id);
  fresh.phase = MemberPhase::kJoining;
  auto [it, inserted] = shards_.emplace(id, std::move(fresh));
  ManagedShard& shard = it->second;
  if (!bring_up(shard)) {
    // Roll the membership record back — an id is cheap, a permanently
    // joining ghost member is not.
    if (journal_ != nullptr) journal_->record_remove_shard(id);
    shards_.erase(it);
    refresh_state_metrics();
    throw std::runtime_error("add_shard: new shard process failed to start");
  }
  mark_up(shard);
  complete_join(shard);
  maybe_checkpoint();
  refresh_state_metrics();
  return id;
}

std::uint64_t Supervisor::admin_remove_shard(std::uint32_t id) {
  std::lock_guard lock(mutex_);
  const auto it = shards_.find(id);
  if (it == shards_.end()) {
    throw std::invalid_argument("remove_shard: unknown shard " +
                                std::to_string(id));
  }
  ManagedShard& shard = it->second;
  if (shard.phase == MemberPhase::kJoining) {
    throw std::runtime_error("remove_shard: shard is still joining");
  }
  bool was_active = shard.phase == MemberPhase::kActive;
  if (was_active) {
    std::size_t active = 0;
    for (const auto& [sid, s] : shards_) {
      if (s.phase == MemberPhase::kActive) ++active;
    }
    if (active <= 1) {
      throw std::runtime_error("remove_shard: cannot remove the last active "
                               "shard");
    }
    // The drain needs the source's WAL complete: revive it (replaying any
    // un-acked suffix) before committing to the removal.
    if (!try_revive(shard)) {
      throw std::runtime_error("remove_shard: shard " + std::to_string(id) +
                               " is unreachable; retry once it revives");
    }
    if (journal_ != nullptr) journal_->record_shard_draining(id);
    shard.phase = MemberPhase::kDraining;
  }
  const std::uint64_t moved = drain_shard(shard, /*in_router=*/was_active);
  release(shard, /*graceful=*/true);
  if (journal_ != nullptr) journal_->record_remove_shard(id);
  shards_.erase(it);
  membership_changes_remove_->inc();
  membership_moved_tags_->inc(moved);
  tracer_.instant("supervisor.shard_removed", shard_json(id), 'g');
  maybe_checkpoint();
  refresh_state_metrics();
  return moved;
}

void Supervisor::complete_join(ManagedShard& fresh) {
  const obs::TraceSpan span(&tracer_, "supervisor.join", shard_json(fresh.id));
  // Pre-insert owners: only tags whose route changes get migrated.
  std::map<sim::TagId, std::uint32_t> old_owner;
  for (const auto& [tag, info] : tags_) {
    if (is_reference(tag)) continue;
    old_owner[tag] = owner_of(tag);
  }
  // Seed the newcomer with the fleet's broadcast state (reference tags,
  // reader health, grids) from any reachable active donor, so its engine
  // computes from the same history as everyone else's.
  for (auto& [donor_id, donor] : shards_) {
    if (donor_id == fresh.id || donor.phase != MemberPhase::kActive) continue;
    if (!try_revive(donor)) continue;
    const SeedState seed = donor.client->seed_export();
    fresh.client->seed_import(seed);
    break;
  }
  router_.add_shard(fresh.id);
  std::uint64_t moved = 0;
  for (const auto& [tag, owner] : old_owner) {
    const std::uint32_t now_owner = owner_of(tag);
    if (now_owner == owner) continue;
    migrate_tag_cross(tag, owner, now_owner);
    ++moved;
  }
  if (journal_ != nullptr) journal_->record_shard_active(fresh.id);
  fresh.phase = MemberPhase::kActive;
  membership_changes_add_->inc();
  membership_moved_tags_->inc(moved);
  tracer_.instant("supervisor.shard_joined", shard_json(fresh.id), 'g');
}

std::uint64_t Supervisor::drain_shard(ManagedShard& shard, bool in_router) {
  const obs::TraceSpan span(&tracer_, "supervisor.drain", shard_json(shard.id));
  // Owners as routed WITH the draining shard present, vs without: a resumed
  // drain (supervisor restarted mid-removal) rebuilt the router without it,
  // so re-insert temporarily to recompute what it used to own.
  if (!in_router) router_.add_shard(shard.id);
  std::map<sim::TagId, std::uint32_t> old_owner;
  for (const auto& [tag, info] : tags_) {
    if (is_reference(tag)) continue;
    old_owner[tag] = owner_of(tag);
  }
  router_.remove_shard(shard.id);
  std::uint64_t moved = 0;
  for (const auto& [tag, owner] : old_owner) {
    const std::uint32_t now_owner = owner_of(tag);
    if (now_owner == owner) continue;
    migrate_tag_cross(tag, owner, now_owner);
    ++moved;
  }
  return moved;
}

void Supervisor::resume_membership() {
  std::vector<std::uint32_t> pending;
  for (const auto& [id, shard] : shards_) {
    if (shard.phase != MemberPhase::kActive &&
        shard.state == ShardState::kUp) {
      pending.push_back(id);
    }
  }
  for (const std::uint32_t id : pending) {
    const auto it = shards_.find(id);
    if (it == shards_.end()) continue;
    ManagedShard& shard = it->second;
    try {
      if (shard.phase == MemberPhase::kJoining) {
        complete_join(shard);
      } else if (shard.phase == MemberPhase::kDraining) {
        const std::uint64_t moved = drain_shard(shard, /*in_router=*/false);
        release(shard, /*graceful=*/true);
        if (journal_ != nullptr) journal_->record_remove_shard(id);
        shards_.erase(it);
        membership_changes_remove_->inc();
        membership_moved_tags_->inc(moved);
        tracer_.instant("supervisor.shard_removed", shard_json(id), 'g');
      }
    } catch (const std::exception&) {
      // A peer this change depends on is unreachable right now; the phase is
      // journaled, so the next tick retries the completion.
    }
  }
}

void Supervisor::migrate_tag_cross(sim::TagId tag, std::uint32_t from_id,
                                   std::uint32_t to_id) {
  const obs::TraceSpan span(
      &tracer_, "supervisor.migrate_tag",
      "{\"tag\":" + std::to_string(tag) + ",\"from\":" +
          std::to_string(from_id) + ",\"to\":" + std::to_string(to_id) + "}");
  const TrackedTag& info = tags_.at(tag);
  ManagedShard& dest = shards_.at(to_id);
  std::optional<engine::TagStateSnapshot> state;
  std::vector<sim::RssiReading> readings;
  const auto from_it = shards_.find(from_id);
  if (from_it != shards_.end()) {
    ManagedShard& source = from_it->second;
    if (source.state == ShardState::kUp && source.client != nullptr) {
      try {
        // Flush the source first so its WAL covers everything delivered,
        // then export (+untrack) the per-tag tracker state.
        const HeartbeatAck ack =
            source.client->heartbeat(++source.heartbeat_seq);
        observe_ack(source, ack.last_ack_sequence);
        trim_oplog(source);
        state = source.client->export_tag_state(tag);
      } catch (const TransportError&) {
        handle_death(source, DeathCause::kSocket);
      } catch (const std::exception&) {
        // kError: the source no longer tracks the tag (e.g. a migration
        // interrupted by a supervisor crash already exported it).
      }
    }
    readings = migration_readings_cross(source, tag);
  }
  if (!state.has_value()) {
    // Source dead or already exported: the tag restarts from a fresh tracker
    // at the destination; its RSSI window still re-feeds from the WAL below.
    engine::TagStateSnapshot fallback;
    fallback.name = info.name;
    state = fallback;
  }
  if (!try_revive(dest)) {
    throw std::runtime_error("migrate: destination shard " +
                             std::to_string(to_id) + " is unreachable");
  }
  // Re-feed the moved tag's WAL suffix through the destination's NORMAL
  // ingest path (journaled into its WAL like any live reading), then land
  // the exported state on top.
  for (std::size_t off = 0; off < readings.size();
       off += kMaxReadingsPerBatch) {
    const std::size_t len =
        std::min(kMaxReadingsPerBatch, readings.size() - off);
    dest.client->stream(std::vector<sim::RssiReading>(
        readings.begin() + static_cast<std::ptrdiff_t>(off),
        readings.begin() + static_cast<std::ptrdiff_t>(off + len)));
  }
  dest.client->import_tag_state(tag, info.zone, *state);
  membership_replayed_readings_->inc(readings.size());
}

std::vector<sim::RssiReading> Supervisor::migration_readings_cross(
    const ManagedShard& source, sim::TagId tag) const {
  // The tag's journaled suffix still inside the middleware window (strictly
  // after the horizon, the middleware's own eviction rule), so the re-fed
  // set is exactly the source's buffer. A shard is a one-engine
  // ShardedService, so its WAL lives under <data_dir>/shard-0/wal.
  const double horizon = last_poll_time_ - config_.middleware_window_s;
  auto readings =
      persist::wal_tag_window(source.data_dir / "shard-0" / "wal", tag, horizon);
  // Un-acked batches never reached the source's WAL; their readings live
  // only in our op-log. Append them after the WAL suffix (they are newer
  // than every acked reading by construction).
  for (const auto& entry : source.oplog) {
    if (entry.kind != OpEntry::Kind::kBatch) continue;
    if (entry.sequence <= source.last_ack) continue;
    for (const auto& reading : entry.readings) {
      if (reading.tag == tag && reading.time > horizon) {
        readings.push_back(reading);
      }
    }
  }
  return readings;
}

void Supervisor::refresh_state_metrics() {
  std::size_t counts[4] = {};
  for (const auto& [id, shard] : shards_) {
    counts[static_cast<std::size_t>(shard.state)]++;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    state_gauges_[i]->set(static_cast<double>(counts[i]));
  }
}

template <typename Fn>
auto Supervisor::with_shard(ManagedShard& shard, Fn fn, int first_attempt)
    -> std::optional<decltype(fn(std::declval<ServiceClient&>()))> {
  for (int attempt = first_attempt; attempt <= config_.request_retries;
       ++attempt) {
    if (!try_revive(shard)) return std::nullopt;
    try {
      return fn(*shard.client);
    } catch (const TransportError&) {
      handle_death(shard, DeathCause::kSocket);
    }
    // Non-transport errors (kError responses) propagate to the caller:
    // retrying a request the shard rejected would not change the answer.
  }
  return std::nullopt;
}

}  // namespace vire::service
