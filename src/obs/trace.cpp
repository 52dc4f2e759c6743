#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace vire::obs {

namespace {

/// Process-wide small thread ids: stable per OS thread, dense enough for a
/// readable trace. Shared across tracers so one thread keeps one id.
std::uint32_t current_thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Plain decimal with enough precision for microsecond timestamps; never
/// scientific (Chrome's JSON parser accepts it, but humans diff traces).
std::string fixed_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(std::max<std::size_t>(1, capacity)) {}

std::uint32_t Tracer::thread_id() { return current_thread_id(); }

void Tracer::push(TraceEvent event) {
  std::lock_guard lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.reserve(capacity_);  // allocates at the first event only
    ring_.push_back(std::move(event));
  } else {
    ring_[head_ % capacity_] = std::move(event);
  }
  ++head_;
}

void Tracer::complete(std::string name, double start_us, double end_us,
                      std::string args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.ph = 'X';
  event.ts_us = start_us;
  event.dur_us = std::max(0.0, end_us - start_us);
  event.tid = current_thread_id();
  event.args = std::move(args);
  push(std::move(event));
}

void Tracer::instant(std::string name, std::string args, char scope) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.ph = 'i';
  event.scope = scope;
  event.ts_us = now_us();
  event.tid = current_thread_id();
  event.args = std::move(args);
  push(std::move(event));
}

void Tracer::set_thread_name(std::string name) {
  const std::uint32_t tid = current_thread_id();
  std::lock_guard lock(mutex_);
  for (auto& [known_tid, known_name] : thread_names_) {
    if (known_tid == tid) {
      known_name = std::move(name);
      return;
    }
  }
  thread_names_.emplace_back(tid, std::move(name));
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard lock(mutex_);
  const std::size_t count = ring_.size();
  std::vector<TraceEvent> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(ring_[(head_ - count + i) % capacity_]);
  }
  return out;
}

TraceDump Tracer::dump(std::size_t max_events) const {
  TraceDump out;
  out.events = snapshot();
  if (max_events != 0 && out.events.size() > max_events) {
    out.events.erase(out.events.begin(),
                     out.events.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  {
    std::lock_guard lock(mutex_);
    out.thread_names = thread_names_;
  }
  // Stamp the clock last so now_us covers the snapshot work itself: every
  // exported timestamp is <= now_us, which rebasing consumers rely on.
  out.now_us = now_us();
  return out;
}

std::uint64_t Tracer::recorded() const noexcept {
  std::lock_guard lock(mutex_);
  return head_;
}

std::uint64_t Tracer::dropped() const noexcept {
  std::lock_guard lock(mutex_);
  return head_ > capacity_ ? head_ - capacity_ : 0;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();  // keeps the reserved memory for the next events
  head_ = 0;
}

std::string Tracer::to_chrome_json() const {
  std::vector<std::pair<std::uint32_t, std::string>> names;
  {
    std::lock_guard lock(mutex_);
    names = thread_names_;
  }
  const std::vector<TraceEvent> events = snapshot();

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit_prefix = [&] {
    if (!first) out << ",";
    first = false;
  };

  // Metadata first: process name, then per-thread names. Metadata events
  // carry ts/tid too so consumers can assert a uniform schema.
  emit_prefix();
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"ts\":0,\"args\":{\"name\":\"vire\"}}";
  for (const auto& [tid, name] : names) {
    emit_prefix();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }

  for (const TraceEvent& e : events) {
    emit_prefix();
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"" << e.ph
        << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << fixed_number(e.ts_us);
    if (e.ph == 'X') out << ",\"dur\":" << fixed_number(e.dur_us);
    if (e.ph == 'i') out << ",\"s\":\"" << e.scope << "\"";
    if (!e.args.empty()) out << ",\"args\":" << e.args;
    out << "}";
  }
  out << "]}";
  return out.str();
}

void rebase(TraceDump& dump, double offset_us) {
  for (TraceEvent& e : dump.events) e.ts_us -= offset_us;
  dump.now_us -= offset_us;
}

std::string fleet_chrome_json(const std::vector<FleetProcess>& processes) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit_prefix = [&] {
    if (!first) out << ",";
    first = false;
  };

  for (const FleetProcess& proc : processes) {
    emit_prefix();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << proc.pid
        << ",\"tid\":0,\"ts\":0,\"args\":{\"name\":\"" << json_escape(proc.name)
        << "\"}}";
    for (const auto& [tid, name] : proc.dump.thread_names) {
      emit_prefix();
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << proc.pid
          << ",\"tid\":" << tid << ",\"ts\":0,\"args\":{\"name\":\""
          << json_escape(name) << "\"}}";
    }
  }

  for (const FleetProcess& proc : processes) {
    for (const TraceEvent& e : proc.dump.events) {
      emit_prefix();
      out << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"" << e.ph
          << "\",\"pid\":" << proc.pid << ",\"tid\":" << e.tid
          << ",\"ts\":" << fixed_number(e.ts_us);
      if (e.ph == 'X') out << ",\"dur\":" << fixed_number(e.dur_us);
      if (e.ph == 'i') out << ",\"s\":\"" << e.scope << "\"";
      if (!e.args.empty()) out << ",\"args\":" << e.args;
      out << "}";
    }
  }
  out << "]}";
  return out.str();
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("Tracer::write_chrome_json: cannot open " +
                             path.string());
  }
  out << to_chrome_json() << '\n';
}

}  // namespace vire::obs
