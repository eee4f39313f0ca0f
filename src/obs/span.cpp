#include "obs/span.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/metrics.h"
#include "util/crashfmt.h"
#include "util/logging.h"

namespace smartsock::obs {

namespace {

std::uint64_t wall_now_us() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// Appends a tag value so one line stays one event: a value that is empty
/// or holds whitespace or '"' is double-quoted, '"' becomes ' and a newline
/// becomes a space.
void append_value(std::string& line, std::string_view value) {
  if (!value.empty() && value.find_first_of(" \t\n\"") == std::string_view::npos) {
    line.append(value);
    return;
  }
  line += '"';
  for (char c : value) line += c == '"' ? '\'' : c == '\n' ? ' ' : c;
  line += '"';
}

std::string debug_line(const SpanRecord& span) {
  std::string line = "event=" + span.name;
  if (!span.trace_id.empty()) line += " trace_id=" + span.trace_id;
  line += " span=" + std::to_string(span.span_id);
  line += " parent=" + std::to_string(span.parent_id);
  line += " ts_us=" + std::to_string(span.start_us);
  line += " dur_us=" + std::to_string(span.duration_us);
  for (const auto& [key, value] : span.tags) {
    line += ' ';
    line += key;
    line += '=';
    append_value(line, value);
  }
  return line;
}

}  // namespace

std::string mint_trace_id(util::Rng& rng) {
  // uniform_int is inclusive over int64; stitch two 32-bit draws so the full
  // 64-bit space is reachable.
  auto hi = static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffffll));
  auto lo = static_cast<std::uint64_t>(rng.uniform_int(0, 0xffffffffll));
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>((hi << 32) | lo));
  return buffer;
}

SpanStore::SpanStore(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), slots_(capacity_) {}

SpanStore& SpanStore::instance() {
  static SpanStore store;
  return store;
}

void SpanStore::record(SpanRecord span) {
  std::uint64_t claim = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim % capacity_];
  if (!slot.mu.try_lock()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.claim = claim + 1;
  slot.span = std::move(span);
  slot.mu.unlock();
}

std::vector<SpanRecord> SpanStore::snapshot() const {
  std::uint64_t total = head_.load(std::memory_order_acquire);
  std::uint64_t start = total > capacity_ ? total - capacity_ : 0;
  std::vector<SpanRecord> out;
  out.reserve(static_cast<std::size_t>(total - start));
  for (std::uint64_t i = start; i < total; ++i) {
    const Slot& slot = slots_[i % capacity_];
    if (!slot.mu.try_lock()) continue;  // a writer owns it right now
    // The slot only counts if it still holds claim i's content — it may be
    // unwritten (dropped span) or already lapped by a newer claim.
    if (slot.claim == i + 1) out.push_back(slot.span);
    slot.mu.unlock();
  }
  return out;
}

std::vector<SpanRecord> SpanStore::find_trace(std::string_view trace_id) const {
  std::vector<SpanRecord> out;
  for (SpanRecord& span : snapshot()) {
    if (span.trace_id == trace_id) out.push_back(std::move(span));
  }
  return out;
}

void SpanStore::clear() {
  std::uint64_t total = head_.load(std::memory_order_acquire);
  for (Slot& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.claim = 0;
    slot.span = SpanRecord{};
  }
  (void)total;
}

void SpanStore::crash_dump(int fd, std::size_t max_spans) const {
  util::CrashWriter w(fd);
  std::uint64_t total = head_.load(std::memory_order_acquire);
  std::uint64_t start = total > capacity_ ? total - capacity_ : 0;
  if (total - start > max_spans) start = total - max_spans;
  for (std::uint64_t i = start; i < total; ++i) {
    const Slot& slot = slots_[i % capacity_];
    if (!slot.mu.try_lock()) continue;  // a writer (maybe the crasher) owns it
    if (slot.claim == i + 1) {
      const SpanRecord& span = slot.span;
      // Only reads of existing string bytes — no copies, no allocation.
      w.str(span.component);
      w.put('/');
      w.str(span.name);
      w.str(" trace=");
      w.str(span.trace_id.empty() ? std::string_view("-") : std::string_view(span.trace_id));
      w.str(" span=");
      w.u64(span.span_id);
      w.str(" parent=");
      w.u64(span.parent_id);
      w.str(" start_us=");
      w.u64(span.start_us);
      w.str(" dur_us=");
      w.u64(span.duration_us);
      for (const auto& [key, value] : span.tags) {
        w.put(' ');
        w.str(key);
        w.put('=');
        w.str(value);
      }
      w.put('\n');
    }
    slot.mu.unlock();
  }
}

std::string SpanStore::to_json(const std::vector<SpanRecord>& spans) {
  std::ostringstream out;
  out << "{\"spans\": [";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"trace_id\": \"" << json_escape(span.trace_id)
        << "\", \"span_id\": " << span.span_id << ", \"parent_id\": " << span.parent_id
        << ", \"component\": \"" << json_escape(span.component) << "\", \"name\": \""
        << json_escape(span.name) << "\", \"start_us\": " << span.start_us
        << ", \"duration_us\": " << span.duration_us << ", \"tags\": {";
    bool first_tag = true;
    for (const auto& [key, value] : span.tags) {
      if (!first_tag) out << ", ";
      first_tag = false;
      out << "\"" << json_escape(key) << "\": \"" << json_escape(value) << "\"";
    }
    out << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string SpanStore::to_stitched_chrome_trace(const std::vector<InstanceSpans>& lanes) {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  bool first = true;
  long pid = 0;
  for (const InstanceSpans& lane : lanes) {
    ++pid;  // synthetic: one process lane per scraped instance, in order
    if (!first) out << ",";
    first = false;
    out << "\n{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << pid
        << ", \"tid\": 0, \"args\": {\"name\": \"" << json_escape(lane.instance) << "\"}}";
    std::map<std::string, int> tids;
    for (const SpanRecord& span : lane.spans) {
      tids.emplace(span.component, static_cast<int>(tids.size()) + 1);
    }
    for (const auto& [component, tid] : tids) {
      out << ",\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " << pid
          << ", \"tid\": " << tid << ", \"args\": {\"name\": \"" << json_escape(component)
          << "\"}}";
    }
    for (const SpanRecord& span : lane.spans) {
      out << ",\n{\"ph\": \"X\", \"name\": \"" << json_escape(span.name) << "\", \"cat\": \""
          << json_escape(span.component) << "\", \"ts\": " << span.start_us
          << ", \"dur\": " << span.duration_us << ", \"pid\": " << pid
          << ", \"tid\": " << tids[span.component] << ", \"args\": {";
      out << "\"trace_id\": \"" << json_escape(span.trace_id) << "\", \"span_id\": \""
          << span.span_id << "\", \"parent_id\": \"" << span.parent_id << "\", \"instance\": \""
          << json_escape(lane.instance) << "\"";
      for (const auto& [key, value] : span.tags) {
        out << ", \"" << json_escape(key) << "\": \"" << json_escape(value) << "\"";
      }
      out << "}}";
    }
  }
  out << "\n]}\n";
  return out.str();
}

Span::Span(std::string_view component, std::string_view name, std::string_view trace_id,
           std::uint64_t parent_id, SpanStore& store)
    : store_(&store), start_ns_(steady_now_ns()) {
  record_.trace_id = trace_id;
  record_.span_id = store.next_span_id();
  record_.parent_id = parent_id;
  record_.component = component;
  record_.name = name;
  record_.start_us = wall_now_us();
}

Span& Span::set_trace_id(std::string_view trace_id) {
  if (!done_) record_.trace_id = trace_id;
  return *this;
}

Span& Span::tag(std::string_view key, std::string_view value) {
  if (!done_) record_.tags.emplace_back(key, value);
  return *this;
}

Span& Span::tag(std::string_view key, std::uint64_t value) {
  return tag(key, std::string_view(std::to_string(value)));
}

Span& Span::tag(std::string_view key, std::int64_t value) {
  return tag(key, std::string_view(std::to_string(value)));
}

Span& Span::tag(std::string_view key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return tag(key, std::string_view(buffer));
}

void Span::end() {
  if (done_) return;
  done_ = true;
  record_.duration_us = (steady_now_ns() - start_ns_) / 1000;
  util::Logger& logger = util::Logger::instance();
  if (logger.enabled(util::LogLevel::kDebug)) {
    logger.log(util::LogLevel::kDebug, record_.component, debug_line(record_));
  }
  store_->record(std::move(record_));
}

}  // namespace smartsock::obs
