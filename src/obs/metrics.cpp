#include "obs/metrics.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>

#include "util/crashfmt.h"

#ifndef SMARTSOCK_VERSION
#define SMARTSOCK_VERSION "dev"
#endif
#ifndef SMARTSOCK_COMMIT
#define SMARTSOCK_COMMIT "unknown"
#endif

namespace smartsock::obs {

namespace {

std::uint64_t wall_now_us() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::system_clock::now().time_since_epoch())
                                        .count());
}

/// Anchor for process_uptime_seconds(); initialized on first use, which the
/// daemons hit during startup (metrics registration), so "uptime" tracks
/// process age closely.
std::chrono::steady_clock::time_point process_start() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

const bool g_start_anchor = (process_start(), true);

std::string fmt_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

/// Splits "name{labels}" for Prometheus emission; exposition puts the
/// sample's labels between the name and the value.
std::pair<std::string_view, std::string_view> split_labels(std::string_view name) {
  std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  return {name.substr(0, brace), name.substr(brace)};
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info{SMARTSOCK_VERSION, SMARTSOCK_COMMIT,
#ifdef __VERSION__
                              __VERSION__
#else
                              "unknown"
#endif
  };
  return info;
}

double process_uptime_seconds() {
  (void)g_start_anchor;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - process_start())
      .count();
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prom_sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  if (out.empty()) return "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string prom_escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

/// Re-emits a "{key="value",...}" label block with sanitized keys and
/// escaped values. Producers write raw values, so a '"' only terminates a
/// value when ',' or '}' follows it.
std::string prom_rewrite_labels(std::string_view labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  std::size_t i = 1;  // past '{'
  bool first = true;
  while (i < labels.size() && labels[i] != '}') {
    if (labels[i] == ',') {
      ++i;
      continue;
    }
    std::size_t eq = labels.find('=', i);
    if (eq == std::string_view::npos) break;
    std::string key = prom_sanitize_name(labels.substr(i, eq - i));
    i = eq + 1;
    std::string value;
    if (i < labels.size() && labels[i] == '"') {
      ++i;
      while (i < labels.size()) {
        if (labels[i] == '"' &&
            (i + 1 >= labels.size() || labels[i + 1] == ',' || labels[i + 1] == '}')) {
          ++i;
          break;
        }
        value += labels[i++];
      }
    } else {
      // Unquoted (malformed producer) — take up to the next ',' or '}'.
      while (i < labels.size() && labels[i] != ',' && labels[i] != '}') value += labels[i++];
    }
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += prom_escape_label_value(value);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Emits the # HELP / # TYPE preamble once per metric family.
class FamilyHeader {
 public:
  explicit FamilyHeader(std::ostringstream& out) : out_(&out) {}

  void emit(const std::string& family, const char* type, const char* help) {
    if (!seen_.insert(family).second) return;
    *out_ << "# HELP " << family << " " << help << "\n";
    *out_ << "# TYPE " << family << " " << type << "\n";
  }

 private:
  std::ostringstream* out_;
  std::set<std::string> seen_;
};

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

util::TrafficCounter* MetricsRegistry::traffic(const std::string& component) {
  std::lock_guard<std::mutex> lock(mu_);
  traffic_.emplace_back(component, std::make_unique<util::TrafficCounter>());
  return traffic_.back().second.get();
}

std::uint64_t MetricsRegistry::add_collector(Collector fn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t id = next_collector_id_++;
  collectors_[id] = std::move(fn);
  return id;
}

void MetricsRegistry::remove_collector(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(id);
}

std::vector<ComponentUsage> MetricsRegistry::traffic_usage(double window_seconds) const {
  std::map<std::string, ComponentUsage> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [component, counter] : traffic_) {
      ComponentUsage& usage = merged[component];
      usage.component = component;
      usage.bytes_sent += counter->bytes_sent();
      usage.bytes_received += counter->bytes_received();
      usage.messages_sent += counter->messages_sent();
      usage.messages_received += counter->messages_received();
    }
  }
  std::vector<ComponentUsage> out;
  out.reserve(merged.size());
  for (auto& [name, usage] : merged) {
    if (window_seconds > 0) {
      usage.send_rate_kbps = static_cast<double>(usage.bytes_sent) / 1024.0 / window_seconds;
      usage.receive_rate_kbps =
          static_cast<double>(usage.bytes_received) / 1024.0 / window_seconds;
    }
    out.push_back(std::move(usage));
  }
  return out;
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.wall_us = wall_now_us();
  snap.rss_kb = util::current_rss_kb();
  snap.build = build_info();
  snap.uptime_seconds = process_uptime_seconds();

  std::vector<Collector> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      snap.counters.emplace_back(name, counter->value());
    }
    for (const auto& [name, gauge] : gauges_) {
      snap.gauges.emplace_back(name, gauge->value());
    }
    for (const auto& [name, histogram] : histograms_) {
      HistogramStats stats;
      stats.name = name;
      stats.count = histogram->count();
      stats.mean_us = histogram->mean_us();
      // Tail reporting comes from the P² sketch (ISSUE 4); the bucket-walk
      // percentile() stays available on the recorder itself.
      util::QuantileSketch::Values sketch = histogram->sketch_values();
      stats.p50_us = sketch.p50;
      stats.p90_us = sketch.p90;
      stats.p99_us = sketch.p99;
      stats.buckets = histogram->nonzero_buckets();
      snap.histograms.push_back(std::move(stats));
    }
    collectors.reserve(collectors_.size());
    for (const auto& [id, fn] : collectors_) collectors.push_back(fn);
  }
  // Process vitals ride along as ordinary gauges so every snapshot format
  // (json/prom/text) picks them up without format-specific code.
  snap.gauges.emplace_back("process_uptime_seconds", snap.uptime_seconds);
  snap.gauges.emplace_back("process_rss_bytes",
                           static_cast<double>(snap.rss_kb) * 1024.0);
  // Collectors and traffic merging run outside the lock: collectors may call
  // back into the registry, and neither touches registry structures.
  snap.traffic = traffic_usage(0.0);
  for (const Collector& fn : collectors) fn(snap);
  return snap;
}

void MetricsRegistry::crash_dump(int fd) const {
  util::CrashWriter w(fd);
  if (!mu_.try_lock()) {
    // A registration (or the crashing thread itself) holds the lock; the
    // maps may be mid-rebalance, so walking them is not safe.
    w.str("metrics unavailable: registry lock held at crash time\n");
    return;
  }
  // Bound the walk: a corrupted map must not wedge the crash handler.
  std::size_t budget = 10000;
  for (const auto& [name, counter] : counters_) {
    if (budget-- == 0) break;
    w.str(name);
    w.put(' ');
    w.u64(counter->value());
    w.put('\n');
  }
  for (const auto& [name, gauge] : gauges_) {
    if (budget-- == 0) break;
    w.str(name);
    w.put(' ');
    w.dbl(gauge->value());
    w.put('\n');
  }
  for (const auto& [name, histogram] : histograms_) {
    if (budget-- == 0) break;
    w.str(name);
    w.str(" count=");
    w.u64(histogram->count());
    w.str(" mean_us=");
    w.dbl(histogram->mean_us());
    // Bucket-walk percentile, not the sketch — the sketch spinlock may be
    // held by the thread that crashed.
    w.str(" p99_us=");
    w.dbl(histogram->percentile(99.0));
    w.put('\n');
  }
  mu_.unlock();
}

void MetricsRegistry::reset_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
  for (auto& [component, counter] : traffic_) counter->reset();
}

std::string Snapshot::to_json(bool pretty) const {
  const char* nl = pretty ? "\n" : "";
  const char* pad = pretty ? "  " : "";
  std::ostringstream out;
  out << "{" << nl;
  out << pad << "\"ts_us\": " << wall_us << "," << nl;
  out << pad << "\"rss_kb\": " << rss_kb << "," << nl;
  out << pad << "\"build\": {\"version\": \"" << json_escape(build.version)
      << "\", \"commit\": \"" << json_escape(build.commit) << "\", \"compiler\": \""
      << json_escape(build.compiler) << "\"}," << nl;
  out << pad << "\"uptime_seconds\": " << fmt_double(uptime_seconds) << "," << nl;

  out << pad << "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out << ", ";
    out << nl << pad << pad << "\"" << json_escape(counters[i].first)
        << "\": " << counters[i].second;
  }
  if (!counters.empty()) out << nl << pad;
  out << "}," << nl;

  out << pad << "\"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i) out << ", ";
    out << nl << pad << pad << "\"" << json_escape(gauges[i].first)
        << "\": " << fmt_double(gauges[i].second);
  }
  if (!gauges.empty()) out << nl << pad;
  out << "}," << nl;

  out << pad << "\"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramStats& h = histograms[i];
    if (i) out << ", ";
    out << nl << pad << pad << "\"" << json_escape(h.name) << "\": {\"count\": " << h.count
        << ", \"mean_us\": " << fmt_double(h.mean_us)
        << ", \"p50_us\": " << fmt_double(h.p50_us)
        << ", \"p90_us\": " << fmt_double(h.p90_us)
        << ", \"p99_us\": " << fmt_double(h.p99_us) << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) out << ", ";
      out << "[" << fmt_double(h.buckets[b].first) << ", " << h.buckets[b].second << "]";
    }
    out << "]}";
  }
  if (!histograms.empty()) out << nl << pad;
  out << "}," << nl;

  out << pad << "\"traffic\": {";
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    const ComponentUsage& usage = traffic[i];
    if (i) out << ", ";
    out << nl << pad << pad << "\"" << json_escape(usage.component)
        << "\": {\"bytes_sent\": " << usage.bytes_sent
        << ", \"bytes_received\": " << usage.bytes_received
        << ", \"messages_sent\": " << usage.messages_sent
        << ", \"messages_received\": " << usage.messages_received << "}";
  }
  if (!traffic.empty()) out << nl << pad;
  out << "}" << nl;

  out << "}" << nl;
  return out.str();
}

std::string Snapshot::to_prometheus() const {
  std::ostringstream out;
  FamilyHeader header(out);
  for (const auto& [name, value] : counters) {
    auto [raw_base, labels] = split_labels(name);
    std::string base = prom_sanitize_name(raw_base);
    header.emit(base, "counter", "Monotonic event counter.");
    out << base << prom_rewrite_labels(labels) << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    auto [raw_base, labels] = split_labels(name);
    std::string base = prom_sanitize_name(raw_base);
    header.emit(base, "gauge", "Instantaneous value.");
    out << base << prom_rewrite_labels(labels) << " " << fmt_double(value) << "\n";
  }
  for (const HistogramStats& h : histograms) {
    auto [raw_base, labels] = split_labels(h.name);
    std::string base = prom_sanitize_name(raw_base);
    header.emit(base, "histogram", "Latency histogram (microseconds).");
    // ISSUE 7 fix: histogram names may carry labels now (the reactor emits
    // reactor_callback_us{site="..."}); merge them into every sample line,
    // with `le` joined into the rewritten label block on _bucket lines.
    std::string rewritten = prom_rewrite_labels(labels);
    auto with_le = [&rewritten](const std::string& le) {
      if (rewritten.empty()) return "{le=\"" + le + "\"}";
      std::string out = rewritten;
      out.insert(out.size() - 1, ",le=\"" + le + "\"");
      return out;
    };
    std::uint64_t cumulative = 0;
    for (const auto& [upper, count] : h.buckets) {
      cumulative += count;
      out << base << "_bucket" << with_le(fmt_double(upper)) << " " << cumulative << "\n";
    }
    out << base << "_bucket" << with_le("+Inf") << " " << h.count << "\n";
    out << base << "_sum" << rewritten << " "
        << fmt_double(h.mean_us * static_cast<double>(h.count)) << "\n";
    out << base << "_count" << rewritten << " " << h.count << "\n";
    // The P² sketch tails ride along as sibling gauge families so scrapers
    // get p50/p90/p99 without bucket math.
    struct Tail { const char* suffix; double value; };
    for (const Tail& tail : {Tail{"_p50", h.p50_us}, Tail{"_p90", h.p90_us},
                             Tail{"_p99", h.p99_us}}) {
      std::string family = base + tail.suffix;
      header.emit(family, "gauge", "Incremental P2 quantile estimate (microseconds).");
      out << family << rewritten << " " << fmt_double(tail.value) << "\n";
    }
  }
  if (!traffic.empty()) {
    for (const char* family :
         {"smartsock_traffic_bytes_sent_total", "smartsock_traffic_bytes_received_total",
          "smartsock_traffic_messages_sent_total",
          "smartsock_traffic_messages_received_total"}) {
      header.emit(family, "counter", "Per-component traffic accounting.");
    }
  }
  for (const ComponentUsage& usage : traffic) {
    std::string component = prom_escape_label_value(usage.component);
    out << "smartsock_traffic_bytes_sent_total{component=\"" << component << "\"} "
        << usage.bytes_sent << "\n";
    out << "smartsock_traffic_bytes_received_total{component=\"" << component << "\"} "
        << usage.bytes_received << "\n";
    out << "smartsock_traffic_messages_sent_total{component=\"" << component << "\"} "
        << usage.messages_sent << "\n";
    out << "smartsock_traffic_messages_received_total{component=\"" << component
        << "\"} " << usage.messages_received << "\n";
  }
  header.emit("smartsock_rss_kb", "gauge", "Resident set size of this process (KB).");
  out << "smartsock_rss_kb " << rss_kb << "\n";
  header.emit("smartsock_build_info", "gauge",
              "Build provenance carried in labels; value is always 1.");
  out << "smartsock_build_info{version=\"" << prom_escape_label_value(build.version)
      << "\",commit=\"" << prom_escape_label_value(build.commit) << "\",compiler=\""
      << prom_escape_label_value(build.compiler) << "\"} 1\n";
  return out.str();
}

std::string Snapshot::to_text() const {
  std::ostringstream out;
  out << "snapshot ts_us=" << wall_us << " rss_kb=" << rss_kb << "\n";
  out << "build version=" << build.version << " commit=" << build.commit
      << " compiler=" << build.compiler << " uptime_s=" << fmt_double(uptime_seconds)
      << "\n";
  if (!counters.empty()) {
    out << "\ncounters:\n";
    for (const auto& [name, value] : counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!gauges.empty()) {
    out << "\ngauges:\n";
    for (const auto& [name, value] : gauges) {
      out << "  " << name << " = " << fmt_double(value) << "\n";
    }
  }
  if (!histograms.empty()) {
    out << "\nhistograms (us):\n";
    for (const HistogramStats& h : histograms) {
      out << "  " << h.name << ": count=" << h.count << " mean=" << fmt_double(h.mean_us)
          << " p50=" << fmt_double(h.p50_us) << " p90=" << fmt_double(h.p90_us)
          << " p99=" << fmt_double(h.p99_us) << "\n";
    }
  }
  if (!traffic.empty()) {
    out << "\ntraffic:\n";
    for (const ComponentUsage& usage : traffic) {
      out << "  " << usage.component << ": sent=" << usage.bytes_sent << "B/"
          << usage.messages_sent << "msg recv=" << usage.bytes_received << "B/"
          << usage.messages_received << "msg\n";
    }
  }
  return out.str();
}

}  // namespace smartsock::obs
