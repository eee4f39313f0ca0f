#include "obs/fleet.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>

#include "net/scrape_client.h"
#include "util/json.h"
#include "util/merge.h"
#include "util/strings.h"

namespace smartsock::obs {

namespace {

std::string fmt_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

}  // namespace

std::optional<std::vector<net::Endpoint>> parse_endpoint_list(std::string_view text,
                                                              std::string* error) {
  // Same list grammar as --wizards (core/wizard_cluster): commas or
  // semicolons separate, whitespace around entries is tolerated, empty
  // entries are skipped so trailing commas are harmless.
  std::string normalized(text);
  std::replace(normalized.begin(), normalized.end(), ';', ',');
  std::vector<net::Endpoint> out;
  std::set<std::string> seen;
  for (std::string_view entry : util::split(normalized, ',')) {
    std::string_view trimmed = util::trim(entry);
    if (trimmed.empty()) continue;
    auto endpoint = net::Endpoint::parse(trimmed);
    if (!endpoint) {
      if (error) *error = "bad endpoint: " + std::string(trimmed);
      return std::nullopt;
    }
    if (!seen.insert(endpoint->to_string()).second) {
      if (error) *error = "duplicate endpoint: " + endpoint->to_string();
      return std::nullopt;
    }
    out.push_back(*endpoint);
  }
  if (out.empty()) {
    if (error) *error = "empty endpoint list";
    return std::nullopt;
  }
  return out;
}

std::string with_instance_label(std::string_view name, std::string_view instance) {
  // The registry's raw-label convention: labels ride in the metric name as
  // {key="raw value"} and are escaped at exposition time, so injection is
  // pure string surgery. A name that already carries labels gets the
  // instance appended inside its brace block.
  std::string out(name);
  std::string label = "instance=\"" + std::string(instance) + "\"";
  if (!out.empty() && out.back() == '}' && out.find('{') != std::string::npos) {
    out.insert(out.size() - 1, "," + label);
  } else {
    out += "{" + label + "}";
  }
  return out;
}

FleetAggregator::FleetAggregator(FleetConfig config, net::Reactor& reactor,
                                 MetricsRegistry& merged)
    : config_(std::move(config)), reactor_(&reactor), merged_(&merged) {
  if (config_.stale_after <= util::Duration::zero()) {
    config_.stale_after = 3 * config_.scrape_interval;
  }
  instances_.reserve(config_.endpoints.size());
  for (const net::Endpoint& endpoint : config_.endpoints) {
    InstanceState instance;
    instance.endpoint = endpoint;
    instance.label = endpoint.to_string();
    instance.breaker = std::make_unique<util::CircuitBreaker>(config_.breaker,
                                                              reactor_->clock());
    instances_.push_back(std::move(instance));
  }
  collector_id_ = merged_->add_collector([this](Snapshot& snap) { collect(snap); });
}

FleetAggregator::~FleetAggregator() {
  // Contract: destroy only after the reactor stopped (or after the last
  // sweep completed) — in-flight scrape callbacks capture `this`.
  stop();
  merged_->remove_collector(collector_id_);
}

void FleetAggregator::start() {
  sweep_.start(*reactor_, config_.scrape_interval, [this] { begin_sweep(); }, "fleet_sweep");
}

void FleetAggregator::stop() { sweep_.stop(); }

void FleetAggregator::sweep_now() {
  reactor_->post([this] { begin_sweep(); });
}

std::uint64_t FleetAggregator::sweeps_completed() const {
  return sweeps_completed_.load(std::memory_order_acquire);
}

std::uint64_t FleetAggregator::clock_now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(reactor_->clock().now())
          .count());
}

void FleetAggregator::begin_sweep() {
  if (sweep_active_) return;  // a slow prior sweep still owns the wire
  sweep_active_ = true;
  inflight_ = instances_.size();
  if (inflight_ == 0) {
    sweep_active_ = false;
    sweeps_completed_.fetch_add(1, std::memory_order_release);
    return;
  }
  for (std::size_t slot = 0; slot < instances_.size(); ++slot) {
    InstanceState& instance = instances_[slot];
    if (!instance.breaker->allow()) {
      // Open breaker: the daemon kept failing; skip it this sweep instead
      // of burning a timeout on it. It stays counted unreachable.
      std::lock_guard<std::mutex> lock(mu_);
      instance.last_error = "breaker open";
      finish_one(slot);
      continue;
    }
    net::ScrapeClient::fetch(
        *reactor_, instance.endpoint, "json", config_.scrape_timeout,
        [this, slot](net::ScrapeResult result) {
          InstanceState& instance = instances_[slot];
          if (!result.ok) {
            instance.breaker->record_failure();
            std::lock_guard<std::mutex> lock(mu_);
            ++instance.scrapes_total;
            ++instance.scrape_failures;
            instance.last_error = result.error;
            finish_one(slot);
            return;
          }
          instance.breaker->record_success();
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++instance.scrapes_total;
            instance.ever_reached = true;
            instance.last_success_us = clock_now_us();
            instance.last_latency_us = result.latency_us;
            instance.last_error.clear();
            apply_snapshot(instance, result.body);
          }
          if (!config_.scrape_spans) {
            std::lock_guard<std::mutex> lock(mu_);
            finish_one(slot);
            return;
          }
          net::ScrapeClient::fetch(*reactor_, instance.endpoint, "spans json",
                              config_.scrape_timeout,
                              [this, slot](net::ScrapeResult spans_result) {
                                InstanceState& instance = instances_[slot];
                                std::lock_guard<std::mutex> lock(mu_);
                                if (spans_result.ok) {
                                  apply_spans(instance, spans_result.body);
                                }
                                finish_one(slot);
                              });
        });
  }
}

void FleetAggregator::finish_one(std::size_t slot) {
  (void)slot;
  if (--inflight_ == 0) {
    sweep_active_ = false;
    sweeps_completed_.fetch_add(1, std::memory_order_release);
  }
}

void FleetAggregator::apply_snapshot(InstanceState& instance, const std::string& body) {
  auto doc = util::json_parse(body);
  if (!doc || !doc->is_object()) {
    instance.last_error = "unparseable snapshot";
    return;
  }
  if (const util::JsonValue* counters = doc->find("counters");
      counters && counters->is_object()) {
    for (const auto& [name, value] : counters->object) {
      if (!value.is_number()) continue;
      auto raw = value.number <= 0 ? 0 : static_cast<std::uint64_t>(value.number);
      CounterState& state = instance.counters[name];
      if (raw < state.last_raw) {
        // The daemon restarted (counters only ever rise within one
        // lifetime): fold the pre-restart total into the base so the
        // merged series stays monotone.
        state.base += state.last_raw;
        ++instance.counter_resets;
      }
      state.last_raw = raw;
    }
  }
  instance.gauges.clear();
  if (const util::JsonValue* gauges = doc->find("gauges"); gauges && gauges->is_object()) {
    for (const auto& [name, value] : gauges->object) {
      if (value.is_number()) instance.gauges.emplace_back(name, value.number);
    }
  }
  instance.histograms.clear();
  if (const util::JsonValue* histograms = doc->find("histograms");
      histograms && histograms->is_object()) {
    for (const auto& [name, value] : histograms->object) {
      if (!value.is_object()) continue;
      HistogramStats stats;
      stats.name = name;
      stats.count = value.uint_or("count", 0);
      stats.mean_us = value.number_or("mean_us", 0);
      stats.p50_us = value.number_or("p50_us", 0);
      stats.p90_us = value.number_or("p90_us", 0);
      stats.p99_us = value.number_or("p99_us", 0);
      if (const util::JsonValue* buckets = value.find("buckets");
          buckets && buckets->is_array()) {
        for (const util::JsonValue& pair : buckets->array) {
          if (pair.is_array() && pair.array.size() == 2 && pair.array[0].is_number() &&
              pair.array[1].is_number()) {
            stats.buckets.emplace_back(
                pair.array[0].number,
                static_cast<std::uint64_t>(std::max(0.0, pair.array[1].number)));
          }
        }
      }
      instance.histograms.push_back(std::move(stats));
    }
  }
}

void FleetAggregator::apply_spans(InstanceState& instance, const std::string& body) {
  auto doc = util::json_parse(body);
  if (!doc || !doc->is_object()) return;
  const util::JsonValue* spans = doc->find("spans");
  if (!spans || !spans->is_array()) return;
  instance.spans.clear();
  instance.spans.reserve(spans->array.size());
  for (const util::JsonValue& entry : spans->array) {
    if (!entry.is_object()) continue;
    SpanRecord span;
    span.trace_id = entry.string_or("trace_id", "");
    span.span_id = entry.uint_or("span_id", 0);
    span.parent_id = entry.uint_or("parent_id", 0);
    span.component = entry.string_or("component", "");
    span.name = entry.string_or("name", "");
    span.start_us = entry.uint_or("start_us", 0);
    span.duration_us = entry.uint_or("duration_us", 0);
    if (const util::JsonValue* tags = entry.find("tags"); tags && tags->is_object()) {
      for (const auto& [key, value] : tags->object) {
        if (value.is_string()) span.tags.emplace_back(key, value.string);
      }
    }
    instance.spans.push_back(std::move(span));
  }
}

bool FleetAggregator::reachable_locked(const InstanceState& instance,
                                       std::uint64_t now_us) const {
  if (!instance.ever_reached) return false;
  auto stale_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(config_.stale_after).count());
  return now_us - instance.last_success_us <= stale_us;
}

std::size_t FleetAggregator::instances_reachable() const {
  std::uint64_t now_us = clock_now_us();
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t reachable = 0;
  for (const InstanceState& instance : instances_) {
    if (reachable_locked(instance, now_us)) ++reachable;
  }
  return reachable;
}

void FleetAggregator::collect(Snapshot& snap) const {
  std::uint64_t now_us = clock_now_us();
  std::lock_guard<std::mutex> lock(mu_);

  std::size_t reachable = 0;
  std::map<std::string, std::uint64_t> merged_counters;
  std::map<std::string, std::vector<util::LatencySummary>> merged_histograms;

  for (const InstanceState& instance : instances_) {
    bool up = reachable_locked(instance, now_us);
    if (up) ++reachable;

    // Fleet rollup, one series per endpoint under the instance label.
    snap.gauges.emplace_back(with_instance_label("fleet_instance_up", instance.label),
                             up ? 1.0 : 0.0);
    snap.counters.emplace_back(with_instance_label("fleet_scrapes_total", instance.label),
                               instance.scrapes_total);
    snap.counters.emplace_back(
        with_instance_label("fleet_scrape_failures_total", instance.label),
        instance.scrape_failures);
    snap.counters.emplace_back(
        with_instance_label("fleet_counter_resets_total", instance.label),
        instance.counter_resets);
    if (instance.ever_reached) {
      snap.gauges.emplace_back(
          with_instance_label("fleet_scrape_latency_us", instance.label),
          static_cast<double>(instance.last_latency_us));
      snap.gauges.emplace_back(
          with_instance_label("fleet_scrape_staleness_seconds", instance.label),
          static_cast<double>(now_us - instance.last_success_us) / 1e6);
    }

    // Scraped series: counters sum (reset-compensated), gauges stay
    // per-instance, histograms merge below.
    for (const auto& [name, state] : instance.counters) {
      merged_counters[name] += state.base + state.last_raw;
    }
    for (const auto& [name, value] : instance.gauges) {
      snap.gauges.emplace_back(with_instance_label(name, instance.label), value);
    }
    for (const HistogramStats& stats : instance.histograms) {
      util::LatencySummary summary;
      summary.count = stats.count;
      summary.mean_us = stats.mean_us;
      summary.p50_us = stats.p50_us;
      summary.p90_us = stats.p90_us;
      summary.p99_us = stats.p99_us;
      summary.buckets = stats.buckets;
      merged_histograms[stats.name].push_back(std::move(summary));
    }
  }

  snap.gauges.emplace_back("fleet_instances_configured",
                           static_cast<double>(instances_.size()));
  snap.gauges.emplace_back("fleet_instances_reachable", static_cast<double>(reachable));

  for (const auto& [name, total] : merged_counters) {
    snap.counters.emplace_back(name, total);
  }
  for (const auto& [name, summaries] : merged_histograms) {
    util::LatencySummary merged = util::merge_latency_summaries(summaries);
    HistogramStats stats;
    stats.name = name;
    stats.count = merged.count;
    stats.mean_us = merged.mean_us;
    stats.p50_us = merged.p50_us;
    stats.p90_us = merged.p90_us;
    stats.p99_us = merged.p99_us;
    stats.buckets = std::move(merged.buckets);
    snap.histograms.push_back(std::move(stats));
  }
}

void FleetAggregator::install_health_rules(HealthEngine& health) {
  health.add_check("fleet", "reachability", [this](const Snapshot&) {
    HealthEngine::Finding finding;
    std::uint64_t now_us = clock_now_us();
    std::lock_guard<std::mutex> lock(mu_);
    if (instances_.empty()) {
      finding.applicable = false;
      return finding;
    }
    std::vector<std::string> down;
    for (const InstanceState& instance : instances_) {
      if (!reachable_locked(instance, now_us)) down.push_back(instance.label);
    }
    if (down.empty()) return finding;
    std::ostringstream reason;
    if (down.size() == instances_.size()) {
      finding.level = HealthLevel::kCritical;
      reason << "all " << instances_.size() << " fleet instances unreachable";
    } else {
      finding.level = HealthLevel::kDegraded;
      reason << down.size() << "/" << instances_.size()
             << " fleet instances unreachable: " << util::join(down, ", ");
    }
    finding.reason = reason.str();
    return finding;
  });
}

std::vector<SpanStore::InstanceSpans> FleetAggregator::find_trace(
    std::string_view trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanStore::InstanceSpans> lanes;
  for (const InstanceState& instance : instances_) {
    SpanStore::InstanceSpans lane;
    lane.instance = instance.label;
    for (const SpanRecord& span : instance.spans) {
      if (trace_id.empty() || span.trace_id == trace_id) lane.spans.push_back(span);
    }
    if (!lane.spans.empty()) lanes.push_back(std::move(lane));
  }
  return lanes;
}

std::string FleetAggregator::stitched_trace(std::string_view trace_id) const {
  return SpanStore::to_stitched_chrome_trace(find_trace(trace_id));
}

std::string FleetAggregator::status_json() const {
  std::uint64_t now_us = clock_now_us();
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"instances\": [";
  bool first = true;
  std::size_t reachable = 0;
  for (const InstanceState& instance : instances_) {
    bool up = reachable_locked(instance, now_us);
    if (up) ++reachable;
    if (!first) out << ",";
    first = false;
    out << "\n  {\"instance\": \"" << json_escape(instance.label)
        << "\", \"up\": " << (up ? "true" : "false")
        << ", \"scrapes_total\": " << instance.scrapes_total
        << ", \"scrape_failures\": " << instance.scrape_failures
        << ", \"counter_resets\": " << instance.counter_resets
        << ", \"latency_us\": " << instance.last_latency_us;
    if (instance.ever_reached) {
      out << ", \"staleness_seconds\": "
          << fmt_double(static_cast<double>(now_us - instance.last_success_us) / 1e6);
    }
    if (!instance.last_error.empty()) {
      out << ", \"error\": \"" << json_escape(instance.last_error) << "\"";
    }
    out << ", \"spans\": " << instance.spans.size() << "}";
  }
  out << "\n], \"configured\": " << instances_.size() << ", \"reachable\": " << reachable
      << ", \"sweeps\": " << sweeps_completed_.load(std::memory_order_acquire) << "}\n";
  return out.str();
}

std::optional<std::string> FleetAggregator::handle_command(
    std::string_view command_line) const {
  std::vector<std::string_view> words = util::split_whitespace(command_line);
  std::string_view verb = words.empty() ? std::string_view{} : words[0];

  if (verb == "fleet") return status_json();

  if (verb == "trace") {
    return stitched_trace(words.size() > 1 ? words[1] : std::string_view{});
  }

  if (verb == "spans") {
    std::lock_guard<std::mutex> lock(mu_);
    if (words.size() > 1 && words[1] == "json") {
      // Merged machine-readable export, each span tagged with its lane.
      std::vector<SpanRecord> all;
      for (const InstanceState& instance : instances_) {
        for (SpanRecord span : instance.spans) {
          span.tags.emplace_back("instance", instance.label);
          all.push_back(std::move(span));
        }
      }
      return SpanStore::to_json(all);
    }
    std::ostringstream out;
    for (const InstanceState& instance : instances_) {
      out << instance.label << " spans=" << instance.spans.size() << "\n";
    }
    return out.str();
  }

  return std::nullopt;
}

}  // namespace smartsock::obs
