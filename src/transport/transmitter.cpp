#include "transport/transmitter.h"

#include "obs/span.h"
#include "util/counters.h"
#include "util/logging.h"

namespace smartsock::transport {

namespace {

/// Changed records / deleted keys since `base`, framed tombstones-first so a
/// delete-then-recreate sequence replays in version order on the receiver.
template <typename Record, typename Key>
void append_db_delta(std::string& blob, FrameType record_type, FrameType tombstone_type,
                     const std::vector<Record>& records,
                     const std::vector<std::uint64_t>& versions,
                     const std::vector<std::pair<std::uint64_t, Key>>& tombstones,
                     std::uint64_t base, std::size_t* changed_out) {
  std::vector<Key> dead;
  for (const auto& [version, key] : tombstones) {
    if (version > base) dead.push_back(key);
  }
  if (!dead.empty()) {
    blob += encode_frame(tombstone_type, encode_records(dead));
  }
  std::vector<Record> changed;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (versions[i] > base) changed.push_back(records[i]);
  }
  if (!changed.empty()) {
    blob += encode_frame(record_type, encode_records(changed));
  }
  if (changed_out) *changed_out += changed.size() + dead.size();
}

}  // namespace

Transmitter::Transmitter(TransmitterConfig config, const ipc::StatusStore& store)
    : config_(std::move(config)),
      store_(&store),
      traffic_(obs::MetricsRegistry::instance().traffic("transmitter")),
      rng_(config_.retry_seed) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  delta_pushes_counter_ = registry.counter("transmitter_delta_pushes_total");
  full_pushes_counter_ = registry.counter("transmitter_full_pushes_total");
  bytes_sent_counter_ = registry.counter("transmitter_bytes_sent_total");
  source_id_ = config_.source_id != 0 ? config_.source_id : rng_.engine()();
  // Effective replica set: the configured list, else the single receiver —
  // one code path serves both shapes (ISSUE 8).
  std::vector<net::Endpoint> targets = config_.receivers;
  if (targets.empty()) targets.push_back(config_.receiver);
  replicas_.reserve(targets.size());
  for (const net::Endpoint& target : targets) {
    replicas_.push_back(std::make_unique<ReplicaLink>(target, config_.breaker));
  }
  publish_replica_gauges();
  if (config_.mode == TransferMode::kDistributed) {
    if (auto listener = net::TcpListener::listen(config_.bind)) {
      listener_ = std::move(*listener);
      endpoint_ = listener_.local_endpoint();
    }
  }
}

Transmitter::~Transmitter() { stop(); }

void Transmitter::account_push(bool delta, std::size_t bytes) {
  if (delta) {
    delta_pushes_.fetch_add(1, std::memory_order_relaxed);
    delta_pushes_counter_->inc();
  } else {
    full_pushes_.fetch_add(1, std::memory_order_relaxed);
    full_pushes_counter_->inc();
  }
  bytes_sent_counter_->inc(bytes);
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  snapshots_sent_.fetch_add(1, std::memory_order_relaxed);
}

bool Transmitter::send_snapshot(net::TcpSocket& socket, std::string trace_id) {
  socket.set_traffic_counter(traffic_);
  socket.set_send_timeout(config_.io_timeout);
  if (trace_id.empty()) trace_id = obs::mint_trace_id(rng_);
  obs::Span span("transmitter", "push", trace_id);
  // One snapshot pointer serves both the encoding and the span tags — no
  // second store copy for observability.
  ipc::SnapshotPtr snap = store_->snapshot();
  std::string blob;
  // Trace context travels first so the receiver can stamp every database
  // frame of this snapshot with the same id (flight-recorder propagation).
  blob += encode_frame(FrameType::kTraceContext, trace_id);
  blob += encode_frame(FrameType::kSysDb, encode_records(snap->sys));
  blob += encode_frame(FrameType::kNetDb, encode_records(snap->net));
  blob += encode_frame(FrameType::kSecDb, encode_records(snap->sec));
  span.tag("bytes", blob.size())
      .tag("sys_records", snap->sys.size())
      .tag("mode", "full")
      .tag("peer", socket.peer_endpoint().to_string());
  if (!socket.send_all(blob).ok()) {
    span.tag("ok", false);
    return false;
  }
  span.tag("ok", true);
  account_push(/*delta=*/false, blob.size());
  return true;
}

Transmitter::Negotiated Transmitter::push_negotiated(net::TcpSocket& socket,
                                                     const ipc::Snapshot& snap,
                                                     ReplicaLink& link) {
  socket.set_traffic_counter(traffic_);
  socket.set_send_timeout(config_.io_timeout);
  socket.set_receive_timeout(config_.io_timeout);

  DeltaOffer offer{source_id_, snap.epoch, snap.version};
  if (!socket.send_all(encode_frame(FrameType::kDeltaOffer, encode_delta_offer(offer)))
           .ok()) {
    // The offer is a handful of bytes; a failed send means the peer reset us
    // immediately — possibly a legacy receiver aborting on the unknown type.
    return Negotiated::kNoAccept;
  }
  FrameReadError why = FrameReadError::kNone;
  auto reply = read_frame(socket, &why);
  if (!reply || reply->type != FrameType::kDeltaAccept) {
    // A legacy receiver closes the connection on the unknown offer frame;
    // either way the peer cannot speak the delta protocol right now.
    return Negotiated::kNoAccept;
  }
  auto acked = decode_delta_state(reply->payload);
  if (!acked) return Negotiated::kNoAccept;
  link.last_acked = *acked;

  bool delta = acked->epoch == snap.epoch && snap.can_delta_from(acked->version);
  if (delta) {
    // Density cutover: when most of a large database changed since the ack,
    // the delta encoding ships the same bytes as the full frames but pays a
    // per-record copy for each — take the straight full-vector path instead.
    // The commit frame still advances the peer's replica state either way.
    // Small databases always delta: the copies are trivial there, and a
    // one-host deployment rewriting its whole sysdb every probe interval
    // must not read as a permanent full-snapshot fallback.
    constexpr std::size_t kCutoverMinRecords = 64;
    auto dirty = [&](const std::vector<std::uint64_t>& versions) {
      std::size_t n = 0;
      for (std::uint64_t v : versions) {
        if (v > acked->version) ++n;
      }
      return n;
    };
    std::size_t total = snap.sys.size() + snap.net.size() + snap.sec.size();
    if (total >= kCutoverMinRecords) {
      std::size_t changed_estimate =
          dirty(snap.sys_versions) + dirty(snap.net_versions) + dirty(snap.sec_versions);
      if (changed_estimate * 2 > total) delta = false;
    }
  }
  std::string trace_id = obs::mint_trace_id(rng_);
  obs::Span span("transmitter", "push", trace_id);
  std::string blob = encode_frame(FrameType::kTraceContext, trace_id);
  std::size_t changed = 0;
  if (delta) {
    append_db_delta(blob, FrameType::kSysDelta, FrameType::kSysTombstone, snap.sys,
                    snap.sys_versions, snap.sys_tombstones, acked->version, &changed);
    append_db_delta(blob, FrameType::kNetDelta, FrameType::kNetTombstone, snap.net,
                    snap.net_versions, snap.net_tombstones, acked->version, &changed);
    append_db_delta(blob, FrameType::kSecDelta, FrameType::kSecTombstone, snap.sec,
                    snap.sec_versions, snap.sec_tombstones, acked->version, &changed);
  } else {
    blob += encode_frame(FrameType::kSysDb, encode_records(snap.sys));
    blob += encode_frame(FrameType::kNetDb, encode_records(snap.net));
    blob += encode_frame(FrameType::kSecDb, encode_records(snap.sec));
    changed = snap.sys.size() + snap.net.size() + snap.sec.size();
  }
  blob += encode_frame(FrameType::kDeltaCommit,
                       encode_delta_state(DeltaState{snap.epoch, snap.version}));
  span.tag("mode", delta ? "delta" : "full")
      .tag("bytes", blob.size())
      .tag("records", changed)
      .tag("sys_records", snap.sys.size())
      .tag("base_version", acked->version)
      .tag("peer", socket.peer_endpoint().to_string());
  if (!socket.send_all(blob).ok()) {
    span.tag("ok", false);
    return Negotiated::kIoError;
  }
  span.tag("ok", true);
  account_push(delta, blob.size());
  return Negotiated::kOk;
}

void Transmitter::record_push_outcome(ReplicaLink& link, bool ok) {
  if (ok) {
    link.breaker.record_success();
  } else {
    link.breaker.record_failure();
  }
  link.healthy.store(ok, std::memory_order_relaxed);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  // The unlabelled breaker-state gauge keeps tracking the first (primary)
  // replica so pre-cluster dashboards stay meaningful.
  if (&link == replicas_[0].get()) {
    registry.gauge("transmitter_breaker_state")
        ->set(static_cast<double>(static_cast<int>(link.breaker.state())));
  }
  std::uint64_t trips = link.breaker.trips();
  std::uint64_t seen = link.breaker_trips_seen.load(std::memory_order_relaxed);
  while (seen < trips && !link.breaker_trips_seen.compare_exchange_weak(
                             seen, trips, std::memory_order_relaxed)) {
  }
  if (seen < trips) {
    registry.counter("transmitter_breaker_trips_total")->inc(trips - seen);
    SMARTSOCK_LOG(kWarn, "transmitter")
        << "circuit breaker opened after " << link.breaker.consecutive_failures()
        << " consecutive push failures to " << link.endpoint.to_string();
  }
  publish_replica_gauges();
}

std::size_t Transmitter::replicas_healthy() const {
  std::size_t healthy = 0;
  for (const auto& link : replicas_) {
    if (link->healthy.load(std::memory_order_relaxed)) ++healthy;
  }
  return healthy;
}

void Transmitter::publish_replica_gauges() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.gauge("transmitter_replicas_configured")
      ->set(static_cast<double>(replicas_.size()));
  registry.gauge("transmitter_replicas_healthy")
      ->set(static_cast<double>(replicas_healthy()));
}

bool Transmitter::push_cycle(ReplicaLink& link) {
  ipc::SnapshotPtr snap = store_->snapshot();
  bool try_delta = config_.delta_enabled && snap->delta_capable;
  if (try_delta && link.legacy.load(std::memory_order_relaxed)) {
    if (++link.pushes_since_reprobe >= config_.legacy_reprobe_pushes) {
      link.pushes_since_reprobe = 0;
      link.legacy.store(false, std::memory_order_relaxed);
    } else {
      try_delta = false;
    }
  }

  auto socket = net::TcpSocket::connect(link.endpoint, config_.io_timeout);
  if (!socket) {
    SMARTSOCK_LOG(kWarn, "transmitter")
        << "cannot reach receiver " << link.endpoint.to_string();
    return false;
  }
  if (try_delta) {
    Negotiated outcome = push_negotiated(*socket, *snap, link);
    if (outcome == Negotiated::kOk) return true;
    if (outcome == Negotiated::kIoError) return false;
    // No answer to the offer: assume a pre-delta receiver and retry this
    // cycle with the byte-compatible full-snapshot stream.
    link.legacy.store(true, std::memory_order_relaxed);
    link.pushes_since_reprobe = 0;
    SMARTSOCK_LOG(kInfo, "transmitter")
        << "receiver " << link.endpoint.to_string()
        << " did not answer delta offer — falling back to full snapshots";
    socket = net::TcpSocket::connect(link.endpoint, config_.io_timeout);
    if (!socket) return false;
  }
  return send_snapshot(*socket);
}

bool Transmitter::transmit_once() {
  std::lock_guard<std::mutex> lock(push_mu_);
  bool any = false;
  for (auto& link : replicas_) {
    bool ok = push_cycle(*link);
    record_push_outcome(*link, ok);
    any = any || ok;
  }
  return any;
}

bool Transmitter::start() {
  if (thread_.joinable()) return false;
  if (config_.mode == TransferMode::kDistributed && !listener_.valid()) return false;
  stop_requested_.store(false, std::memory_order_release);
  if (config_.mode == TransferMode::kCentralized) {
    thread_ = std::thread([this] { run_push_loop(); });
  } else {
    thread_ = std::thread([this] { run_serve_loop(); });
  }
  return true;
}

void Transmitter::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void Transmitter::run_push_loop() {
  util::Clock& clock = util::SteadyClock::instance();
  obs::Counter* retries =
      obs::MetricsRegistry::instance().counter("transmitter_push_retries_total");
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // Each replica's breaker gates its own push: while open, that replica
    // is skipped until the cooldown elapses, at which point allow() lets
    // one probe through (half-open). The others keep receiving pushes — a
    // dead replica never stalls the healthy ones.
    for (auto& link : replicas_) {
      if (stop_requested_.load(std::memory_order_acquire)) break;
      if (!link->breaker.allow()) continue;
      util::RetryState retry(config_.push_retry, rng_, clock);
      for (;;) {
        bool ok;
        {
          std::lock_guard<std::mutex> lock(push_mu_);
          ok = push_cycle(*link);
          record_push_outcome(*link, ok);
        }
        if (ok || stop_requested_.load(std::memory_order_acquire)) break;
        // A trip mid-cycle ends the retry loop early — the breaker has
        // decided this receiver is down; hammering on defeats its purpose.
        if (link->breaker.state() == util::CircuitBreaker::State::kOpen) break;
        if (!retry.backoff()) break;
        retries->inc();
      }
    }
    util::Duration remaining = config_.interval;
    const util::Duration slice = std::chrono::milliseconds(20);
    while (remaining > util::Duration::zero() &&
           !stop_requested_.load(std::memory_order_acquire)) {
      util::Duration step = std::min(remaining, slice);
      clock.sleep_for(step);
      remaining -= step;
    }
  }
}

void Transmitter::run_serve_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    auto client = listener_.accept(std::chrono::milliseconds(50));
    if (!client) continue;
    client->set_receive_timeout(config_.io_timeout);
    auto frame = read_frame(*client);
    if (!frame || frame->type != FrameType::kUpdateRequest) continue;
    // The wizard's pull carries its trace id as the request payload; echo
    // it so both sides of the transfer land in the same trace. Pulls are
    // request/response with no standing replica state, so they stay full
    // snapshots.
    send_snapshot(*client, frame->payload);
  }
}

}  // namespace smartsock::transport
