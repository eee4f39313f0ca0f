#include "transport/receiver.h"

#include <algorithm>
#include <functional>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/counters.h"
#include "util/logging.h"

namespace smartsock::transport {

namespace {

/// Applies one tombstone frame: decode the key array and erase each key.
/// Erasing a key that was already recreated locally is prevented by frame
/// order — the transmitter sends tombstones before the delta records that
/// may recreate them.
template <typename Key, typename Erase>
bool apply_tombstones(std::string_view payload, Erase erase) {
  auto keys = decode_records<Key>(payload);
  if (!keys) return false;
  for (const Key& key : *keys) erase(key);
  return true;
}

template <typename Record, typename Put>
bool apply_upserts(std::string_view payload, Put put) {
  auto records = decode_records<Record>(payload);
  if (!records) return false;
  for (const Record& record : *records) put(record);
  return true;
}

}  // namespace

// One transfer's frame state machine. The pull path feeds it whole frames
// from read_frame; the reactor path feeds it frames cut out of the
// connection's input buffer by try_parse_frame. Both end in finish(), which
// seals the span and the counters exactly once.
struct Receiver::IngestSession {
  Receiver* owner;
  std::function<bool(std::string)> send_reply;  // kDeltaAccept transport
  obs::Span span;

  std::size_t frames = 0;
  bool applied = false;
  // Delta-transfer state for this connection. An offer names the source;
  // the commit at the end is what advances replica_states_ for it.
  bool saw_offer = false;
  bool saw_full_db = false;
  bool saw_delta_frames = false;
  bool committed = false;
  std::uint64_t source_id = 0;
  // Feed age: the newest sys stamp this transfer applied, and the key of
  // the monitor whose clock stamped it (the offer's source_id; a pull's
  // transmitter endpoint; 0 for an un-offered push).
  std::uint64_t newest_sys_ns = 0;
  std::uint64_t feed_source = 0;
  // A damaged stream — truncated frame, unknown type, oversized or
  // undecodable payload — aborts the connection instead of masquerading as
  // end-of-snapshot (the pre-ISSUE-3 behaviour silently dropped the rest of
  // the transfer).
  const char* damage = nullptr;
  bool finished = false;

  IngestSession(Receiver* owner, std::string_view trace_id,
                std::function<bool(std::string)> send, std::string_view peer)
      : owner(owner), send_reply(std::move(send)), span("receiver", "ingest", trace_id) {
    span.tag("peer", peer);
  }

  /// Applies one frame; false means the stream is damaged and the
  /// connection must be aborted.
  bool on_frame(const Frame& frame) {
    if (!owner->config_.delta_enabled && frame.type > FrameType::kTraceContext) {
      // Pre-delta behaviour: replication frames are outside the known range
      // and desync the stream. Keeps this build usable as an "old receiver"
      // in compatibility tests.
      damage = to_string(FrameReadError::kBadType);
      return false;
    }
    ++frames;
    switch (frame.type) {
      case FrameType::kTraceContext:
        // The transmitter's trace id for this snapshot — adopt it so both
        // halves of the transfer reconstruct as one trace.
        span.set_trace_id(frame.payload);
        break;
      case FrameType::kSysDb:
        if (auto records = decode_records<ipc::SysRecord>(frame.payload)) {
          owner->store_->replace_sys(*records);
          for (const ipc::SysRecord& r : *records) note_sys_stamp(r);
          applied = true;
          saw_full_db = true;
        } else {
          damage = "undecodable sys records";
        }
        break;
      case FrameType::kNetDb:
        if (auto records = decode_records<ipc::NetRecord>(frame.payload)) {
          owner->store_->replace_net(*records);
          applied = true;
          saw_full_db = true;
        } else {
          damage = "undecodable net records";
        }
        break;
      case FrameType::kSecDb:
        if (auto records = decode_records<ipc::SecRecord>(frame.payload)) {
          owner->store_->replace_sec(*records);
          applied = true;
          saw_full_db = true;
        } else {
          damage = "undecodable sec records";
        }
        break;
      case FrameType::kDeltaOffer: {
        auto offer = decode_delta_offer(frame.payload);
        if (!offer) {
          damage = "undecodable delta offer";
          break;
        }
        saw_offer = true;
        source_id = offer->source_id;
        feed_source = source_id;
        DeltaState acked{};
        {
          std::lock_guard<std::mutex> lock(owner->replica_mu_);
          auto it = owner->replica_states_.find(source_id);
          if (it != owner->replica_states_.end()) acked = it->second;
        }
        if (!send_reply(encode_frame(FrameType::kDeltaAccept, encode_delta_state(acked)))) {
          damage = "delta accept send failed";
        }
        break;
      }
      case FrameType::kSysTombstone:
        saw_delta_frames = true;
        if (!apply_tombstones<ipc::SysKey>(frame.payload, [this](const ipc::SysKey& k) {
              owner->store_->erase_sys(k);
            })) {
          damage = "undecodable sys tombstones";
        }
        break;
      case FrameType::kNetTombstone:
        saw_delta_frames = true;
        if (!apply_tombstones<ipc::NetKey>(frame.payload, [this](const ipc::NetKey& k) {
              owner->store_->erase_net(k);
            })) {
          damage = "undecodable net tombstones";
        }
        break;
      case FrameType::kSecTombstone:
        saw_delta_frames = true;
        if (!apply_tombstones<ipc::SecKey>(frame.payload, [this](const ipc::SecKey& k) {
              owner->store_->erase_sec(k);
            })) {
          damage = "undecodable sec tombstones";
        }
        break;
      case FrameType::kSysDelta:
        saw_delta_frames = true;
        if (!apply_upserts<ipc::SysRecord>(frame.payload, [this](const ipc::SysRecord& r) {
              owner->store_->put_sys(r);
              note_sys_stamp(r);
            })) {
          damage = "undecodable sys delta";
        }
        break;
      case FrameType::kNetDelta:
        saw_delta_frames = true;
        if (!apply_upserts<ipc::NetRecord>(frame.payload, [this](const ipc::NetRecord& r) {
              owner->store_->put_net(r);
            })) {
          damage = "undecodable net delta";
        }
        break;
      case FrameType::kSecDelta:
        saw_delta_frames = true;
        if (!apply_upserts<ipc::SecRecord>(frame.payload, [this](const ipc::SecRecord& r) {
              owner->store_->put_sec(r);
            })) {
          damage = "undecodable sec delta";
        }
        break;
      case FrameType::kDeltaCommit: {
        auto state = decode_delta_state(frame.payload);
        if (!state || !saw_offer) {
          damage = !state ? "undecodable delta commit" : "commit without offer";
          break;
        }
        {
          std::lock_guard<std::mutex> lock(owner->replica_mu_);
          owner->replica_states_[source_id] = *state;
        }
        // Monotonic CAS-max: concurrent pushes from multiple transmitters
        // must never move the published replicated version backwards.
        {
          std::uint64_t seen =
              owner->replicated_version_.load(std::memory_order_relaxed);
          while (seen < state->version &&
                 !owner->replicated_version_.compare_exchange_weak(
                     seen, state->version, std::memory_order_relaxed)) {
          }
        }
        committed = true;
        applied = true;
        break;
      }
      case FrameType::kDeltaAccept:
        damage = "unexpected delta accept";  // receiver-to-transmitter only
        break;
      case FrameType::kUpdateRequest:
        break;  // not meaningful on this side
    }
    return damage == nullptr;
  }

  void note_sys_stamp(const ipc::SysRecord& record) {
    newest_sys_ns = std::max(newest_sys_ns, record.updated_ns);
  }

  /// Seals the transfer: span tags, counters, warn log on damage. Safe to
  /// call more than once; only the first call counts. Returns whether the
  /// transfer applied anything (false for damaged streams).
  bool finish() {
    if (finished) return damage == nullptr && applied;
    finished = true;
    // An incremental transfer counts only once sealed by its commit; an
    // empty delta (heartbeat with no changes) still counts — the replica
    // provably caught up to the transmitter's version.
    bool delta_applied = committed && !saw_full_db;
    span.tag("frames", frames)
        .tag("applied", applied)
        .tag("delta", delta_applied)
        .tag("delta_frames", saw_delta_frames)
        .tag("damaged", damage != nullptr);
    if (damage != nullptr) {
      owner->malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::instance().counter("receiver_malformed_frames_total")->inc();
      SMARTSOCK_LOG(kWarn, "receiver")
          << "aborting ingest connection on damaged frame stream: " << damage;
      return false;
    }
    if (delta_applied) {
      owner->deltas_applied_.fetch_add(1, std::memory_order_relaxed);
      owner->deltas_applied_counter_->inc();
    }
    if (applied) {
      if (newest_sys_ns != 0) owner->note_feed(feed_source, newest_sys_ns);
      // Release: a caller that sees the count also sees fed_at_ns().
      owner->snapshots_received_.fetch_add(1, std::memory_order_release);
    }
    return applied;
  }
};

void Receiver::note_feed(std::uint64_t source, std::uint64_t newest_sys_ns) {
  std::lock_guard<std::mutex> lock(replica_mu_);
  // Stamps from one source share one clock, so only they compare.
  std::uint64_t& previous = feed_stamps_[source];
  if (newest_sys_ns > previous) {
    fed_at_ns_.store(ipc::steady_now_ns(), std::memory_order_relaxed);
  }
  previous = newest_sys_ns;
}

Receiver::Receiver(ReceiverConfig config, ipc::StatusStore& store)
    : config_(std::move(config)),
      store_(&store),
      traffic_(obs::MetricsRegistry::instance().traffic("receiver")),
      deltas_applied_counter_(
          obs::MetricsRegistry::instance().counter("receiver_delta_applied_total")),
      rng_(config_.retry_seed) {
  if (auto listener = net::TcpListener::listen(config_.bind)) {
    listener_ = std::move(*listener);
    endpoint_ = listener_.local_endpoint();
  }
}

Receiver::~Receiver() { stop(); }

bool Receiver::ingest(net::TcpSocket& socket, std::string_view trace_id,
                      std::string_view transmitter) {
  socket.set_traffic_counter(traffic_);
  socket.set_receive_timeout(config_.io_timeout);
  socket.set_send_timeout(config_.io_timeout);
  IngestSession session(
      this, trace_id, [&socket](std::string bytes) { return socket.send_all(bytes).ok(); },
      socket.peer_endpoint().to_string());
  session.feed_source = std::hash<std::string_view>{}(transmitter);
  if (!transmitter.empty()) session.span.tag("transmitter", transmitter);
  // One connection carries up to three database frames; a clean EOF on a
  // frame boundary ends it.
  FrameReadError why = FrameReadError::kNone;
  while (session.damage == nullptr) {
    auto frame = read_frame(socket, &why);
    if (!frame) {
      if (why != FrameReadError::kEof) session.damage = to_string(why);
      break;
    }
    if (!session.on_frame(*frame)) break;
  }
  bool applied = session.finish();
  if (session.damage != nullptr) {
    socket.close();
    return false;
  }
  return applied;
}

// --- reactor-hosted serving (ISSUE 6) -----------------------------------------

struct Receiver::ClientState {
  std::unique_ptr<IngestSession> session;
  net::TimerId idle_timer = 0;
};

void Receiver::arm_idle_timer(net::Connection& client, ClientState& state) {
  if (!client.alive()) return;  // on_close already cancelled the timers
  if (state.idle_timer != 0) reactor_->cancel_timer(state.idle_timer);
  net::Connection* raw = &client;
  // Matches the pull path's receive timeout: a transmitter that stalls
  // mid-transfer is a truncated stream, not a clean end.
  state.idle_timer = reactor_->add_timer(config_.io_timeout, [raw] {
    auto held = std::static_pointer_cast<ClientState>(raw->user_data);
    held->idle_timer = 0;
    held->session->damage = to_string(FrameReadError::kTruncated);
    held->session->finish();
    raw->close_now();
  });
}

void Receiver::on_client_data(net::Connection& client) {
  auto state = std::static_pointer_cast<ClientState>(client.user_data);
  arm_idle_timer(client, *state);  // any progress resets the deadline
  Frame frame;
  std::size_t consumed = 0;
  FrameReadError why = FrameReadError::kNone;
  while (!client.closing()) {
    FrameParseStatus status = try_parse_frame(client.input(), &frame, &consumed, &why);
    if (status == FrameParseStatus::kNeedMore) return;
    if (status == FrameParseStatus::kBad) {
      state->session->damage = to_string(why);
      state->session->finish();
      client.close_now();
      return;
    }
    client.consume(consumed);
    if (!state->session->on_frame(frame)) {
      state->session->finish();
      client.close_now();
      return;
    }
  }
}

void Receiver::on_client(net::TcpSocket socket) {
  socket.set_traffic_counter(traffic_);
  net::ConnectionHandler handler;
  handler.label = "receiver_ingest";
  handler.on_data = [this](net::Connection& client) { on_client_data(client); };
  handler.on_close = [this](net::Connection& client, bool clean) {
    auto state = std::static_pointer_cast<ClientState>(client.user_data);
    if (state) {
      if (state->idle_timer != 0) reactor_->cancel_timer(state->idle_timer);
      if (state->session && !state->session->finished) {
        if (!clean) {
          state->session->damage = to_string(FrameReadError::kTruncated);
        } else if (!client.input().empty()) {
          // Clean close mid-frame: the tail of the stream never arrived.
          state->session->damage = to_string(FrameReadError::kTruncated);
        }
        state->session->finish();
      }
    }
    clients_.erase(&client);
  };
  net::Connection* client = reactor_->add_connection(std::move(socket), handler);
  if (client == nullptr) return;
  // try_parse_frame only completes once the whole frame is buffered, so the
  // input cap must admit the largest legal frame; the reactor default (1 MiB)
  // would pause reading forever on a large snapshot.
  client->set_input_limit(kMaxFramePayload + 8);
  clients_.insert(client);
  auto state = std::make_shared<ClientState>();
  net::Connection* raw = client;
  state->session = std::make_unique<IngestSession>(
      this, std::string_view{},
      [raw](std::string bytes) {
        raw->send(bytes);
        return true;  // buffered; a dead peer surfaces via on_close
      },
      client->socket().peer_endpoint().to_string());
  client->user_data = state;
  arm_idle_timer(*client, *state);
}

bool Receiver::pull_once(const net::Endpoint& transmitter) {
  auto socket = net::TcpSocket::connect(transmitter, config_.io_timeout);
  if (!socket) {
    SMARTSOCK_LOG(kWarn, "receiver")
        << "cannot reach transmitter " << transmitter.to_string();
    return false;
  }
  // The pull's trace id travels as the request payload; the transmitter
  // echoes it in its kTraceContext frame, so either side's ring shows the
  // same id for this transfer.
  std::string trace_id = obs::mint_trace_id(rng_);
  if (!socket->send_all(encode_frame(FrameType::kUpdateRequest, trace_id)).ok()) {
    return false;
  }
  return ingest(*socket, trace_id, transmitter.to_string());
}

bool Receiver::pull_from(const net::Endpoint& transmitter) {
  std::lock_guard<std::mutex> lock(pull_mu_);
  util::RetryState retry(config_.pull_retry, rng_, util::SteadyClock::instance());
  obs::Counter* retries =
      obs::MetricsRegistry::instance().counter("receiver_pull_retries_total");
  while (true) {
    if (pull_once(transmitter)) return true;
    if (!retry.backoff()) return false;
    retries->inc();
  }
}

bool Receiver::start() {
  if (!listener_.valid() || reactor_ != nullptr) return false;
  if (config_.reactor != nullptr) {
    reactor_ = config_.reactor;
  } else {
    own_reactor_ = std::make_unique<net::Reactor>();
    reactor_ = own_reactor_.get();
  }
  listener_id_ = reactor_->add_listener(
      &listener_, [this](net::TcpSocket socket) { on_client(std::move(socket)); },
      "receiver_accept");
  if (own_reactor_ && !own_reactor_->start()) {
    own_reactor_.reset();
    reactor_ = nullptr;
    return false;
  }
  return true;
}

void Receiver::stop() {
  if (reactor_ == nullptr) return;
  net::Reactor* reactor = reactor_;
  if (own_reactor_) own_reactor_->stop();
  reactor->run_on_loop([this] {
    if (listener_id_ != 0) reactor_->remove_listener(listener_id_);
    std::vector<net::Connection*> open(clients_.begin(), clients_.end());
    for (net::Connection* client : open) client->close_now();
  });
  listener_id_ = 0;
  own_reactor_.reset();
  reactor_ = nullptr;
}

}  // namespace smartsock::transport
