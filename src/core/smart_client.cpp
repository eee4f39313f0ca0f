#include "core/smart_client.h"

#include <chrono>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/counters.h"
#include "util/logging.h"

namespace smartsock::core {

namespace {
std::uint64_t default_seed() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}
}  // namespace

SmartClient::SmartClient(SmartClientConfig config)
    : config_(std::move(config)), rng_(config_.seed ? config_.seed : default_seed()) {
  if (auto sock = net::UdpSocket::create()) {
    socket_ = std::move(*sock);
    socket_.set_traffic_counter(
        obs::MetricsRegistry::instance().traffic("smart_client"));
  }
  // Effective replica list: the cluster when configured, else the single
  // wizard endpoint — one code path serves both shapes.
  std::vector<net::Endpoint> endpoints = config_.cluster.wizards;
  if (endpoints.empty()) endpoints.push_back(config_.wizard);
  util::Clock& clock =
      config_.clock != nullptr ? *config_.clock : util::SteadyClock::instance();
  selector_ = std::make_unique<ReplicaSelector>(std::move(endpoints),
                                                config_.selector, clock);
}

WizardReply SmartClient::query(const std::string& requirement, std::size_t count,
                               RequestOption option) {
  WizardReply failed;
  failed.ok = false;

  if (!socket_.valid()) {
    failed.error = "client socket unavailable";
    return failed;
  }
  if (count == 0 || count > kMaxServersPerReply) {
    failed.error = "server count must be in [1, 60]";
    return failed;
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  obs::Counter* retries_counter = registry.counter("client_query_retries_total");
  obs::Counter* failures_counter = registry.counter("client_query_failures_total");
  obs::Counter* stale_counter = registry.counter("client_stale_replies_total");
  obs::Counter* failover_counter = registry.counter("client_wizard_failovers_total");

  UserRequest request;
  request.server_num = static_cast<std::uint16_t>(count);
  request.option = option;
  request.trace_id = obs::mint_trace_id(rng_);
  request.detail = requirement;

  // Flight-recorder span covering the whole query including resends and
  // failovers, with one child span per send; the wizard records its half
  // under the same trace_id. The query's outcome is tagged once, at return.
  obs::Span span("smart_client", "query", request.trace_id, 0, *config_.spans);
  span.tag("wizard", selector_->endpoint(0).to_string())
      .tag("replicas", selector_->size())
      .tag("requested", count);

  // Resends mint a fresh sequence number so a late duplicate reply to an
  // earlier attempt is unambiguous: any sequence in `sent` answers this
  // query (all attempts ask the same question), anything else is noise
  // from a previous query and is discarded. Each entry remembers which
  // replica it went to and when, so a late reply credits the replica that
  // actually produced it, not the one currently being tried.
  struct SentAttempt {
    std::uint32_t sequence;
    std::size_t replica;
    util::Duration sent_at;
  };
  std::vector<SentAttempt> sent;
  util::Clock& clock =
      config_.clock != nullptr ? *config_.clock : util::SteadyClock::instance();
  // Backoff between resends: attempt count stays `retries + 1` (the
  // pre-policy contract); the policy contributes delay shape and budget.
  // The budget is shared across the whole replica set — switching replicas
  // spends from the same state instead of refilling it.
  util::RetryPolicy policy = config_.retry;
  policy.max_attempts = config_.retries + 1;
  util::RetryState retry(policy, rng_, clock);

  // Hard failures (ECONNREFUSED & co.) skip straight to the next replica
  // without burning a backoff step — the peer proved it is gone, waiting
  // teaches nothing. Bounded at one free pass per replica so a fully
  // refused cluster still exhausts the normal attempt budget.
  int hard_skips_left = static_cast<int>(selector_->size());

  std::size_t current = selector_->select();
  // A reachable-but-lagging replica's answer, held back in case a fresher
  // replica answers a later attempt; served through the stale-token path
  // only when nothing better turns up.
  std::optional<WizardReply> lagging;

  // Switches the next attempt to the selector's current best replica and
  // counts the move as a failover when it lands somewhere new, tagging the
  // attempt that gave up with the replica the next one goes to.
  auto fail_over = [&](obs::Span& attempt_span) {
    std::size_t next = selector_->select();
    if (next != current) {
      failover_counter->inc();
      failovers_.fetch_add(1, std::memory_order_relaxed);
      attempt_span.tag("failover", selector_->endpoint(next).to_string());
      current = next;
    }
  };
  // Tags the query span with its outcome; every return below passes here.
  auto finish = [&](WizardReply out, int attempts) {
    span.tag("ok", out.ok)
        .tag("stale", out.stale)
        .tag("servers", out.servers.size())
        .tag("attempts", attempts);
    return out;
  };

  for (int attempt = 0; /* exit via retry.backoff() */; ++attempt) {
    const net::Endpoint target = selector_->endpoint(current);
    request.sequence = static_cast<std::uint32_t>(rng_.uniform_int(1, 0x7fffffff));
    sent.push_back(SentAttempt{request.sequence, current, clock.now()});
    std::string wire = request.to_wire();
    // One child span per send. It covers the send, the wait for the reply
    // and, when the attempt gives up, the backoff before the next one, so
    // the attempts tile the query span.
    obs::Span attempt_span("smart_client", "attempt", request.trace_id, span.id(),
                           *config_.spans);
    attempt_span.tag("seq", request.sequence)
        .tag("wizard", target.to_string())
        .tag("attempt", attempt);

    net::IoResult send_result = socket_.send_to(wire, target);
    if (!send_result.ok()) {
      bool hard = net::is_hard_peer_error(send_result.error);
      selector_->record_failure(current, hard);
      selector_->publish_health();
      failed.error = "cannot send request to wizard " + target.to_string();
      attempt_span.tag("error", "send");
      if (hard && hard_skips_left > 0) {
        --hard_skips_left;
        fail_over(attempt_span);
        continue;  // no backoff: the peer is provably unreachable
      }
      if (!retry.backoff()) break;
      retries_counter->inc();
      fail_over(attempt_span);
      continue;
    }
    bool hard_receive = false;
    bool answered = false;
    util::Duration deadline = clock.now() + config_.reply_timeout;
    while (clock.now() < deadline) {
      net::IoResult receive_result;
      auto datagram =
          socket_.receive(deadline - clock.now(), 64 * 1024, &receive_result);
      if (!datagram) {
        // A hard receive error (ICMP unreachable surfaced on the socket)
        // is as conclusive as a refused send: demote and move on.
        hard_receive = receive_result.status == net::IoStatus::kError &&
                       net::is_hard_peer_error(receive_result.error);
        break;
      }
      auto reply = WizardReply::from_wire(datagram->payload);
      if (!reply) continue;
      const SentAttempt* matched = nullptr;
      for (const SentAttempt& entry : sent) {
        if (reply->sequence == entry.sequence) {
          matched = &entry;
          break;
        }
      }
      if (matched == nullptr) continue;  // reply to some previous query
      attempt_span.tag("ok", reply->ok)
          .tag("stale", reply->stale)
          .tag("version", reply->version)
          .tag("servers", reply->servers.size());
      // The replica answered: it is alive regardless of what it said.
      double latency_us =
          std::chrono::duration<double, std::micro>(clock.now() - matched->sent_at)
              .count();
      selector_->record_success(matched->replica, latency_us);
      selector_->publish_health();
      answered = true;
      if (reply->ok && reply->version != 0 &&
          reply->version < last_seen_version_.load(std::memory_order_relaxed)) {
        // Monotone snapshot pinning: this replica is behind a version this
        // client has already been served. Hold the answer back and try for
        // a fresher replica; if none turns up it is served through the
        // stale-token path below rather than silently rewinding time.
        lagging = *reply;
        failed = *reply;
        failed.ok = false;
        failed.error = "wizard " + target.to_string() + " lags pinned version " +
                       std::to_string(last_seen_version_.load(std::memory_order_relaxed));
        break;  // out of the receive loop → retry path below
      }
      if (reply->stale) {
        stale_counter->inc();
        if (config_.freshness == FreshnessMode::kStrictFresh) {
          // The wizard is degraded; a later attempt may hit a recovered
          // feed. Remember the stale answer as the would-be failure.
          failed = *reply;
          failed.ok = false;
          failed.error = "wizard degraded: reply computed from stale status data";
          break;  // out of the receive loop → retry path below
        }
      }
      if (reply->ok && reply->version != 0) {
        // CAS-max: concurrent queries only ever ratchet the pin upward.
        std::uint64_t seen = last_seen_version_.load(std::memory_order_relaxed);
        while (seen < reply->version &&
               !last_seen_version_.compare_exchange_weak(seen, reply->version,
                                                         std::memory_order_relaxed)) {
        }
      }
      return finish(*reply, attempt + 1);
    }
    if (!answered) {
      selector_->record_failure(current, hard_receive);
      selector_->publish_health();
      // Exhaustion reports the *last* error, so each attempt overwrites.
      failed.error = hard_receive
                         ? "wizard " + target.to_string() + " unreachable"
                         : "no reply from wizard " + target.to_string();
      attempt_span.tag(hard_receive ? "unreachable" : "timeout", true);
      if (hard_receive && hard_skips_left > 0) {
        --hard_skips_left;
        fail_over(attempt_span);
        continue;  // no backoff
      }
    }
    if (!retry.backoff()) break;
    retries_counter->inc();
    fail_over(attempt_span);
  }
  if (lagging && config_.freshness == FreshnessMode::kBestEffort) {
    // Only a lagging replica was reachable. Serve its answer through the
    // stale path — flagged, never pinned — instead of failing the query.
    WizardReply out = *lagging;
    out.stale = true;
    stale_counter->inc();
    span.tag("lagging", true);
    return finish(std::move(out), retry.attempts());
  }
  failures_counter->inc();
  failed.sequence = sent.empty() ? 0 : sent.back().sequence;
  if (failed.error.empty()) {
    failed.error = "no reply from wizard " + selector_->endpoint(current).to_string();
  }
  return finish(std::move(failed), retry.attempts());
}

SmartConnectResult SmartClient::smart_connect(const std::string& requirement,
                                              std::size_t count, RequestOption option) {
  SmartConnectResult result;

  WizardReply reply = query(requirement, count, option);
  result.stale = reply.stale;
  if (!reply.ok) {
    result.error = reply.error;
    return result;
  }
  if (reply.servers.empty()) {
    result.error = "no servers qualified";
    return result;
  }

  for (const ServerEntry& server : reply.servers) {
    auto endpoint = net::Endpoint::parse(server.address);
    if (!endpoint) {
      SMARTSOCK_LOG(kWarn, "smart_client")
          << server.host << ": bad service address '" << server.address << "'";
      continue;
    }
    auto socket = net::TcpSocket::connect(*endpoint, config_.connect_timeout);
    if (!socket) {
      SMARTSOCK_LOG(kWarn, "smart_client")
          << server.host << ": connection to " << server.address << " failed";
      continue;
    }
    result.sockets.push_back(SmartSocket{server, std::move(*socket)});
  }

  if (result.sockets.empty()) {
    result.error = "no candidate server accepted a connection";
    return result;
  }
  if (option == RequestOption::kStrict && result.sockets.size() < count) {
    result.error = "connected to " + std::to_string(result.sockets.size()) + " of " +
                   std::to_string(count) + " required servers";
    result.sockets.clear();
    return result;
  }
  result.ok = true;
  return result;
}

std::optional<SmartSocket> SmartClient::find_replacement(
    const std::string& requirement, const std::vector<std::string>& exclude) {
  // Ask for enough candidates that filtering the excluded hosts can still
  // leave one, bounded by the reply cap.
  std::size_t count = std::min(exclude.size() + 1, kMaxServersPerReply);
  WizardReply reply = query(requirement, count, RequestOption::kBestEffort);
  if (!reply.ok) return std::nullopt;

  for (const ServerEntry& server : reply.servers) {
    bool excluded = false;
    for (const std::string& name : exclude) {
      if (server.host == name || server.address == name) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    auto endpoint = net::Endpoint::parse(server.address);
    if (!endpoint) continue;
    auto socket = net::TcpSocket::connect(*endpoint, config_.connect_timeout);
    if (!socket) continue;  // next candidate — recovery must not give up early
    return SmartSocket{server, std::move(*socket)};
  }
  return std::nullopt;
}

SmartConnectResult SmartClient::smart_connect_file(const std::string& requirement_path,
                                                   std::size_t count, RequestOption option) {
  std::ifstream in(requirement_path);
  if (!in) {
    SmartConnectResult result;
    result.error = "cannot open requirement file: " + requirement_path;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return smart_connect(buffer.str(), count, option);
}

}  // namespace smartsock::core
