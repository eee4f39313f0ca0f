#include "core/wizard.h"

#include <chrono>

#include "obs/span.h"
#include "util/counters.h"
#include "util/logging.h"

namespace smartsock::core {

namespace {

/// Receive-slot size for batched request drains; requirement text dominates
/// a request and stays well under this.
constexpr std::size_t kMaxRequestBytes = 8192;
/// Requests drained per loop wakeup.
constexpr std::size_t kRequestBatch = 64;

/// Reply-cache key: the full request identity minus the sequence number
/// (which is echoed, not computed). '\x01' cannot appear in requirement
/// text, so the key is unambiguous.
std::string reply_key(const UserRequest& request) {
  std::string key = request.detail;
  key += '\x01';
  key += std::to_string(request.server_num);
  key += '\x01';
  key += std::to_string(static_cast<int>(request.option));
  return key;
}

}  // namespace

Wizard::Wizard(WizardConfig config, ipc::StatusStore& store, transport::Receiver* receiver)
    : config_(std::move(config)),
      store_(&store),
      receiver_(receiver),
      matcher_(config_.match_threads),
      requirement_cache_(config_.cache_size),
      reply_cache_(config_.cache_size),
      group_(
          net::UdpShardGroupConfig{
              .name = "wizard",
              .traffic_component = "wizard",
              .bind = config_.bind,
              .shards = config_.ingest_shards,
              .loops_per_shard = config_.handler_threads,
              .pin = config_.pin_shards,
              .rcvbuf_bytes = config_.rcvbuf_bytes,
              .batch = kRequestBatch,
              .max_datagram = kMaxRequestBytes,
          },
          [this](std::vector<net::Datagram>& requests, std::vector<net::Datagram>& replies) {
            return serve_batch(requests, replies);
          }) {
  if (!group_.valid()) SMARTSOCK_LOG(kError, "wizard") << group_.bind_error();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  metrics_.requests = registry.counter("wizard_requests_total");
  metrics_.malformed = registry.counter("wizard_malformed_requests_total");
  metrics_.reply_hits = registry.counter("wizard_reply_cache_hits_total");
  metrics_.reply_misses = registry.counter("wizard_reply_cache_misses_total");
  metrics_.requirement_hits = registry.counter("wizard_requirement_cache_hits_total");
  metrics_.requirement_misses = registry.counter("wizard_requirement_cache_misses_total");
  metrics_.query_errors = registry.counter("wizard_query_errors_total");
  metrics_.stale_replies = registry.counter("wizard_stale_replies_total");
  metrics_.degraded = registry.gauge("wizard_degraded");
  metrics_.latency_us = registry.histogram("wizard_query_latency_us");
}

Wizard::~Wizard() { stop(); }

void Wizard::add_transmitter(const net::Endpoint& endpoint) {
  transmitters_.push_back(endpoint);
}

bool Wizard::degraded() const {
  if (config_.staleness_bound <= util::Duration::zero()) return false;
  std::uint64_t newest = store_->newest_sys_update_ns();
  if (newest == 0) return false;  // empty sysdb: nothing to be stale about
  // Record stamps are on the monitor's clock, which only this host shares
  // when no receiver sits between them; the receiver notes on our clock
  // when the feed last moved.
  std::uint64_t fed = receiver_ != nullptr ? receiver_->fed_at_ns() : newest;
  std::uint64_t now = ipc::steady_now_ns();
  auto bound_ns = static_cast<std::uint64_t>(config_.staleness_bound.count());
  return now > fed && now - fed > bound_ns;
}

WizardReply Wizard::handle(const UserRequest& request, std::uint64_t parent_span) {
  auto started = std::chrono::steady_clock::now();
  // Stale-data degradation: stamped on every serve path at reply time — a
  // cached reply never pins the flag computed when it was stored, and the
  // flag clears as soon as the feed recovers. Evaluated after the
  // distributed-mode pull below, which may itself refresh the feed.
  bool stale_serve = false;
  auto finish = [&](WizardReply& out) -> WizardReply& {
    out.stale = stale_serve;
    // Replica set (ISSUE 8): stamp the version clients pin across failovers.
    // The receiver's committed source version is comparable across replicas;
    // without one (no receiver, or no committed delta transfer yet) fall
    // back to the local store counter, which is still monotone per wizard.
    std::uint64_t replicated =
        receiver_ != nullptr ? receiver_->replicated_version() : 0;
    out.version = replicated != 0 ? replicated : store_->version();
    if (stale_serve) metrics_.stale_replies->inc();
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - started)
                        .count();
    latency_.record_us(micros);
    metrics_.latency_us->record_us(micros);
    return out;
  };
  // Flight-recorder span for the serve path; the match phase nests a child
  // span below so the cache fast paths and the matcher separate on the
  // timeline.
  obs::Span handle_span("wizard", "handle", request.trace_id, parent_span, *config_.spans);
  handle_span.tag("seq", request.sequence).tag("requested", request.server_num);

  WizardReply reply;
  reply.sequence = request.sequence;

  // Distributed mode: refresh the databases on demand (§3.5.1 — reports are
  // sent back only when the wizard asks). Serialized so concurrent handler
  // threads do not interleave pulls from the same transmitter.
  if (config_.mode == transport::TransferMode::kDistributed && receiver_ != nullptr) {
    std::lock_guard<std::mutex> lock(refresh_mu_);
    for (const net::Endpoint& transmitter : transmitters_) {
      receiver_->pull_from(transmitter);
    }
  }

  stale_serve = degraded();
  metrics_.degraded->set(stale_serve ? 1 : 0);

  // Fast path 1: a cached reply computed from the store contents this
  // version still describes. The version is read *before* the records so a
  // concurrent store update can only make the entry look stale, never fresh.
  std::uint64_t version = store_->version();
  std::string key = reply_key(request);
  {
    std::lock_guard<std::mutex> lock(reply_mu_);
    if (CachedReply* cached = reply_cache_.get(key)) {
      if (cached->version == version) {
        ++reply_hits_;
        metrics_.reply_hits->inc();
        reply = cached->reply;
        reply.sequence = request.sequence;
        handle_span.tag("cache", "hit").tag("servers", reply.servers.size());
        return finish(reply);
      }
    }
    ++reply_misses_;
    metrics_.reply_misses->inc();
  }

  // Fast path 2: skip the lexer/parser for known expressions (positive and
  // negative alike).
  lang::RequirementCache::Result compiled = requirement_cache_.get_or_compile(request.detail);
  (compiled.hit ? metrics_.requirement_hits : metrics_.requirement_misses)->inc();
  if (!compiled) {
    reply.ok = false;
    reply.error = "requirement: " + compiled.error;
    metrics_.query_errors->inc();
    handle_span.tag("error", "compile").tag("message", compiled.error);
    return finish(reply);
  }

  // Copy-free hot path (ISSUE 5): one immutable snapshot pointer serves the
  // whole match — no per-query record-vector copies. Between writes every
  // query shares the same cached Snapshot object. The snapshot's version may
  // be newer than the one read above for the cache check; the reply is
  // cached under the snapshot's own version, which is what it was computed
  // from.
  ipc::SnapshotPtr snap = store_->snapshot();
  MatchView input;
  input.sys = snap->sys;
  input.net = snap->net;
  input.sec = snap->sec;
  input.local_group = config_.local_group;

  MatchResult result;
  {
    obs::Span match_span("wizard", "match", request.trace_id, handle_span.id(),
                         *config_.spans);
    match_span.tag("candidates", input.sys.size()).tag("requested", request.server_num);
    result = matcher_.match(*compiled.requirement, input, request.server_num);
    match_span.tag("selected", result.selected.size());
  }
  if (request.option == RequestOption::kStrict &&
      result.selected.size() < request.server_num) {
    reply.ok = false;
    reply.error = "only " + std::to_string(result.selected.size()) + " of " +
                  std::to_string(request.server_num) + " servers qualified";
    metrics_.query_errors->inc();
  } else {
    reply.servers = std::move(result.selected);
  }

  handle_span.tag("ok", reply.ok).tag("servers", reply.servers.size());
  {
    std::lock_guard<std::mutex> lock(reply_mu_);
    reply_cache_.put(key, CachedReply{snap->version, reply});
  }
  return finish(reply);
}

lang::RequirementCache::Stats Wizard::reply_cache_stats() const {
  std::lock_guard<std::mutex> lock(reply_mu_);
  return {reply_hits_, reply_misses_, reply_cache_.evictions(), reply_cache_.size()};
}

std::size_t Wizard::serve_batch(std::vector<net::Datagram>& requests,
                                std::vector<net::Datagram>& replies) {
  for (const net::Datagram& datagram : requests) {
    auto request = UserRequest::from_wire(datagram.payload);
    if (!request) {
      metrics_.malformed->inc();
      SMARTSOCK_LOG(kWarn, "wizard") << "malformed request from " << datagram.peer.to_string();
      continue;
    }
    metrics_.requests->inc();
    obs::Span request_span("wizard", "request", request->trace_id, 0, *config_.spans);
    request_span.tag("seq", request->sequence)
        .tag("peer", datagram.peer.to_string())
        .tag("requested", request->server_num);
    WizardReply reply = handle(*request, request_span.id());
    const std::string& wire =
        replies.emplace_back(net::Datagram{reply.to_wire(), datagram.peer}).payload;
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    request_span.tag("ok", reply.ok)
        .tag("servers", reply.servers.size())
        .tag("bytes", wire.size());
  }
  return replies.size();
}

}  // namespace smartsock::core
