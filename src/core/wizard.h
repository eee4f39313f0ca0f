// Wizard daemon (§3.6.1).
//
// Listens for user requests on a UDP service port (UDP so a request burst
// cannot exhaust descriptors with TIME_WAIT connections — the thesis's
// reasoning) and processes them through the query fast path:
//   1. parse the request (Table 3.5),
//   2. refresh the local databases — a no-op in centralized mode where the
//      receiver keeps them fresh; in distributed mode, pull from every
//      registered transmitter,
//   3. look the reply up in the store-version-validated reply cache (the
//      MDS2 result-caching lever); on miss, fetch the compiled requirement
//      from the LRU requirement cache (compiling only on a cold expression)
//      and run the matcher over sysdb/netdb/secdb,
//   4. reply with the candidate list (Table 3.6) under the same sequence
//      number.
// The service port is a net::UdpShardGroup: `ingest_shards` reuseport
// sockets, each drained by `handler_threads` reactor loops that take a batch
// of requests per wakeup and send the batch's replies with one sendmmsg.
// The default, one shard and one loop, runs the same drain.
#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "core/server_matcher.h"
#include "ipc/status_store.h"
#include "lang/requirement_cache.h"
#include "net/udp_shard_group.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "transport/receiver.h"
#include "transport/transmitter.h"
#include "util/counters.h"
#include "util/lru.h"

namespace smartsock::core {

struct WizardConfig {
  net::Endpoint bind = net::Endpoint::loopback(0);
  transport::TransferMode mode = transport::TransferMode::kCentralized;
  std::string local_group = "local";

  /// Reactor loops draining each request socket; the kernel hands each
  /// datagram to exactly one of them.
  std::size_t handler_threads = 1;

  /// Request sockets bound to the service port. More than one joins them in
  /// an SO_REUSEPORT group, and the kernel spreads clients across them by
  /// 4-tuple; replies leave from the same port, so clients see the same
  /// protocol at any shard count.
  std::size_t ingest_shards = 1;

  /// With more than one shard, pin loop i to the i-th CPU this process may
  /// run on. Best-effort.
  bool pin_shards = true;

  /// SO_RCVBUF for the request sockets; 0 keeps the kernel default.
  int rcvbuf_bytes = 0;

  /// Threads per matcher pass over the sys records (<= 1: serial scan).
  std::size_t match_threads = 1;
  /// Capacity of the compiled-requirement cache and of the reply cache;
  /// 0 disables both (every request compiles and matches from scratch).
  std::size_t cache_size = 128;

  /// Graceful degradation: when the feed is older than this bound, the
  /// wizard keeps answering from the stale databases but marks replies with
  /// the `stale` wire flag and raises the `wizard_degraded` gauge. With a
  /// receiver the feed's age is the time since a transfer last carried a
  /// sys stamp newer than its monitor's previous one (Receiver::fed_at_ns);
  /// without one it is the newest sys record's age. Zero (the default)
  /// disables the check.
  util::Duration staleness_bound{0};

  /// Span ring request/handle/match spans record into (ISSUE 9): lets the
  /// fleet harness give each in-process replica its own ring, mirroring
  /// one-ring-per-daemon production. Default: the process-wide store.
  obs::SpanStore* spans = &obs::SpanStore::instance();
};

class Wizard {
 public:
  /// `store` is the wizard machine's status store. `receiver` may be null in
  /// centralized deployments where someone else maintains the store; in
  /// distributed mode it performs the pulls.
  Wizard(WizardConfig config, ipc::StatusStore& store,
         transport::Receiver* receiver = nullptr);
  ~Wizard();

  Wizard(const Wizard&) = delete;
  Wizard& operator=(const Wizard&) = delete;

  /// Registers a passive transmitter to pull from in distributed mode.
  void add_transmitter(const net::Endpoint& endpoint);

  /// The UDP endpoint clients send requests to.
  net::Endpoint endpoint() const { return group_.endpoint(); }

  /// Builds the reply for a request (exposed for tests — no sockets).
  /// `parent_span` links the handle span under the caller's flight-recorder
  /// span (0 = root).
  WizardReply handle(const UserRequest& request, std::uint64_t parent_span = 0);

  bool start() { return group_.start(); }
  void stop() { group_.stop(); }

  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Whether the status feed currently exceeds the staleness bound (always
  /// false when the bound is disabled or the sysdb is empty).
  bool degraded() const;
  bool valid() const { return group_.valid(); }
  /// Why the construction-time UDP bind failed; empty when valid().
  const std::string& bind_error() const { return group_.bind_error(); }

  /// Fast-path observability.
  const lang::RequirementCache& requirement_cache() const { return requirement_cache_; }
  lang::RequirementCache::Stats reply_cache_stats() const;
  const util::LatencyRecorder& latency() const { return latency_; }

  /// Sockets actually bound into the reuseport group (fewer than configured
  /// when a member bind failed).
  std::size_t ingest_shards() const { return group_.shards(); }

 private:
  /// The shard group's handler: one reply per well-formed request.
  std::size_t serve_batch(std::vector<net::Datagram>& requests,
                          std::vector<net::Datagram>& replies);

  WizardConfig config_;
  ipc::StatusStore* store_;
  transport::Receiver* receiver_;
  std::vector<net::Endpoint> transmitters_;
  ServerMatcher matcher_;

  lang::RequirementCache requirement_cache_;

  // Reply cache: complete selections keyed by (requirement text, count,
  // option), valid only while the store version they were computed from is
  // current. Compile-error replies are not cached here — the requirement
  // cache's negative entries already make those cheap.
  struct CachedReply {
    std::uint64_t version = 0;
    WizardReply reply;
  };
  mutable std::mutex reply_mu_;
  util::LruMap<std::string, CachedReply> reply_cache_;
  std::uint64_t reply_hits_ = 0;
  std::uint64_t reply_misses_ = 0;

  util::LatencyRecorder latency_;

  // Process-wide metrics (obs::MetricsRegistry). Shared across wizard
  // instances by name; pointers are registry-owned and process-lifetime.
  struct Metrics {
    obs::Counter* requests = nullptr;
    obs::Counter* malformed = nullptr;
    obs::Counter* reply_hits = nullptr;
    obs::Counter* reply_misses = nullptr;
    obs::Counter* requirement_hits = nullptr;
    obs::Counter* requirement_misses = nullptr;
    obs::Counter* query_errors = nullptr;
    obs::Counter* stale_replies = nullptr;
    obs::Gauge* degraded = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  Metrics metrics_;

  std::mutex refresh_mu_;  // serializes distributed-mode pulls
  std::atomic<std::uint64_t> requests_served_{0};

  // Last member: its loops call into everything above.
  net::UdpShardGroup group_;
};

}  // namespace smartsock::core
