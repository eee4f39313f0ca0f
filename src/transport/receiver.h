// Receiver (§3.5.2).
//
// Runs on the wizard machine; mirrors the monitor machine's databases into
// the wizard-side store so "the wizard can directly use the contents as if
// they were generated locally". Centralized mode accepts pushes from one or
// more transmitters; distributed mode pulls on demand when the wizard gets a
// user request.
//
// ISSUE 5: a delta-capable transmitter opens its push with kDeltaOffer; the
// receiver answers with the (epoch, version) it last committed for that
// source and then applies the incoming record/tombstone frames in place.
// Replica state advances only on kDeltaCommit, so a transfer cut short by
// the network is simply re-covered by the next push (upserts and tombstone
// deletes are idempotent).
//
// ISSUE 6: started receivers host their listener on a net::Reactor (their
// own, or a shared per-daemon loop via config.reactor). Every pushing
// transmitter becomes one Connection whose buffered input is fed through the
// incremental frame parser, so many concurrent pushes interleave on one
// loop thread instead of serializing behind a blocking accept loop. The
// distributed-mode pull_from() stays a blocking call on the caller's thread.
//
// Feed age: record stamps are the monitor's steady clock, shipped byte for
// byte, so on another host they say nothing about how old the feed is here.
// The receiver notes on its own clock when a transfer last carried a sys
// stamp newer than the previous one from the same monitor (fed_at_ns()); a
// wizard built with its receiver measures staleness from that note.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ipc/status_store.h"
#include "net/reactor.h"
#include "net/tcp_listener.h"
#include "obs/metrics.h"
#include "transport/record_codec.h"
#include "util/clock.h"
#include "util/retry.h"
#include "util/rng.h"

namespace smartsock::transport {

struct ReceiverConfig {
  net::Endpoint bind = net::Endpoint::loopback(0);
  util::Duration io_timeout = std::chrono::seconds(2);
  /// Distributed-mode pulls retry through this policy (connect refused,
  /// damaged stream). max_attempts = 1 disables retrying.
  util::RetryPolicy pull_retry{};
  /// Seed for the retry jitter (deterministic in tests).
  std::uint64_t retry_seed = 0x5ec04dca45ull;

  /// Answer delta offers and apply incremental pushes. Off = behave exactly
  /// like a pre-ISSUE-5 receiver: any replication frame beyond the original
  /// five types aborts the connection as a damaged stream.
  bool delta_enabled = true;

  /// Shared per-daemon event loop; null = the receiver runs its own reactor.
  net::Reactor* reactor = nullptr;
};

class Receiver {
 public:
  Receiver(ReceiverConfig config, ipc::StatusStore& store);
  ~Receiver();

  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  /// The TCP endpoint transmitters push to (resolved after bind).
  net::Endpoint endpoint() const { return endpoint_; }

  /// Centralized mode: reactor-hosted accept loop.
  bool start();
  void stop();

  /// Distributed mode: connects to a passive transmitter, requests an
  /// update and ingests the reply. Returns true on success.
  bool pull_from(const net::Endpoint& transmitter);

  std::uint64_t snapshots_received() const {
    return snapshots_received_.load(std::memory_order_acquire);
  }
  /// Highest source (monitor-store) version committed by any transmitter's
  /// kDeltaCommit so far. Unlike the local store's write counter, this value
  /// is identical across every wizard replica that applied the same push —
  /// it is what replies stamp for the client's monotone-version pinning
  /// (ISSUE 8). Zero until the first committed transfer (legacy full
  /// snapshots carry no commit frame).
  std::uint64_t replicated_version() const {
    return replicated_version_.load(std::memory_order_relaxed);
  }
  /// Committed incremental transfers (subset of snapshots_received).
  std::uint64_t deltas_applied() const {
    return deltas_applied_.load(std::memory_order_relaxed);
  }
  /// Connections aborted because of a damaged frame stream (truncated,
  /// bad type, oversized, or undecodable records). Mirrors the
  /// `receiver_malformed_frames_total` registry counter.
  std::uint64_t malformed_frames() const {
    return malformed_frames_.load(std::memory_order_relaxed);
  }
  /// ipc::steady_now_ns() on this host when an applied transfer last carried
  /// a sys stamp newer than its source's previous transfer did; zero until
  /// one has.
  std::uint64_t fed_at_ns() const { return fed_at_ns_.load(std::memory_order_relaxed); }
  bool valid() const { return listener_.valid(); }

 private:
  /// One transfer's frame state machine, shared by the blocking pull path
  /// and the reactor's incremental parse path (defined in receiver.cpp).
  struct IngestSession;
  struct ClientState;

  /// `trace_id` and `transmitter` tag the ingest span on the pull path; the
  /// push path starts untraced and adopts the id from the kTraceContext
  /// frame.
  bool ingest(net::TcpSocket& socket, std::string_view trace_id = {},
              std::string_view transmitter = {});
  bool pull_once(const net::Endpoint& transmitter);
  /// Called after each applied transfer that carried sys records: updates
  /// fed_at_ns() when `newest_sys_ns` beats `source`'s previous one.
  void note_feed(std::uint64_t source, std::uint64_t newest_sys_ns);

  void on_client(net::TcpSocket socket);         // loop thread
  void on_client_data(net::Connection& client);  // loop thread
  void arm_idle_timer(net::Connection& client, ClientState& state);

  ReceiverConfig config_;
  ipc::StatusStore* store_;
  net::TcpListener listener_;
  net::Endpoint endpoint_;
  // Registry-owned; shared by every ingest connection instead of
  // registering a fresh counter per accept.
  util::TrafficCounter* traffic_ = nullptr;
  obs::Counter* deltas_applied_counter_ = nullptr;

  std::mutex pull_mu_;  // serializes pull retries (shares rng_)
  util::Rng rng_;

  /// Last committed (epoch, version) per transmitter source_id. Only a
  /// kDeltaCommit advances an entry, so half-applied transfers never narrow
  /// the version range the next push must cover.
  std::mutex replica_mu_;
  std::unordered_map<std::uint64_t, DeltaState> replica_states_;
  /// Newest sys stamp of each source's last transfer that carried any.
  std::unordered_map<std::uint64_t, std::uint64_t> feed_stamps_;

  std::unique_ptr<net::Reactor> own_reactor_;
  net::Reactor* reactor_ = nullptr;  // non-null while started
  net::ListenerId listener_id_ = 0;
  std::unordered_set<net::Connection*> clients_;  // loop-thread-only

  std::atomic<std::uint64_t> snapshots_received_{0};
  std::atomic<std::uint64_t> deltas_applied_{0};
  std::atomic<std::uint64_t> malformed_frames_{0};
  std::atomic<std::uint64_t> replicated_version_{0};
  std::atomic<std::uint64_t> fed_at_ns_{0};
};

}  // namespace smartsock::transport
