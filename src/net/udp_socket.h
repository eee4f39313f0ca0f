// UDP datagram socket.
//
// UDP carries the low-overhead paths of the system: probe status reports
// (§3.2.1), wizard request/reply (§3.6.1) and the one-way bandwidth probes
// (§3.3.2) — the thesis picks UDP precisely to keep probing overhead small.
//
// The batched interface (try_receive_batch/send_batch) moves whole bursts per
// syscall via recvmmsg/sendmmsg on Linux, with a portable single-syscall
// fallback, and is the substrate of net::UdpShardGroup. Fault injection
// applies per-datagram inside a batch so the chaos suites bite identically
// on the fast path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.h"

namespace smartsock::net {

struct Datagram {
  std::string payload;
  Endpoint peer;
};

/// Options applied between socket() and bind() for ingest sockets.
struct UdpBindOptions {
  /// Join (or found) an SO_REUSEPORT group: every socket bound with this
  /// flag to the same address shares the port, and the kernel hashes each
  /// sender's 4-tuple to pick the receiving socket. One sender socket
  /// therefore always lands on the same shard.
  bool reuse_port = false;

  /// SO_RCVBUF sizing; 0 keeps the kernel default. Bursts beyond the buffer
  /// are dropped by the kernel — visible via track_kernel_drops.
  int rcvbuf_bytes = 0;

  /// Enable SO_RXQ_OVFL: the kernel attaches its cumulative drop counter to
  /// every received datagram, surfaced through kernel_drops(). Only the
  /// batched mmsg receive path reads the counter.
  bool track_kernel_drops = false;
};

class UdpSocket : public Socket {
 public:
  UdpSocket() = default;

  /// Creates an unbound UDP socket.
  static std::optional<UdpSocket> create();

  /// Creates and binds; port 0 requests an ephemeral port (read back with
  /// local_endpoint()).
  static std::optional<UdpSocket> bind(const Endpoint& endpoint);

  /// Creates and binds with ingest options (reuseport group membership,
  /// receive-buffer sizing, kernel drop accounting).
  static std::optional<UdpSocket> bind(const Endpoint& endpoint,
                                       const UdpBindOptions& options);

  /// Sends one datagram; returns bytes sent, accounting to the counter.
  IoResult send_to(std::string_view payload, const Endpoint& peer);

  /// Receives one datagram of up to max_size bytes. Honors SO_RCVTIMEO.
  IoResult receive_from(std::string& payload, Endpoint& peer, std::size_t max_size = 64 * 1024);

  /// Non-blocking receive (MSG_DONTWAIT): returns kTimeout immediately when
  /// the socket buffer is empty, regardless of SO_RCVTIMEO. Lets an ingest
  /// loop drain a burst of datagrams in one wakeup, resizing `payload` in
  /// place so a reused string stops allocating after the first call.
  IoResult try_receive_from(std::string& payload, Endpoint& peer,
                            std::size_t max_size = 64 * 1024);

  /// Convenience: receive with timeout applied for just this call. When
  /// `result_out` is non-null it carries the full IoResult — status and
  /// errno — so failover-aware callers (ISSUE 8) can tell a hard peer error
  /// (ECONNREFUSED from a dead replica) from an ordinary timeout.
  std::optional<Datagram> receive(util::Duration timeout, std::size_t max_size = 64 * 1024,
                                  IoResult* result_out = nullptr);

  // --- batched I/O (ROADMAP item 2) ---------------------------------------

  /// Takes up to `max_batch` already-queued datagrams in one recvmmsg and
  /// never blocks: 0 with kTimeout in `result_out` when the queue is empty.
  /// `batch` is resized to the number received and its entries are reused
  /// across calls, so a steady-state drain stops allocating. Each payload is
  /// capped at `max_size` bytes (longer datagrams are truncated by the
  /// kernel). Injected faults (drop) apply per-datagram.
  std::size_t try_receive_batch(std::vector<Datagram>& batch, std::size_t max_batch,
                                std::size_t max_size = 2048, IoResult* result_out = nullptr);

  /// Sends every datagram in `batch` with one sendmmsg (looping on partial
  /// progress). Returns the number reported sent. Fault decisions — refuse,
  /// drop, delay, truncate/corrupt, duplicate — are drawn per-datagram in
  /// batch order *before* any syscall, so the mmsg path and the fallback
  /// path consume the injector's RNG identically and chaos runs reproduce
  /// across both. A refused or unroutable datagram is skipped and reported
  /// via `result_out` (first errno wins); the rest of the batch still goes.
  std::size_t send_batch(const std::vector<Datagram>& batch, IoResult* result_out = nullptr);

  /// Total datagrams the kernel reports dropped on this socket's receive
  /// queue (SO_RXQ_OVFL), as of the newest datagram read by the batched
  /// path. Requires UdpBindOptions::track_kernel_drops. Safe to read, and to
  /// receive, from several threads at once.
  std::uint64_t kernel_drops() const {
    return kernel_drops_ ? kernel_drops_->load(std::memory_order_relaxed) : 0;
  }

  /// Forces the portable single-syscall fallback even on Linux (tests prove
  /// behavior parity between recvmmsg/sendmmsg and the loop fallback).
  void set_force_syscall_fallback(bool on) { force_fallback_ = on; }

 private:
  IoResult receive_impl(int flags, std::string& payload, Endpoint& peer,
                        std::size_t max_size);
  void note_rxq_counter(std::uint32_t cumulative);

  bool force_fallback_ = false;
  // Set when SO_RXQ_OVFL is on: the kernel's 32-bit cumulative drop count
  // extended to 64 bits, its low half always the newest count seen.
  std::unique_ptr<std::atomic<std::uint64_t>> kernel_drops_;
};

}  // namespace smartsock::net
