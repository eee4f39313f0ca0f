// UDP shard group: the one way a daemon serves a UDP port.
//
// The group binds `shards` sockets to one endpoint (SO_REUSEPORT only when
// there are several, so the kernel spreads senders across them by 4-tuple)
// and serves them from reactor loops, loop i watching shard i mod shards.
// Each readable callback drains up to `batch` datagrams with one recvmmsg,
// hands them to the daemon's handler and sends the handler's replies with
// one sendmmsg from the same socket, so a client's reply comes from the port
// it addressed. One shard is one loop running the same drain. Loops sharing
// a shard race for its datagrams; the loser finds the socket empty.
//
// The group publishes <name>_shard_datagrams_total{shard="i"},
// <name>_shard_batches_total{shard="i"},
// udp_rcvbuf_dropped_total{daemon="<name>",shard="i"} and the combined
// udp_rcvbuf_dropped_total the ingest health rule rates.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/reactor.h"
#include "net/udp_socket.h"
#include "obs/metrics.h"

namespace smartsock::net {

struct UdpShardGroupConfig {
  std::string name;               // metric prefix, drop label, log component
  std::string traffic_component;  // MetricsRegistry::traffic() owner
  Endpoint bind = Endpoint::loopback(0);
  std::size_t shards = 1;
  std::size_t loops_per_shard = 1;
  /// Pin loop i to the i-th CPU the starting thread may run on. Only groups
  /// of several shards pin; one shard's loops keep the starter's affinity.
  bool pin = true;
  int rcvbuf_bytes = 0;            // SO_RCVBUF; 0 keeps the kernel default
  std::size_t batch = 64;          // datagrams per drain
  std::size_t max_datagram = 2048;  // receive-slot bytes; longer truncates
};

class UdpShardGroup {
 public:
  /// Consumes a drained batch and appends its replies; returns how many
  /// datagrams it accepted. Called on the loops, concurrently when several.
  using Handler =
      std::function<std::size_t(std::vector<Datagram>& batch, std::vector<Datagram>& replies)>;

  /// Binds every shard. A member that fails to bind leaves the group with
  /// the shards before it; a failed first bind leaves it invalid.
  UdpShardGroup(UdpShardGroupConfig config, Handler handler);
  ~UdpShardGroup() { stop(); }

  UdpShardGroup(const UdpShardGroup&) = delete;
  UdpShardGroup& operator=(const UdpShardGroup&) = delete;

  bool valid() const { return !shards_.empty(); }
  const std::string& bind_error() const { return bind_error_; }
  Endpoint endpoint() const { return endpoint_; }
  std::size_t shards() const { return shards_.size(); }

  /// Starts the loops; false when invalid or running. Restartable.
  bool start();
  void stop();
  bool running() const { return !loops_.empty() && loops_[0]->reactor != nullptr; }
  /// Loop i's reactor while running, else null; daemons add their timers
  /// and TCP handlers to loop 0.
  Reactor* loop(std::size_t i);

  /// Runs one drain of shard 0 on the calling thread once it is readable,
  /// waiting up to `timeout`. Only for a group that is not running (returns
  /// 0 otherwise); returns the handler's count.
  std::size_t poll(util::Duration timeout);

  std::uint64_t kernel_drops(std::size_t shard) const;

 private:
  struct Shard {
    UdpSocket socket;
    obs::Counter* datagrams = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* dropped = nullptr;
    std::atomic<std::uint64_t> drops_published{0};
  };
  struct Loop {
    std::size_t shard = 0;
    std::unique_ptr<Reactor> reactor;
    std::vector<Datagram> in, out;  // reused across drains
  };

  std::size_t drain(Loop& loop);

  UdpShardGroupConfig config_;
  Handler handler_;
  Endpoint endpoint_;
  std::string bind_error_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Loop>> loops_;
  obs::Counter* dropped_total_ = nullptr;
};

}  // namespace smartsock::net
