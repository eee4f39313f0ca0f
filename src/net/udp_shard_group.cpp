#include "net/udp_shard_group.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/poller.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace smartsock::net {

UdpShardGroup::UdpShardGroup(UdpShardGroupConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  config_.loops_per_shard = std::max<std::size_t>(1, config_.loops_per_shard);
  config_.batch = std::max<std::size_t>(1, config_.batch);
  UdpBindOptions options;
  options.reuse_port = config_.shards > 1;
  options.rcvbuf_bytes = config_.rcvbuf_bytes;
  options.track_kernel_drops = true;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  for (std::size_t i = 0; i < config_.shards; ++i) {
    // Members bind the first socket's resolved endpoint, so an ephemeral
    // port is shared by the whole group.
    auto sock = UdpSocket::bind(i == 0 ? config_.bind : endpoint_, options);
    if (!sock && i == 0) {
      bind_error_ = "cannot bind " + config_.name + " UDP socket to " +
                    config_.bind.to_string() + ": " + std::strerror(errno);
      return;
    }
    if (!sock) {
      SMARTSOCK_LOG(kWarn, config_.name)
          << "reuseport shard " << i << " failed to bind " << endpoint_.to_string()
          << "; running with " << i << " shard(s)";
      break;
    }
    if (i == 0) endpoint_ = sock->local_endpoint();
    sock->set_traffic_counter(registry.traffic(config_.traffic_component));
    auto shard = std::make_unique<Shard>();
    shard->socket = std::move(*sock);
    std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    shard->datagrams = registry.counter(config_.name + "_shard_datagrams_total" + label);
    shard->batches = registry.counter(config_.name + "_shard_batches_total" + label);
    shard->dropped = registry.counter("udp_rcvbuf_dropped_total{daemon=\"" + config_.name +
                                      "\"," + label.substr(1));
    shards_.push_back(std::move(shard));
  }
  dropped_total_ = registry.counter("udp_rcvbuf_dropped_total");
  for (std::size_t i = 0; i < shards_.size() * config_.loops_per_shard; ++i) {
    loops_.push_back(std::make_unique<Loop>());
    loops_.back()->shard = i % shards_.size();
  }
}

bool UdpShardGroup::start() {
  if (!valid() || running()) return false;
  std::vector<int> cpus = util::allowed_cpus();
  if (!cpus.empty() && loops_.size() > cpus.size()) {
    SMARTSOCK_LOG(kWarn, config_.name) << loops_.size() << " UDP loops oversubscribe the "
                                       << cpus.size() << " CPU(s) this process may use";
  }
  bool pin = config_.pin && shards_.size() > 1 && !cpus.empty();
  for (auto& shard : shards_) shard->socket.set_nonblocking(true);
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    Loop& loop = *loops_[i];
    auto reactor = std::make_unique<Reactor>();
    if (!reactor->start()) {
      stop();
      return false;
    }
    if (pin) reactor->post([cpu = cpus[i % cpus.size()]] { util::pin_current_thread(cpu); });
    reactor->add_fd_watch(
        shards_[loop.shard]->socket.fd(), [this, &loop] { drain(loop); },
        config_.name + "_shard_" + std::to_string(loop.shard));
    loop.reactor = std::move(reactor);
  }
  return true;
}

void UdpShardGroup::stop() {
  for (auto& loop : loops_) {
    if (loop->reactor) loop->reactor->stop();
    loop->reactor.reset();
  }
}

Reactor* UdpShardGroup::loop(std::size_t i) {
  return i < loops_.size() ? loops_[i]->reactor.get() : nullptr;
}

std::size_t UdpShardGroup::poll(util::Duration timeout) {
  if (!valid() || running()) return 0;
  std::vector<PollEntry> entries(1);
  entries[0].fd = shards_[0]->socket.fd();
  entries[0].want_read = true;
  return poll_sockets(entries, timeout) > 0 ? drain(*loops_[0]) : 0;
}

std::size_t UdpShardGroup::drain(Loop& loop) {
  Shard& shard = *shards_[loop.shard];
  std::size_t received =
      shard.socket.try_receive_batch(loop.in, config_.batch, config_.max_datagram);
  // Kernel drops surface even on an empty drain, which error-flagged
  // readiness causes. Loops sharing a shard publish the socket's cumulative
  // count as deltas: the loop that advances drops_published owns the delta.
  std::uint64_t drops = shard.socket.kernel_drops();
  std::uint64_t published = shard.drops_published.load(std::memory_order_relaxed);
  while (drops > published && !shard.drops_published.compare_exchange_weak(published, drops)) {
  }
  if (drops > published) {
    shard.dropped->inc(drops - published);
    dropped_total_->inc(drops - published);
  }
  if (received == 0) return 0;
  shard.datagrams->inc(received);
  shard.batches->inc();
  loop.out.clear();
  std::size_t accepted = handler_(loop.in, loop.out);
  if (!loop.out.empty()) shard.socket.send_batch(loop.out);
  return accepted;
}

std::uint64_t UdpShardGroup::kernel_drops(std::size_t shard) const {
  return shard < shards_.size() ? shards_[shard]->socket.kernel_drops() : 0;
}

}  // namespace smartsock::net
