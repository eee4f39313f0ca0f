#include "net/udp_socket.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>

#include "net/fault.h"

namespace smartsock::net {
namespace {

// One decision record per outgoing datagram, drawn before any syscall so the
// mmsg path and the loop fallback consume the fault RNG in the same order.
struct SendPlan {
  enum class Action { kSend, kDropSilently, kRefuse, kUnroutable };
  Action action = Action::kSend;
  bool duplicate = false;
  const std::string* payload = nullptr;  // original or mutated storage
  sockaddr_in addr{};
};

#if defined(__linux__) && defined(MSG_WAITFORONE)
// recvmmsg target reused by every batched receive on one thread. The kernel
// writes into one block and only the bytes that arrived are copied out, so a
// drain that finds one datagram costs one copy, not max_batch receive slots
// allocated and zero-filled to max_size.
struct ReceiveScratch {
  std::unique_ptr<char[]> bytes;  // left uninitialized: the kernel writes it
  std::size_t capacity = 0;
  std::vector<mmsghdr> msgs;
  std::vector<iovec> iovs;
  std::vector<sockaddr_in> addrs;
  std::vector<char> cmsgs;

  char* block(std::size_t size) {
    if (size > capacity) {
      bytes.reset(new char[size]);
      capacity = size;
    }
    return bytes.get();
  }
};
thread_local ReceiveScratch t_receive_scratch;
#endif

}  // namespace

std::optional<UdpSocket> UdpSocket::create() {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return std::nullopt;
  UdpSocket sock;
  static_cast<Socket&>(sock) = Socket(fd);
  return sock;
}

std::optional<UdpSocket> UdpSocket::bind(const Endpoint& endpoint) {
  return bind(endpoint, UdpBindOptions{});
}

std::optional<UdpSocket> UdpSocket::bind(const Endpoint& endpoint,
                                         const UdpBindOptions& options) {
  auto sock = create();
  if (!sock) return std::nullopt;
  sockaddr_in addr{};
  if (!endpoint.to_sockaddr(addr)) return std::nullopt;
  if (options.reuse_port && !sock->set_reuse_port(true)) return std::nullopt;
  if (options.rcvbuf_bytes > 0) sock->set_receive_buffer(options.rcvbuf_bytes);
  if (options.track_kernel_drops) {
#ifdef SO_RXQ_OVFL
    int on = 1;
    if (::setsockopt(sock->fd(), SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof(on)) == 0) {
      sock->kernel_drops_ = std::make_unique<std::atomic<std::uint64_t>>(0);
    }
#endif
  }
  if (::bind(sock->fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return std::nullopt;
  }
  return sock;
}

IoResult UdpSocket::send_to(std::string_view payload, const Endpoint& peer) {
  sockaddr_in addr{};
  if (!peer.to_sockaddr(addr)) return IoResult{IoStatus::kError, 0, EINVAL};

  bool duplicate = false;
  std::string mutated;  // storage when the injector rewrites the payload
  if (FaultInjector* fault = active_fault_injector()) {
    if (fault->refuse_udp_send(peer.to_string())) {
      // The replica-kill hook: fail exactly like an ICMP port-unreachable
      // bounced off a dead peer.
      return IoResult{IoStatus::kError, 0, ECONNREFUSED};
    }
    if (fault->drop_udp_send()) {
      // Swallowed by the "network": the caller sees a normal send.
      return IoResult{IoStatus::kOk, payload.size(), 0};
    }
    fault->maybe_delay_udp();
    mutated.assign(payload);
    if (fault->mutate_udp(mutated)) payload = mutated;
    duplicate = fault->duplicate_udp();
  }

  ssize_t n = ::sendto(fd_, payload.data(), payload.size(), 0,
                       reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (n < 0) return IoResult{IoStatus::kError, 0, errno};
  if (duplicate) {
    ::sendto(fd_, payload.data(), payload.size(), 0,
             reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (counter_) counter_->add_sent(static_cast<std::uint64_t>(n));
  return IoResult{IoStatus::kOk, static_cast<std::size_t>(n), 0};
}

IoResult UdpSocket::receive_impl(int flags, std::string& payload, Endpoint& peer,
                                 std::size_t max_size) {
  payload.resize(max_size);
  sockaddr_in addr{};
  socklen_t addr_len = sizeof(addr);
  ssize_t n = ::recvfrom(fd_, payload.data(), payload.size(), flags,
                         reinterpret_cast<sockaddr*>(&addr), &addr_len);
  if (n < 0) {
    payload.clear();
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult{IoStatus::kTimeout, 0, errno};
    return IoResult{IoStatus::kError, 0, errno};
  }
  payload.resize(static_cast<std::size_t>(n));
  peer = Endpoint::from_sockaddr(addr);
  if (FaultInjector* fault = active_fault_injector()) {
    if (fault->drop_udp_recv()) {
      // Lost on the wire as far as the caller can tell.
      payload.clear();
      return IoResult{IoStatus::kTimeout, 0, EAGAIN};
    }
  }
  if (counter_) counter_->add_received(static_cast<std::uint64_t>(n));
  return IoResult{IoStatus::kOk, static_cast<std::size_t>(n), 0};
}

IoResult UdpSocket::receive_from(std::string& payload, Endpoint& peer, std::size_t max_size) {
  return receive_impl(0, payload, peer, max_size);
}

IoResult UdpSocket::try_receive_from(std::string& payload, Endpoint& peer,
                                     std::size_t max_size) {
  return receive_impl(MSG_DONTWAIT, payload, peer, max_size);
}

std::optional<Datagram> UdpSocket::receive(util::Duration timeout, std::size_t max_size,
                                           IoResult* result_out) {
  set_receive_timeout(timeout);
  Datagram dg;
  IoResult result = receive_from(dg.payload, dg.peer, max_size);
  if (result_out) *result_out = result;
  if (!result.ok()) return std::nullopt;
  return dg;
}

void UdpSocket::note_rxq_counter(std::uint32_t cumulative) {
  // SO_RXQ_OVFL delivers the kernel's cumulative per-socket drop count with
  // each datagram; unsigned subtraction makes the step wrap-safe. Several
  // threads may drain one socket, so an older count can land after a newer
  // one: only a forward step (in serial-number order) advances the total.
  std::uint64_t seen = kernel_drops_->load(std::memory_order_relaxed);
  for (;;) {
    auto step = static_cast<std::int32_t>(cumulative - static_cast<std::uint32_t>(seen));
    if (step <= 0) return;
    if (kernel_drops_->compare_exchange_weak(seen, seen + static_cast<std::uint32_t>(step),
                                             std::memory_order_relaxed)) {
      return;
    }
  }
}

std::size_t UdpSocket::try_receive_batch(std::vector<Datagram>& batch, std::size_t max_batch,
                                         std::size_t max_size, IoResult* result_out) {
  if (result_out) *result_out = IoResult{IoStatus::kTimeout, 0, EAGAIN};
  if (max_batch == 0 || fd_ < 0) {
    batch.clear();
    if (result_out && fd_ < 0) *result_out = IoResult{IoStatus::kError, 0, EBADF};
    return 0;
  }

  std::size_t received = 0;
  std::size_t received_bytes = 0;

#if defined(__linux__) && defined(MSG_WAITFORONE)
  if (!force_fallback_) {
    ReceiveScratch& scratch = t_receive_scratch;
    char* block = scratch.block(max_batch * max_size);
    std::vector<mmsghdr>& msgs = scratch.msgs;
    std::vector<iovec>& iovs = scratch.iovs;
    std::vector<sockaddr_in>& addrs = scratch.addrs;
    msgs.assign(max_batch, mmsghdr{});
    iovs.resize(max_batch);
    addrs.resize(max_batch);
    // Room for the SO_RXQ_OVFL drop counter cmsg on every message.
    constexpr std::size_t kCmsgSpace = CMSG_SPACE(sizeof(std::uint32_t));
    scratch.cmsgs.resize(kernel_drops_ ? max_batch * kCmsgSpace : 0);
    for (std::size_t i = 0; i < max_batch; ++i) {
      iovs[i].iov_base = block + i * max_size;
      iovs[i].iov_len = max_size;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      if (kernel_drops_) {
        msgs[i].msg_hdr.msg_control = scratch.cmsgs.data() + i * kCmsgSpace;
        msgs[i].msg_hdr.msg_controllen = kCmsgSpace;
      }
    }
    int n = ::recvmmsg(fd_, msgs.data(), static_cast<unsigned>(max_batch), MSG_DONTWAIT,
                       nullptr);
    if (n < 0) {
      batch.clear();
      if (errno != EAGAIN && errno != EWOULDBLOCK && result_out) {
        *result_out = IoResult{IoStatus::kError, 0, errno};
      }
      return 0;
    }
    FaultInjector* fault = active_fault_injector();
    batch.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (kernel_drops_) {
        for (cmsghdr* cm = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cm != nullptr;
             cm = CMSG_NXTHDR(&msgs[i].msg_hdr, cm)) {
#ifdef SO_RXQ_OVFL
          if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SO_RXQ_OVFL) {
            std::uint32_t dropped = 0;
            std::memcpy(&dropped, CMSG_DATA(cm), sizeof(dropped));
            note_rxq_counter(dropped);
          }
#endif
        }
      }
      // Per-datagram fault decision, in arrival order: a dropped datagram
      // vanishes from the batch exactly as it would from a single receive.
      if (fault != nullptr && fault->drop_udp_recv()) continue;
      batch[received].payload.assign(block + i * max_size, msgs[i].msg_len);
      batch[received].peer = Endpoint::from_sockaddr(addrs[i]);
      received_bytes += msgs[i].msg_len;
      ++received;
    }
    batch.resize(received);
    if (counter_ && received_bytes > 0) counter_->add_received(received_bytes);
    if (result_out && received > 0) {
      *result_out = IoResult{IoStatus::kOk, received_bytes, 0};
    }
    return received;
  }
#endif

  // Portable fallback: one MSG_DONTWAIT syscall per datagram. Fault
  // decisions apply per-datagram in arrival order, mirroring the mmsg path.
  if (batch.size() != max_batch) batch.resize(max_batch);
  FaultInjector* fault = active_fault_injector();
  IoResult last{};
  while (received < max_batch) {
    Datagram& slot = batch[received];
    slot.payload.resize(max_size);
    sockaddr_in addr{};
    socklen_t addr_len = sizeof(addr);
    ssize_t n = ::recvfrom(fd_, slot.payload.data(), slot.payload.size(), MSG_DONTWAIT,
                           reinterpret_cast<sockaddr*>(&addr), &addr_len);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        last = IoResult{IoStatus::kError, 0, errno};
      }
      break;
    }
    if (fault != nullptr && fault->drop_udp_recv()) continue;
    slot.payload.resize(static_cast<std::size_t>(n));
    slot.peer = Endpoint::from_sockaddr(addr);
    received_bytes += static_cast<std::size_t>(n);
    ++received;
  }
  batch.resize(received);
  if (result_out) {
    if (received > 0) {
      *result_out = IoResult{IoStatus::kOk, received_bytes, 0};
    } else if (last.status == IoStatus::kError) {
      *result_out = last;
    }
  }
  return received;
}

std::size_t UdpSocket::send_batch(const std::vector<Datagram>& batch, IoResult* result_out) {
  if (result_out) *result_out = IoResult{IoStatus::kOk, 0, 0};
  if (batch.empty()) return 0;
  if (fd_ < 0) {
    if (result_out) *result_out = IoResult{IoStatus::kError, 0, EBADF};
    return 0;
  }

  // Plan phase: every fault decision is drawn here, per-datagram in batch
  // order, before any syscall — so the mmsg path and the loop fallback see
  // identical RNG streams and a chaos run reproduces on either.
  FaultInjector* fault = active_fault_injector();
  std::vector<SendPlan> plans(batch.size());
  std::vector<std::string> mutated;  // stable storage for rewritten payloads
  mutated.reserve(batch.size());
  int first_error = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SendPlan& plan = plans[i];
    plan.payload = &batch[i].payload;
    if (!batch[i].peer.to_sockaddr(plan.addr)) {
      plan.action = SendPlan::Action::kUnroutable;
      if (first_error == 0) first_error = EINVAL;
      continue;
    }
    if (fault != nullptr) {
      if (fault->refuse_udp_send(batch[i].peer.to_string())) {
        plan.action = SendPlan::Action::kRefuse;
        if (first_error == 0) first_error = ECONNREFUSED;
        continue;
      }
      if (fault->drop_udp_send()) {
        plan.action = SendPlan::Action::kDropSilently;
        continue;
      }
      fault->maybe_delay_udp();
      std::string storage(batch[i].payload);
      if (fault->mutate_udp(storage)) {
        mutated.push_back(std::move(storage));
        plan.payload = &mutated.back();
      }
      plan.duplicate = fault->duplicate_udp();
    }
  }

  // Wire list: surviving datagrams, duplicates included.
  std::vector<const SendPlan*> wire;
  wire.reserve(plans.size());
  std::size_t reported_sent = 0;
  std::size_t reported_bytes = 0;
  for (const SendPlan& plan : plans) {
    if (plan.action == SendPlan::Action::kDropSilently) {
      // Swallowed by the "network": counted as sent toward the caller.
      ++reported_sent;
      reported_bytes += plan.payload->size();
      continue;
    }
    if (plan.action != SendPlan::Action::kSend) continue;
    wire.push_back(&plan);
    if (plan.duplicate) wire.push_back(&plan);
  }

  std::size_t wired = 0;  // entries handed to the kernel
#if defined(__linux__) && defined(MSG_WAITFORONE)
  if (!force_fallback_ && !wire.empty()) {
    std::vector<mmsghdr> msgs(wire.size());
    std::vector<iovec> iovs(wire.size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
      iovs[i].iov_base = const_cast<char*>(wire[i]->payload->data());
      iovs[i].iov_len = wire[i]->payload->size();
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(&wire[i]->addr);
      msgs[i].msg_hdr.msg_namelen = sizeof(wire[i]->addr);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    while (wired < wire.size()) {
      int n = ::sendmmsg(fd_, msgs.data() + wired,
                         static_cast<unsigned>(wire.size() - wired), 0);
      if (n < 0) {
        if (first_error == 0) first_error = errno;
        break;
      }
      wired += static_cast<std::size_t>(n);
    }
  }
#else
  (void)0;
#endif
#if defined(__linux__) && defined(MSG_WAITFORONE)
  if (force_fallback_)
#endif
  {
    for (; wired < wire.size(); ++wired) {
      const SendPlan* plan = wire[wired];
      ssize_t n = ::sendto(fd_, plan->payload->data(), plan->payload->size(), 0,
                           reinterpret_cast<const sockaddr*>(&plan->addr), sizeof(plan->addr));
      if (n < 0) {
        if (first_error == 0) first_error = errno;
        break;
      }
    }
  }

  // Credit each *original* datagram whose wire entries all went out.
  std::size_t consumed = 0;
  for (const SendPlan& plan : plans) {
    if (plan.action != SendPlan::Action::kSend) continue;
    std::size_t needs = plan.duplicate ? 2 : 1;
    if (consumed + needs > wired) break;
    consumed += needs;
    ++reported_sent;
    reported_bytes += plan.payload->size();
  }
  if (counter_ && reported_bytes > 0) counter_->add_sent(reported_bytes);
  if (result_out) {
    if (first_error != 0) {
      *result_out = IoResult{IoStatus::kError, reported_bytes, first_error};
    } else {
      *result_out = IoResult{IoStatus::kOk, reported_bytes, 0};
    }
  }
  return reported_sent;
}

}  // namespace smartsock::net
