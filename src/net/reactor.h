// Reactor core (ISSUE 6 tentpole).
//
// One non-blocking event loop per daemon instead of one blocking thread per
// TCP connection — the multiplexing engine the thesis's smart socket promises
// ("a large amount of read and write operations over multiple sockets",
// Fig 1.2). The loop owns:
//
//   * readiness polling       epoll(7) by default, poll(2) fallback
//   * a hashed timer wheel    one-shot + periodic timers, cancel/rearm
//   * Connection objects      buffered partial reads/writes, read and write
//                             watermarks, deferred close-after-flush
//   * a cross-thread mailbox  post() wakes the loop and runs a task on it
//   * thread-pool handoff     offload() runs CPU-bound work on a
//                             util::ThreadPool and posts the completion back
//
// Threading contract: every handler/timer callback runs on the loop thread;
// Connection methods and the timer/listener registry are loop-thread-only.
// The two thread-safe entry points are post() and stop(). Mutators called
// from other threads while the loop runs are transparently forwarded with
// run_on_loop(), which blocks until the loop executed them.
//
// The read/write paths route through net::FaultInjector exactly like the
// blocking socket wrappers, so the chaos layer (ISSUE 3) keeps working, and
// the loop exports reactor_* counters and the reactor_connections_open gauge
// through obs::MetricsRegistry.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/tcp_listener.h"
#include "net/tcp_socket.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace smartsock::net {

class Reactor;
class Connection;

using TimerId = std::uint64_t;
using ListenerId = std::uint64_t;
using FdWatchId = std::uint64_t;

namespace detail {
/// One named callback origin ("receiver_ingest", "posted", "timer", ...)
/// with its wall-time recorder (reactor_callback_us{site="<label>"}).
/// Interned per label by the Reactor; pointers are stable for the reactor's
/// lifetime, so the watchdog can publish label.c_str() through an atomic
/// without lifetime worries.
struct ReactorCallbackSite {
  std::string label;
  obs::Histogram* recorder = nullptr;
};
}  // namespace detail

/// Per-connection callbacks, all invoked on the loop thread.
struct ConnectionHandler {
  /// New bytes were appended to input(); consume what you can parse.
  std::function<void(Connection&)> on_data;
  /// The output buffer fully drained into the socket.
  std::function<void(Connection&)> on_drain;
  /// The connection is gone (peer hangup, error, or local close). `clean`
  /// is false for hard errors (reset, injected faults, oversized input).
  /// The Connection object outlives this call but no other callback fires.
  std::function<void(Connection&, bool clean)> on_close;
  /// Attribution label for loop telemetry (ISSUE 7): callback wall time is
  /// recorded into reactor_callback_us{site="<label>"} and a stall watchdog
  /// report names this site. Empty means the generic "connection" site.
  std::string label;
};

/// One multiplexed TCP connection owned by a Reactor. Loop-thread-only.
class Connection {
 public:
  std::uint64_t id() const { return id_; }
  TcpSocket& socket() { return socket_; }

  /// Buffered inbound bytes not yet consumed by the handler.
  std::string& input() { return input_; }
  /// Drops the first `n` bytes of input() (and may resume a paused read).
  void consume(std::size_t n);

  /// Appends to the output buffer and flushes opportunistically; the loop
  /// drains the remainder as the socket accepts it.
  void send(std::string_view data);

  /// Flush pending output, then close. No more on_data fires.
  void close_after_flush();
  /// Close immediately, discarding pending output.
  void close_now();

  /// Reading pauses while input() holds at least this many bytes and
  /// resumes when consume() drops it below (read watermark).
  void set_input_limit(std::size_t bytes) { input_limit_ = bytes; }

  std::size_t pending_output() const { return output_.size() - output_offset_; }
  bool closing() const { return close_after_flush_ || dead_; }
  /// False once the connection was retired (on_close already fired; the
  /// object only survives until the end of the loop iteration). Handlers
  /// must check this before arming timers that capture the Connection* —
  /// send() and close_after_flush() can retire the connection synchronously
  /// on a hard write error, and nothing cancels a timer armed after that.
  bool alive() const { return !dead_; }

  /// Arbitrary per-connection state for handlers.
  std::shared_ptr<void> user_data;

 private:
  friend class Reactor;
  Connection(Reactor* reactor, TcpSocket socket, ConnectionHandler handler,
             std::uint64_t id);

  void handle_readable();
  void handle_writable();
  bool flush_some();  // returns false on fatal write error (connection dead)
  void finish(bool clean);

  Reactor* reactor_;
  TcpSocket socket_;
  ConnectionHandler handler_;
  std::uint64_t id_;
  // The fd this connection registered with the reactor. socket_.fd() is not
  // enough: a fault injector (or the peer via an async error) can close the
  // socket mid-callback, and retire must still erase the right registry entry.
  int registered_fd_ = -1;

  std::string input_;
  std::string output_;
  std::size_t output_offset_ = 0;  // drained prefix of output_
  std::size_t input_limit_;
  bool read_paused_ = false;        // input watermark reached
  bool write_blocked_ = false;      // waiting for POLLOUT
  bool backpressured_ = false;      // output watermark reached, reads paused
  bool close_after_flush_ = false;
  bool saw_eof_ = false;
  bool dead_ = false;
  detail::ReactorCallbackSite* site_ = nullptr;  // telemetry attribution
};

struct ReactorConfig {
  /// Timer deadlines are measured on this clock, so tests can drive the
  /// wheel with sim::VirtualClock and manual run_once() steps.
  util::Clock* clock = &util::SteadyClock::instance();
  /// false = poll(2) readiness instead of epoll (portability/test path).
  bool use_epoll = true;
  /// Timer wheel granularity; deadlines round up to the next tick.
  util::Duration timer_tick = std::chrono::milliseconds(1);
  /// Bytes per read attempt.
  std::size_t read_chunk = 16 * 1024;
  /// Default per-connection input() cap before reading pauses.
  std::size_t input_limit = 1 << 20;
  /// Pending-output level that pauses reads on that connection until the
  /// socket drains below half of it (write backpressure).
  std::size_t output_high_watermark = 256 * 1024;
  /// Destination for offload(); may be null (offload runs work inline).
  util::ThreadPool* pool = nullptr;
  /// Stall watchdog (ISSUE 7): a monitor thread (started with start(); manual
  /// run_once() stepping has no watchdog) checks every `watchdog_check_interval`
  /// whether a single callback has been blocking the loop longer than
  /// `watchdog_stall_threshold`. Each distinct stall increments
  /// reactor_watchdog_stalls_total, raises the reactor_watchdog_stalled gauge
  /// while it lasts, and logs one event=loop_stall warn line naming the
  /// handler site. A zero stall threshold disables the watchdog.
  util::Duration watchdog_stall_threshold = std::chrono::milliseconds(500);
  util::Duration watchdog_check_interval = std::chrono::milliseconds(100);
  /// When nonzero, a callback blocked past this becomes fatal: the watchdog
  /// annotates the crash blackbox with the offending site and abort()s, so
  /// the postmortem names the handler that wedged the daemon. 0 = never.
  util::Duration watchdog_fatal_threshold{0};
};

class Reactor {
 public:
  explicit Reactor(ReactorConfig config = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // --- lifecycle ----------------------------------------------------------

  /// Spawns the owned loop thread. False if already running or setup failed.
  bool start();
  /// Stops and joins the owned loop thread; closes all connections.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Runs one poll round on the calling thread: wait for readiness at most
  /// `max_wait` (clamped to the next timer deadline), dispatch I/O, run
  /// posted tasks, fire due timers, reap closed connections. Returns the
  /// number of I/O events dispatched. This is the deterministic test entry
  /// point; start() is a `while (!stop) run_once(...)` around it.
  int run_once(util::Duration max_wait);

  /// True when called from the thread currently inside the loop.
  bool in_loop_thread() const;

  // --- cross-thread entry points ------------------------------------------

  /// Queues `fn` to run on the loop thread and wakes the loop. Thread-safe.
  void post(std::function<void()> fn);

  /// Runs `fn` on the loop thread and blocks until it finished. Runs inline
  /// when already on the loop thread (or when no loop is active).
  void run_on_loop(const std::function<void()>& fn);

  /// Runs `work` on the configured thread pool (inline if none), then posts
  /// `done` back to the loop thread. Call from the loop thread.
  void offload(std::function<void()> work, std::function<void()> done);

  // --- timers (hashed wheel) ----------------------------------------------

  /// `label` attributes the callback's wall time (and any watchdog report)
  /// to a named site in reactor_callback_us{site="<label>"}.
  TimerId add_timer(util::Duration delay, std::function<void()> fn,
                    std::string label = "timer");
  /// First fires after `interval`, then every `interval` until cancelled.
  TimerId add_periodic(util::Duration interval, std::function<void()> fn,
                       std::string label = "timer");
  /// True if the timer existed (not yet fired/cancelled).
  bool cancel_timer(TimerId id);
  /// Re-schedules an existing timer `delay` from now, keeping its callback
  /// and periodicity. False if it already fired or was cancelled.
  bool rearm_timer(TimerId id, util::Duration delay);
  std::size_t active_timers() const { return timer_slots_.size(); }

  // --- sockets ------------------------------------------------------------

  /// Watches a listening socket the caller keeps owning (components expose
  /// their endpoint()/valid() off it); the listener is switched to
  /// non-blocking and must outlive the registration. `on_accept` gets each
  /// accepted socket already switched to non-blocking mode.
  ListenerId add_listener(TcpListener* listener,
                          std::function<void(TcpSocket)> on_accept,
                          std::string label = "accept");
  void remove_listener(ListenerId id);

  /// Adopts a connected socket into the loop (switched to non-blocking).
  /// The returned pointer stays valid until after on_close returns.
  Connection* add_connection(TcpSocket socket, ConnectionHandler handler);

  /// Watches a raw descriptor the caller keeps owning — the UDP ingest
  /// shards (ROADMAP item 2) register their reuseport sockets here —
  /// invoking `on_readable` on the loop thread whenever the fd is readable
  /// (or error-flagged: UDP sockets surface async ICMP errors as EPOLLERR,
  /// and the callback's next receive consumes them). The fd must already be
  /// non-blocking and must outlive the watch; the callback should drain
  /// until EAGAIN or a batch cap (readiness is level-triggered, so leftover
  /// data re-fires the watch). `label` attributes callback wall time in
  /// reactor_callback_us{site="<label>"}. Returns 0 on a bad fd or one
  /// already watched. Thread-safe (forwards to the loop while running).
  FdWatchId add_fd_watch(int fd, std::function<void()> on_readable,
                         std::string label = "fd_watch");
  /// Drops a watch; the fd stays open (caller-owned). True if it existed.
  bool remove_fd_watch(FdWatchId id);

  /// Closes every connection this reactor owns (loop thread).
  void close_all_connections();

  std::size_t open_connections() const { return connections_.size(); }
  const ReactorConfig& config() const { return config_; }
  util::Clock& clock() { return *config_.clock; }

 private:
  friend class Connection;

  static constexpr std::size_t kWheelSlots = 512;

  using CallbackSite = detail::ReactorCallbackSite;

  /// RAII wall-time attribution + watchdog heartbeat around one callback.
  /// Only the outermost scope on the loop thread measures (nested callbacks
  /// — e.g. a timer fired from within on_data — fold into the outer site).
  class CallbackScope;

  struct TimerEntry {
    TimerId id = 0;
    util::Duration deadline{0};
    util::Duration interval{0};  // zero = one-shot
    std::function<void()> fn;
    CallbackSite* site = nullptr;
  };

  struct FdInterest {
    bool read = false;
    bool write = false;
  };

  void loop_thread_main();
  void wakeup();
  void drain_wakeup();
  void run_posted();
  void advance_timers();
  util::Duration next_timer_delay(util::Duration cap);
  int poll_round(util::Duration wait);   // poll(2) path
  int epoll_round(util::Duration wait);  // epoll(7) path
  void dispatch_fd(int fd, bool readable, bool writable, bool hangup);
  void update_interest(int fd, FdInterest interest);
  void forget_fd(int fd);
  void schedule_insert(TimerEntry entry);
  void reap_dead();
  void retire_connection(Connection* connection, bool clean);
  CallbackSite* intern_site(const std::string& label);
  void publish_gauges();
  void start_watchdog();
  void stop_watchdog();
  void watchdog_main();

  std::uint64_t tick_of(util::Duration t) const;

  ReactorConfig config_;

  int epoll_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  // fd registry: listeners and connections share the readiness sets.
  std::unordered_map<ListenerId, TcpListener*> listeners_;  // borrowed
  std::unordered_map<int, ListenerId> listener_fds_;
  std::unordered_map<ListenerId, std::function<void(TcpSocket)>> accept_handlers_;
  std::unordered_map<ListenerId, CallbackSite*> accept_sites_;
  struct FdWatch {
    int fd = -1;
    std::function<void()> on_readable;
    CallbackSite* site = nullptr;
  };
  std::unordered_map<FdWatchId, FdWatch> fd_watches_;
  std::unordered_map<int, FdWatchId> watch_fds_;
  std::unordered_map<int, Connection*> connection_fds_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::unordered_map<int, FdInterest> interest_;  // poll-fallback mirror
  std::vector<std::unique_ptr<Connection>> dead_connections_;

  // Hashed timer wheel: slot = tick(deadline) % kWheelSlots.
  std::array<std::vector<TimerEntry>, kWheelSlots> wheel_;
  std::unordered_map<TimerId, std::size_t> timer_slots_;
  std::uint64_t last_tick_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t next_listener_id_ = 1;
  std::uint64_t next_connection_id_ = 1;
  std::uint64_t next_watch_id_ = 1;

  std::mutex post_mu_;
  std::deque<std::function<void()>> posted_;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::thread::id> loop_thread_id_{};

  // Metrics (process-wide; several reactors aggregate into the same names —
  // gauges are therefore published as deltas, never set()).
  obs::Counter* iterations_ = nullptr;
  obs::Counter* timer_fires_ = nullptr;
  obs::Counter* stalls_ = nullptr;
  obs::Counter* accepts_ = nullptr;
  obs::Counter* closes_ = nullptr;
  obs::Gauge* open_gauge_ = nullptr;

  // --- loop telemetry (ISSUE 7) -------------------------------------------
  // Scheduled-vs-actual timer fire delta, on the config clock.
  obs::Histogram* loop_lag_ = nullptr;
  obs::Counter* watchdog_stalls_ = nullptr;
  obs::Gauge* stalled_gauge_ = nullptr;
  obs::Gauge* posted_depth_gauge_ = nullptr;
  obs::Gauge* timers_gauge_ = nullptr;
  std::int64_t published_timers_ = 0;  // loop-thread-only delta anchor

  // Interned callback sites; values are stable for the reactor lifetime.
  std::unordered_map<std::string, std::unique_ptr<CallbackSite>> sites_;
  CallbackSite* posted_site_ = nullptr;

  // Watchdog heartbeat, seqlock-style: cb_seq_ odd = the loop thread is
  // inside a callback whose label/start the two payload atomics describe;
  // readers re-check the seq after reading the payload.
  std::atomic<std::uint64_t> cb_seq_{0};
  std::atomic<std::int64_t> cb_start_ns_{0};  // raw steady_clock, not config clock
  std::atomic<const char*> cb_label_{nullptr};
  int cb_depth_ = 0;  // loop-thread-only nesting guard

  std::thread watchdog_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
};

/// Periodic work on a loop: `fn` runs once at start(), then `interval` after
/// each run returns until stop(), as one timer labelled `label`. Start and
/// stop from one controlling thread; stop before the loop is destroyed.
class PeriodicJob {
 public:
  PeriodicJob() = default;
  ~PeriodicJob() { stop(); }

  PeriodicJob(const PeriodicJob&) = delete;
  PeriodicJob& operator=(const PeriodicJob&) = delete;

  /// False if already started.
  bool start(Reactor& loop, util::Duration interval, std::function<void()> fn,
             std::string label);
  /// Cancels the timer on the loop thread: once this returns, no run is in
  /// progress and none follows.
  void stop();
  /// Moves the next run to now. False when not started.
  bool run_now();

 private:
  Reactor* loop_ = nullptr;
  TimerId timer_ = 0;
};

}  // namespace smartsock::net
