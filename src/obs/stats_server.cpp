#include "obs/stats_server.h"

#include <cstdio>
#include <sstream>

#include "obs/profiler.h"
#include "util/logging.h"
#include "util/strings.h"

namespace smartsock::obs {

StatsServer::StatsServer(StatsServerConfig config, MetricsRegistry& registry)
    : config_(std::move(config)), registry_(&registry) {
  if (auto listener = net::TcpListener::listen(config_.bind)) {
    listener_ = std::move(*listener);
    endpoint_ = listener_.local_endpoint();
  } else {
    SMARTSOCK_LOG(kError, "stats_server")
        << "cannot bind stats endpoint to " << config_.bind.to_string();
  }
}

StatsServer::~StatsServer() { stop(); }

namespace {

std::string error_body(std::string_view message) {
  return "{\"error\": \"" + json_escape(message) + "\"}\n";
}

// `profile <seconds> [cpu|wall] [trace]` (ISSUE 7). Shared between the
// blocking render() path and the reactor path's async session in reply().
struct ProfileArgs {
  bool ok = false;
  std::string error;
  util::Duration duration{};
  ProfilerConfig config;
  bool trace = false;  // Chrome trace JSON instead of folded stacks
};

ProfileArgs parse_profile(const std::vector<std::string_view>& words) {
  ProfileArgs args;
  if (words.size() < 2) {
    args.error = "usage: profile <seconds> [cpu|wall] [trace]";
    return args;
  }
  auto seconds = util::parse_double(words[1]);
  if (!seconds || *seconds <= 0 || *seconds > 30) {
    args.error = "bad duration: expected 0 < seconds <= 30";
    return args;
  }
  args.duration =
      std::chrono::duration_cast<util::Duration>(std::chrono::duration<double>(*seconds));
  for (std::size_t i = 2; i < words.size(); ++i) {
    if (words[i] == "cpu") {
      args.config.cpu_time = true;
    } else if (words[i] == "wall") {
      args.config.cpu_time = false;
    } else if (words[i] == "trace") {
      args.trace = true;
    } else {
      args.error = "unknown profile option: " + std::string(words[i]);
      return args;
    }
  }
  args.ok = true;
  return args;
}

std::string profile_body(const ProfileReport& report, bool trace) {
  // A zero-sample session (idle process under CPU-time sampling) would
  // otherwise render as an empty reply, indistinguishable from a dead
  // endpoint on the client side.
  if (report.total_samples() == 0) {
    return error_body("no samples captured (process idle during session?)");
  }
  return trace ? report.to_chrome_trace() : report.to_folded();
}

std::string spans_text(const SpanStore& store) {
  std::vector<SpanRecord> spans = store.snapshot();
  std::ostringstream out;
  out << "spans retained=" << spans.size() << " capacity=" << store.capacity()
      << " recorded=" << store.recorded() << " dropped=" << store.dropped() << "\n";
  for (const SpanRecord& span : spans) {
    out << "  " << (span.trace_id.empty() ? "-" : span.trace_id) << " #" << span.span_id;
    if (span.parent_id != 0) out << "<-#" << span.parent_id;
    out << " " << span.component << "/" << span.name << " start=" << span.start_us
        << "us dur=" << span.duration_us << "us";
    for (const auto& [key, value] : span.tags) out << " " << key << "=" << value;
    out << "\n";
  }
  return out.str();
}

}  // namespace

std::string StatsServer::render(std::string_view command_line) {
  std::vector<std::string_view> words = util::split_whitespace(command_line);
  std::string_view verb = words.empty() ? std::string_view{} : words[0];

  // Host-supplied verbs first (ISSUE 9): the hook may extend or shadow.
  if (config_.command_hook) {
    if (std::optional<std::string> body = config_.command_hook(command_line)) {
      return *body;
    }
  }

  if (verb == "prom") return registry_->snapshot().to_prometheus();
  if (verb == "text") return registry_->snapshot().to_text();

  if (verb == "health") {
    if (config_.health == nullptr) return error_body("no health engine on this endpoint");
    HealthReport report = config_.health->evaluate();
    bool text = words.size() > 1 && words[1] == "text";
    return text ? report.to_text() : report.to_json();
  }

  if (verb == "history") {
    if (config_.history == nullptr) return error_body("no time-series recorder on this endpoint");
    if (words.size() < 2) return error_body("usage: history <metric> [window_seconds]");
    util::Duration window = std::chrono::seconds(10);
    if (words.size() > 2) {
      auto seconds = util::parse_double(words[2]);
      if (!seconds || *seconds <= 0) return error_body("bad window: expected seconds > 0");
      window = std::chrono::duration_cast<util::Duration>(std::chrono::duration<double>(*seconds));
    }
    return config_.history->history(std::string(words[1]), window).to_json();
  }

  if (verb == "spans") {
    if (config_.spans == nullptr) return error_body("no span store on this endpoint");
    // `spans json` (ISSUE 9) is the machine-readable variant the fleet
    // aggregator scrapes; bare `spans` keeps the human summary.
    if (words.size() > 1 && words[1] == "json") {
      return SpanStore::to_json(config_.spans->snapshot());
    }
    return spans_text(*config_.spans);
  }

  if (verb == "trace") {
    if (config_.spans == nullptr) return error_body("no span store on this endpoint");
    // One lane, labeled by this endpoint the way the fleet aggregator
    // labels a scraped daemon.
    std::vector<SpanRecord> spans = words.size() > 1 ? config_.spans->find_trace(words[1])
                                                     : config_.spans->snapshot();
    return SpanStore::to_stitched_chrome_trace({{endpoint_.to_string(), std::move(spans)}});
  }

  if (verb == "profile") {
    // Blocking entry point (tests): the session runs inline and this thread
    // sleeps for the duration. Started servers never get here — reply()
    // intercepts the verb and runs the session off a loop timer.
    ProfileArgs args = parse_profile(words);
    if (!args.ok) return error_body(args.error);
    if (Profiler::instance().running()) {
      return error_body("profiler busy: a session is already running");
    }
    ProfileReport report = Profiler::instance().profile_for(args.duration, args.config);
    return profile_body(report, args.trace);
  }

  // "json", empty line, EOF and anything unrecognized keep the historical
  // default so old clients never break.
  return registry_->snapshot().to_json(/*pretty=*/true);
}

bool StatsServer::dump_now() {
  if (config_.dump_path.empty()) return false;
  std::FILE* file = std::fopen(config_.dump_path.c_str(), "a");
  if (!file) return false;
  std::string line = registry_->snapshot().to_json(/*pretty=*/false);
  std::fprintf(file, "%s\n", line.c_str());
  std::fclose(file);
  return true;
}

// --- reactor-hosted serving (ISSUE 6) -----------------------------------------
//
// One admin connection = one Connection object + two loop timers: the
// command deadline (reply with whatever arrived, so a slow-drip client is
// bounded) and the write deadline (a client that never reads cannot pin the
// buffered reply forever).

struct StatsServer::ClientState {
  std::string command;
  bool replied = false;
  net::TimerId command_deadline = 0;
  net::TimerId write_deadline = 0;
  // `profile` session state (ISSUE 7): the collection timer plus whether this
  // client owns the process-wide profiler session (so on_close can stop an
  // orphaned one when the client disconnects mid-profile).
  net::TimerId profile_timer = 0;
  bool profiling = false;
  bool profile_trace = false;
};

void StatsServer::reply(net::Connection& client, ClientState& state) {
  if (state.replied) return;
  state.replied = true;
  if (state.command_deadline != 0) {
    reactor_->cancel_timer(state.command_deadline);
    state.command_deadline = 0;
  }

  // `profile` must not run through render() here: render() sleeps for the
  // whole session, which would park the event loop (and trip our own
  // watchdog). Start the sampler now, reply when a loop timer fires.
  std::vector<std::string_view> words = util::split_whitespace(state.command);
  if (!words.empty() && words[0] == "profile") {
    ProfileArgs args = parse_profile(words);
    if (args.ok) {
      if (!Profiler::instance().start(args.config)) {
        client.send(error_body("profiler busy: a session is already running"));
      } else {
        state.profiling = true;
        state.profile_trace = args.trace;
        net::Connection* raw = &client;
        state.profile_timer = reactor_->add_timer(
            args.duration,
            [this, raw] {
              auto held = std::static_pointer_cast<ClientState>(raw->user_data);
              held->profile_timer = 0;
              ProfileReport report = Profiler::instance().stop_and_collect();
              held->profiling = false;
              raw->send(profile_body(report, held->profile_trace));
              raw->close_after_flush();
              if (raw->alive() && raw->pending_output() > 0) {
                held->write_deadline =
                    reactor_->add_timer(config_.io_timeout, [raw] { raw->close_now(); });
              }
              requests_served_.fetch_add(1, std::memory_order_relaxed);
            },
            "stats_profile_collect");
        return;  // reply comes from the collection timer
      }
    } else {
      client.send(error_body(args.error));
    }
    client.close_after_flush();
    if (client.alive() && client.pending_output() > 0) {
      net::Connection* raw = &client;
      state.write_deadline =
          reactor_->add_timer(config_.io_timeout, [raw] { raw->close_now(); });
    }
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  client.send(render(state.command));
  client.close_after_flush();
  // send()/close_after_flush() retire the connection synchronously on a hard
  // write error (reset, injected fault) — on_close already ran, so a timer
  // armed now would fire close_now() on a freed Connection. Only a still-live
  // connection with an undrained tail needs the write deadline.
  if (client.alive() && client.pending_output() > 0) {
    net::Connection* raw = &client;
    state.write_deadline =
        reactor_->add_timer(config_.io_timeout, [raw] { raw->close_now(); });
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

void StatsServer::on_client_data(net::Connection& client) {
  auto state = std::static_pointer_cast<ClientState>(client.user_data);
  std::string& in = client.input();
  std::size_t used = 0;
  while (!state->replied && used < in.size() && state->command.size() < 64) {
    char ch = in[used++];
    if (ch == '\n') {
      reply(client, *state);
      break;
    }
    if (ch != '\r') state->command += ch;
  }
  client.consume(used);
  if (!state->replied && state->command.size() >= 64) reply(client, *state);
}

void StatsServer::on_client(net::TcpSocket socket) {
  net::ConnectionHandler handler;
  handler.label = "stats_admin";
  handler.on_data = [this](net::Connection& client) { on_client_data(client); };
  handler.on_close = [this](net::Connection& client, bool) {
    auto state = std::static_pointer_cast<ClientState>(client.user_data);
    if (state) {
      if (state->command_deadline != 0) reactor_->cancel_timer(state->command_deadline);
      if (state->write_deadline != 0) reactor_->cancel_timer(state->write_deadline);
      if (state->profile_timer != 0) reactor_->cancel_timer(state->profile_timer);
      // Client went away mid-profile: stop the session so the next request
      // can start one, discarding the half-collected report.
      if (state->profiling) {
        Profiler::instance().stop_and_collect();
        state->profiling = false;
      }
    }
    clients_.erase(&client);
  };
  net::Connection* client = reactor_->add_connection(std::move(socket), handler);
  if (client == nullptr) return;
  clients_.insert(client);
  auto state = std::make_shared<ClientState>();
  client->user_data = state;
  state->command_deadline = reactor_->add_timer(config_.command_timeout, [this, client] {
    auto held = std::static_pointer_cast<ClientState>(client->user_data);
    held->command_deadline = 0;
    reply(*client, *held);  // deadline hit: answer whatever arrived so far
  });
}

bool StatsServer::start() {
  if (!listener_.valid() || reactor_ != nullptr) return false;
  if (config_.reactor != nullptr) {
    reactor_ = config_.reactor;
  } else {
    own_reactor_ = std::make_unique<net::Reactor>();
    reactor_ = own_reactor_.get();
  }
  listener_id_ = reactor_->add_listener(
      &listener_, [this](net::TcpSocket socket) { on_client(std::move(socket)); },
      "stats_accept");
  if (config_.dump_interval.count() > 0 && !config_.dump_path.empty()) {
    dump_timer_ = reactor_->add_periodic(config_.dump_interval, [this] { dump_now(); },
                                         "stats_dump");
  }
  if (TimeSeriesRecorder* history = config_.history) {
    history_.start(*reactor_, history->interval(), [history] { history->sample_once(); },
                   "stats_history");
  }
  if (own_reactor_ && !own_reactor_->start()) {
    history_.stop();
    own_reactor_.reset();
    reactor_ = nullptr;
    return false;
  }
  return true;
}

void StatsServer::stop() {
  if (reactor_ == nullptr) return;
  net::Reactor* reactor = reactor_;
  if (own_reactor_) own_reactor_->stop();
  reactor->run_on_loop([this] {
    if (listener_id_ != 0) reactor_->remove_listener(listener_id_);
    if (dump_timer_ != 0) reactor_->cancel_timer(dump_timer_);
    std::vector<net::Connection*> open(clients_.begin(), clients_.end());
    for (net::Connection* client : open) client->close_now();
  });
  history_.stop();
  listener_id_ = 0;
  dump_timer_ = 0;
  own_reactor_.reset();
  reactor_ = nullptr;
}

}  // namespace smartsock::obs
