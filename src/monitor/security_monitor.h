// Security monitor (§3.4).
//
// The thesis keeps security deliberately open: the current implementation
// "reads the security records from a dummy security log" mapping host names
// to integer clearance levels, with the framework left pluggable so agents
// like Cisco NAC can feed it later. We reproduce that: a SecuritySource
// interface with a log-file implementation (lines: "<host> <level>", '#'
// comments) and an in-memory implementation for tests/harness.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ipc/status_store.h"
#include "net/reactor.h"
#include "util/clock.h"

namespace smartsock::monitor {

class SecuritySource {
 public:
  virtual ~SecuritySource() = default;
  /// Current host -> clearance level map.
  virtual std::map<std::string, int> levels() = 0;
};

/// Parses a security log ("host level" per line, '#' comments). Malformed
/// lines are skipped.
std::map<std::string, int> parse_security_log(std::string_view text);

/// Re-reads a log file on every poll.
class FileSecuritySource final : public SecuritySource {
 public:
  explicit FileSecuritySource(std::string path) : path_(std::move(path)) {}
  std::map<std::string, int> levels() override;

 private:
  std::string path_;
};

/// Programmatic source (harness/tests).
class StaticSecuritySource final : public SecuritySource {
 public:
  void set_level(const std::string& host, int level);
  std::map<std::string, int> levels() override;

 private:
  std::mutex mu_;
  std::map<std::string, int> levels_;
};

struct SecurityMonitorConfig {
  util::Duration interval = std::chrono::seconds(5);
};

class SecurityMonitor {
 public:
  SecurityMonitor(SecurityMonitorConfig config, std::unique_ptr<SecuritySource> source,
                  ipc::StatusStore& store);
  ~SecurityMonitor();

  SecurityMonitor(const SecurityMonitor&) = delete;
  SecurityMonitor& operator=(const SecurityMonitor&) = delete;

  /// One poll: reads the source and refreshes secdb. Returns hosts stored.
  std::size_t refresh_once();

  /// Refreshes at once, then every config.interval as the `secmon_refresh`
  /// timer on `loop`. stop() cancels it; stop before `loop` is destroyed.
  bool start(net::Reactor& loop);
  void stop();

 private:
  SecurityMonitorConfig config_;
  std::unique_ptr<SecuritySource> source_;
  ipc::StatusStore* store_;

  net::PeriodicJob cycle_;
};

}  // namespace smartsock::monitor
