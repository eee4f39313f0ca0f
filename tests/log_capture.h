// Captures every log line the process emits, at debug level, for the
// lifetime of the object. Lines read "component: message".
#pragma once

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.h"

namespace smartsock {

class LogCapture {
 public:
  LogCapture() : previous_level_(util::Logger::instance().level()) {
    util::Logger::instance().set_level(util::LogLevel::kDebug);
    util::Logger::instance().set_sink(
        [this](util::LogLevel, std::string_view component, std::string_view message) {
          std::lock_guard<std::mutex> lock(mu_);
          lines_.push_back(std::string(component) + ": " + std::string(message));
        });
  }
  ~LogCapture() {
    util::Logger::instance().set_sink(nullptr);
    util::Logger::instance().set_level(previous_level_);
  }
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  /// The captured lines containing `needle`, oldest first.
  std::vector<std::string> grep(std::string_view needle) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (const std::string& line : lines_) {
      if (line.find(needle) != std::string::npos) out.push_back(line);
    }
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
  util::LogLevel previous_level_;
};

/// The 16-hex id after "trace_id=" in a span line, or "" without one.
inline std::string line_trace_id(const std::string& line) {
  auto pos = line.find("trace_id=");
  return pos == std::string::npos ? "" : line.substr(pos + 9, 16);
}

}  // namespace smartsock
