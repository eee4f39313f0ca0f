#include "monitor/security_monitor.h"

#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace smartsock::monitor {

std::map<std::string, int> parse_security_log(std::string_view text) {
  std::map<std::string, int> levels;
  for (std::string_view raw : util::split(text, '\n')) {
    std::string_view line = raw;
    if (std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    auto fields = util::split_whitespace(line);
    if (fields.size() != 2) continue;
    auto level = util::parse_int(fields[1]);
    if (!level) continue;
    levels[std::string(fields[0])] = static_cast<int>(*level);
  }
  return levels;
}

std::map<std::string, int> FileSecuritySource::levels() {
  std::ifstream in(path_);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_security_log(buffer.str());
}

void StaticSecuritySource::set_level(const std::string& host, int level) {
  std::lock_guard<std::mutex> lock(mu_);
  levels_[host] = level;
}

std::map<std::string, int> StaticSecuritySource::levels() {
  std::lock_guard<std::mutex> lock(mu_);
  return levels_;
}

SecurityMonitor::SecurityMonitor(SecurityMonitorConfig config,
                                 std::unique_ptr<SecuritySource> source,
                                 ipc::StatusStore& store)
    : config_(config), source_(std::move(source)), store_(&store) {}

SecurityMonitor::~SecurityMonitor() { stop(); }

std::size_t SecurityMonitor::refresh_once() {
  auto levels = source_->levels();
  std::uint64_t now = ipc::steady_now_ns();
  for (const auto& [host, level] : levels) {
    ipc::SecRecord record;
    ipc::copy_fixed(record.host, ipc::kHostNameLen, host);
    record.level = level;
    record.updated_ns = now;
    store_->put_sec(record);
  }
  return levels.size();
}

bool SecurityMonitor::start(net::Reactor& loop) {
  return cycle_.start(loop, config_.interval, [this] { refresh_once(); }, "secmon_refresh");
}

void SecurityMonitor::stop() { cycle_.stop(); }

}  // namespace smartsock::monitor
