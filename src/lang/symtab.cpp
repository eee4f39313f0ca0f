#include "lang/symtab.h"

#include <algorithm>
#include <array>

namespace smartsock::lang {

namespace {

// Indexed by ServerSlot.
constexpr std::array<std::string_view, kServerSlotCount> kSlotNames = {
    // /proc/loadavg
    "host_system_load1", "host_system_load5", "host_system_load15",
    // /proc/stat cpu line (rates in [0,1]) + hardware speed
    "host_cpu_user", "host_cpu_nice", "host_cpu_system", "host_cpu_idle",
    "host_cpu_free", "host_cpu_bogomips",
    // /proc/meminfo, in MB
    "host_memory_total", "host_memory_used", "host_memory_free",
    // /proc/stat disk_io
    "host_disk_allreq", "host_disk_rreq", "host_disk_rblocks",
    "host_disk_wreq", "host_disk_wblocks",
    // /proc/net/dev, bytes/packets per second
    "host_network_rbytesps", "host_network_rpacketsps",
    "host_network_tbytesps", "host_network_tpacketsps",
    // security monitor clearance level
    "host_security_level",
    // network monitor: available bandwidth (Mbps) and delay (ms) to the
    // server's group
    "monitor_network_bw", "monitor_network_delay",
};

constexpr std::size_t kFirstMonitorSlot = static_cast<std::size_t>(ServerSlot::kNetworkBw);

std::vector<std::string> slot_names(std::size_t begin, std::size_t end) {
  return {kSlotNames.begin() + begin, kSlotNames.begin() + end};
}

}  // namespace

std::string_view server_slot_name(ServerSlot slot) {
  return kSlotNames[static_cast<std::size_t>(slot)];
}

std::optional<ServerSlot> find_server_slot(std::string_view name) {
  auto it = std::find(kSlotNames.begin(), kSlotNames.end(), name);
  if (it == kSlotNames.end()) return std::nullopt;
  return static_cast<ServerSlot>(it - kSlotNames.begin());
}

const std::vector<std::string>& server_variable_names() {
  static const std::vector<std::string> names = slot_names(0, kFirstMonitorSlot);
  return names;
}

const std::vector<std::string>& monitor_variable_names() {
  static const std::vector<std::string> names = slot_names(kFirstMonitorSlot, kServerSlotCount);
  return names;
}

const std::vector<std::string>& user_variable_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (int i = 1; i <= 5; ++i) out.push_back("user_preferred_host" + std::to_string(i));
    for (int i = 1; i <= 5; ++i) out.push_back("user_denied_host" + std::to_string(i));
    return out;
  }();
  return names;
}

bool is_server_variable(std::string_view name) {
  auto slot = find_server_slot(name);
  return slot && static_cast<std::size_t>(*slot) < kFirstMonitorSlot;
}

bool is_monitor_variable(std::string_view name) {
  auto slot = find_server_slot(name);
  return slot && static_cast<std::size_t>(*slot) >= kFirstMonitorSlot;
}

std::optional<std::size_t> user_slot_index(std::string_view name) {
  const auto& names = user_variable_names();
  auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return std::nullopt;
  return static_cast<std::size_t>(it - names.begin());
}

bool is_user_variable(std::string_view name) { return user_slot_index(name).has_value(); }

bool is_preferred_slot(std::string_view name) {
  return name.rfind("user_preferred_host", 0) == 0;
}

std::optional<double> constant_value(std::string_view name) {
  // The constants hoc predefines (Kernighan & Pike), which the thesis's
  // parser inherits.
  if (name == "PI") return 3.14159265358979323846;
  if (name == "E") return 2.71828182845904523536;
  if (name == "GAMMA") return 0.57721566490153286060;  // Euler-Mascheroni
  if (name == "DEG") return 57.29577951308232087680;   // degrees per radian
  if (name == "PHI") return 1.61803398874989484820;    // golden ratio
  return std::nullopt;
}

}  // namespace smartsock::lang
