// Symbol tables for the requirement language.
//
// The thesis distinguishes (§3.6.1) three variable classes plus builtins:
//  * server-side variables — 22 predefined names whose values come from the
//    monitors' status reports (Appendix B.1 plus the monitor_* network
//    metrics used in §5.3.2),
//  * user-side variables  — 10 predefined names (preferred/denied host
//    slots, Appendix B.2) whose values the user assigns,
//  * temp variables       — anything else the user assigns inside the
//    requirement text,
// and the hoc-style constants/built-in math functions of Appendix B.3/B.4.
//
// The compiler resolves every identifier against these tables once; the
// server-side variables resolve to a ServerSlot, whose value a binding
// supplies per evaluation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace smartsock::lang {

/// Server-side variables in slot order: the 22 names of Appendix B.1, then
/// the two network-monitor variables (per server *group*, §3.3.3 / §5.3.2).
enum class ServerSlot : std::uint8_t {
  kSystemLoad1, kSystemLoad5, kSystemLoad15,
  kCpuUser, kCpuNice, kCpuSystem, kCpuIdle, kCpuFree, kCpuBogomips,
  kMemoryTotal, kMemoryUsed, kMemoryFree,
  kDiskAllreq, kDiskRreq, kDiskRblocks, kDiskWreq, kDiskWblocks,
  kNetworkRbytesps, kNetworkRpacketsps, kNetworkTbytesps, kNetworkTpacketsps,
  kSecurityLevel,
  kNetworkBw, kNetworkDelay,
};
inline constexpr std::size_t kServerSlotCount = 24;

/// A set of server slots, one bit per ServerSlot.
using SlotMask = std::uint32_t;
inline constexpr SlotMask slot_bit(ServerSlot slot) {
  return SlotMask{1} << static_cast<unsigned>(slot);
}

/// The variable name the requirement text uses for `slot`.
std::string_view server_slot_name(ServerSlot slot);

/// The slot `name` denotes, if it is a server-side or monitor variable.
std::optional<ServerSlot> find_server_slot(std::string_view name);

/// Attribute values for one candidate server, keyed by variable name: what
/// a Binding's extensions hold (and the tests' name binding reads).
using AttributeSet = std::map<std::string, double, std::less<>>;

/// The canonical 22 server-side variable names (Appendix B.1).
const std::vector<std::string>& server_variable_names();

/// The network-monitor variables (per server *group*, §3.3.3 / §5.3.2).
const std::vector<std::string>& monitor_variable_names();

/// The 10 user-side variable names (Appendix B.2):
/// user_preferred_host1..5, user_denied_host1..5.
const std::vector<std::string>& user_variable_names();
inline constexpr std::size_t kUserSlotCount = 10;

bool is_server_variable(std::string_view name);
bool is_monitor_variable(std::string_view name);
bool is_user_variable(std::string_view name);

/// Index of `name` in user_variable_names(), if it is a user-side variable.
std::optional<std::size_t> user_slot_index(std::string_view name);

/// True for user_preferred_hostN slots, false for user_denied_hostN.
bool is_preferred_slot(std::string_view name);

/// hoc-style constants (Appendix B.3): PI, E, GAMMA, DEG, PHI.
std::optional<double> constant_value(std::string_view name);

}  // namespace smartsock::lang
