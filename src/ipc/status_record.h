// Fixed-layout status records (§3.5.1, Fig 3.10).
//
// The thesis transfers monitor databases between machines in raw binary
// ("the contents can be directly copied to shared memory"), accepting a
// same-architecture constraint. We keep that design: the three record types
// are trivially-copyable PODs with fixed-width members, memcpy-framed by the
// transport codec and stored contiguously in the SysV shared-memory store.
//
// SysRecord deliberately lands close to the thesis's "204 bytes per server
// status structure" (§5.2).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace smartsock::ipc {

inline constexpr std::size_t kHostNameLen = 28;
inline constexpr std::size_t kAddressLen = 24;
inline constexpr std::size_t kGroupLen = 16;

/// Copies a string into a fixed char array, always NUL-terminated.
void copy_fixed(char* dst, std::size_t capacity, const std::string& src);

/// Views a fixed char array up to its first NUL, without copying.
inline std::string_view fixed_view(const char* src, std::size_t capacity) {
  return {src, ::strnlen(src, capacity)};
}

/// Reads a fixed char array back into a string.
inline std::string read_fixed(const char* src, std::size_t capacity) {
  return std::string(fixed_view(src, capacity));
}

/// One server's system status (sysdb entry).
struct SysRecord {
  char host[kHostNameLen] = {};
  char address[kAddressLen] = {};
  char group[kGroupLen] = {};

  double load1 = 0, load5 = 0, load15 = 0;
  double cpu_user = 0, cpu_nice = 0, cpu_system = 0, cpu_idle = 0;
  double bogomips = 0;
  double mem_total_mb = 0, mem_used_mb = 0, mem_free_mb = 0;
  double disk_rreq_ps = 0, disk_rblocks_ps = 0, disk_wreq_ps = 0, disk_wblocks_ps = 0;
  double net_rbytes_ps = 0, net_rpackets_ps = 0, net_tbytes_ps = 0, net_tpackets_ps = 0;

  std::uint64_t updated_ns = 0;  // monitor-side report timestamp

  std::string host_str() const { return read_fixed(host, kHostNameLen); }
  std::string address_str() const { return read_fixed(address, kAddressLen); }
  std::string group_str() const { return read_fixed(group, kGroupLen); }
  std::string_view host_view() const { return fixed_view(host, kHostNameLen); }
  std::string_view address_view() const { return fixed_view(address, kAddressLen); }
  std::string_view group_view() const { return fixed_view(group, kGroupLen); }
};

/// One network path's metrics (netdb entry): local group -> remote group.
struct NetRecord {
  char from_group[kGroupLen] = {};
  char to_group[kGroupLen] = {};
  double delay_ms = 0;
  double bw_mbps = 0;
  std::uint64_t updated_ns = 0;

  std::string from_str() const { return read_fixed(from_group, kGroupLen); }
  std::string to_str() const { return read_fixed(to_group, kGroupLen); }
  std::string_view from_view() const { return fixed_view(from_group, kGroupLen); }
  std::string_view to_view() const { return fixed_view(to_group, kGroupLen); }
};

/// One server's security clearance (secdb entry).
struct SecRecord {
  char host[kHostNameLen] = {};
  std::int32_t level = 0;
  std::int32_t pad = 0;  // keep 8-byte layout explicit
  std::uint64_t updated_ns = 0;

  std::string host_str() const { return read_fixed(host, kHostNameLen); }
  std::string_view host_view() const { return fixed_view(host, kHostNameLen); }
};

static_assert(std::is_trivially_copyable_v<SysRecord>);
static_assert(std::is_trivially_copyable_v<NetRecord>);
static_assert(std::is_trivially_copyable_v<SecRecord>);

}  // namespace smartsock::ipc
