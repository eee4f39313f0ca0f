#include "ipc/status_record.h"

#include <algorithm>

namespace smartsock::ipc {

void copy_fixed(char* dst, std::size_t capacity, const std::string& src) {
  std::size_t n = std::min(src.size(), capacity - 1);
  std::memcpy(dst, src.data(), n);
  std::memset(dst + n, 0, capacity - n);
}

}  // namespace smartsock::ipc
