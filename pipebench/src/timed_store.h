// Timing decorator over ipc::StatusStore, used only in the traced run.
//
// Forwards every virtual to the wrapped store and records, per operation,
// the call count and the busy time spent inside the wrapped call. put_sys
// and snapshot() also keep every duration so the benchmark can report
// medians and tails, snapshot() counts distinct returned pointers (one per
// copy-on-write rebuild), and writes to one watched sys key are logged with
// their timestamp and marker value — that is how a freshness marker's lag
// is split into monitor, transport and wizard segments.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ipc/status_store.h"

namespace pipebench {

class TimedStore final : public smartsock::ipc::StatusStore {
 public:
  enum Op : std::size_t {
    kPutSys,
    kPutNet,
    kPutSec,
    kSysRecords,
    kNetRecords,
    kSecRecords,
    kReplaceSys,
    kReplaceNet,
    kReplaceSec,
    kEraseSys,
    kEraseNet,
    kEraseSec,
    kExpireSys,
    kClear,
    kVersion,
    kSnapshot,
    kNewestSys,
    kOpCount,
  };

  /// One write to the watched key: when it happened and the record's
  /// bogomips, which carries the marker state.
  struct WatchedWrite {
    std::uint64_t at_ns = 0;
    double value = 0;
  };

  explicit TimedStore(smartsock::ipc::StatusStore& inner) : inner_(&inner) {}

  /// Logs every subsequent write (put or bulk replace) to the sys record
  /// whose address is `address`.
  void watch_sys(const std::string& address);
  std::vector<WatchedWrite> watched_writes() const;

  std::uint64_t calls(Op op) const { return ops_[op].calls.load(std::memory_order_relaxed); }
  std::uint64_t busy_ns(Op op) const { return ops_[op].busy_ns.load(std::memory_order_relaxed); }
  /// Durations (µs) of every put_sys / snapshot() call since the last reset.
  std::vector<double> put_sys_us() const;
  std::vector<double> snapshot_us() const;
  /// Distinct snapshot pointers returned since the last reset.
  std::uint64_t snapshot_rebuilds() const;

  /// Zeroes counters and samples (phase boundary); keeps the watch key.
  void reset();

  bool put_sys(const smartsock::ipc::SysRecord& record) override;
  bool put_net(const smartsock::ipc::NetRecord& record) override;
  bool put_sec(const smartsock::ipc::SecRecord& record) override;
  std::vector<smartsock::ipc::SysRecord> sys_records() const override;
  std::vector<smartsock::ipc::NetRecord> net_records() const override;
  std::vector<smartsock::ipc::SecRecord> sec_records() const override;
  void replace_sys(const std::vector<smartsock::ipc::SysRecord>& records) override;
  void replace_net(const std::vector<smartsock::ipc::NetRecord>& records) override;
  void replace_sec(const std::vector<smartsock::ipc::SecRecord>& records) override;
  bool erase_sys(const smartsock::ipc::SysKey& key) override;
  bool erase_net(const smartsock::ipc::NetKey& key) override;
  bool erase_sec(const smartsock::ipc::SecKey& key) override;
  std::size_t expire_sys_older_than(std::uint64_t cutoff_ns) override;
  void clear() override;
  std::uint64_t version() const override;
  smartsock::ipc::SnapshotPtr snapshot() const override;
  std::uint64_t newest_sys_update_ns() const override;

 private:
  struct OpStats {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  void account(Op op, std::uint64_t started_ns) const;
  void note_watched(const smartsock::ipc::SysRecord& record, std::uint64_t at_ns);

  smartsock::ipc::StatusStore* inner_;
  mutable std::array<OpStats, kOpCount> ops_{};

  mutable std::mutex samples_mu_;
  mutable std::vector<double> put_sys_us_;
  mutable std::vector<double> snapshot_us_;
  // Held, not just compared, so a freed snapshot's address cannot be
  // reused by the next rebuild and hide it.
  mutable smartsock::ipc::SnapshotPtr last_snapshot_;
  mutable std::uint64_t snapshot_rebuilds_ = 0;

  mutable std::mutex watch_mu_;
  std::string watch_address_;
  std::vector<WatchedWrite> watched_;
};

}  // namespace pipebench
