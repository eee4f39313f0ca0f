#include "timed_store.h"

#include <cstring>

namespace pipebench {

using namespace smartsock;

void TimedStore::watch_sys(const std::string& address) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watch_address_ = address;
  watched_.clear();
}

std::vector<TimedStore::WatchedWrite> TimedStore::watched_writes() const {
  std::lock_guard<std::mutex> lock(watch_mu_);
  return watched_;
}

std::vector<double> TimedStore::put_sys_us() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return put_sys_us_;
}

std::vector<double> TimedStore::snapshot_us() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return snapshot_us_;
}

std::uint64_t TimedStore::snapshot_rebuilds() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return snapshot_rebuilds_;
}

void TimedStore::reset() {
  for (OpStats& op : ops_) {
    op.calls.store(0, std::memory_order_relaxed);
    op.busy_ns.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(samples_mu_);
  put_sys_us_.clear();
  snapshot_us_.clear();
  snapshot_rebuilds_ = 0;
  last_snapshot_.reset();
}

void TimedStore::account(Op op, std::uint64_t started_ns) const {
  std::uint64_t elapsed = ipc::steady_now_ns() - started_ns;
  ops_[op].calls.fetch_add(1, std::memory_order_relaxed);
  ops_[op].busy_ns.fetch_add(elapsed, std::memory_order_relaxed);
  if (op == kPutSys) {
    std::lock_guard<std::mutex> lock(samples_mu_);
    put_sys_us_.push_back(static_cast<double>(elapsed) / 1e3);
  }
}

void TimedStore::note_watched(const ipc::SysRecord& record, std::uint64_t at_ns) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  if (watch_address_.empty() ||
      std::strncmp(record.address, watch_address_.c_str(), ipc::kAddressLen) != 0) {
    return;
  }
  watched_.push_back(WatchedWrite{at_ns, record.bogomips});
}

bool TimedStore::put_sys(const ipc::SysRecord& record) {
  std::uint64_t started = ipc::steady_now_ns();
  bool ok = inner_->put_sys(record);
  account(kPutSys, started);
  note_watched(record, ipc::steady_now_ns());
  return ok;
}

bool TimedStore::put_net(const ipc::NetRecord& record) {
  std::uint64_t started = ipc::steady_now_ns();
  bool ok = inner_->put_net(record);
  account(kPutNet, started);
  return ok;
}

bool TimedStore::put_sec(const ipc::SecRecord& record) {
  std::uint64_t started = ipc::steady_now_ns();
  bool ok = inner_->put_sec(record);
  account(kPutSec, started);
  return ok;
}

std::vector<ipc::SysRecord> TimedStore::sys_records() const {
  std::uint64_t started = ipc::steady_now_ns();
  auto out = inner_->sys_records();
  account(kSysRecords, started);
  return out;
}

std::vector<ipc::NetRecord> TimedStore::net_records() const {
  std::uint64_t started = ipc::steady_now_ns();
  auto out = inner_->net_records();
  account(kNetRecords, started);
  return out;
}

std::vector<ipc::SecRecord> TimedStore::sec_records() const {
  std::uint64_t started = ipc::steady_now_ns();
  auto out = inner_->sec_records();
  account(kSecRecords, started);
  return out;
}

void TimedStore::replace_sys(const std::vector<ipc::SysRecord>& records) {
  std::uint64_t started = ipc::steady_now_ns();
  inner_->replace_sys(records);
  account(kReplaceSys, started);
  std::uint64_t done = ipc::steady_now_ns();
  for (const ipc::SysRecord& record : records) note_watched(record, done);
}

void TimedStore::replace_net(const std::vector<ipc::NetRecord>& records) {
  std::uint64_t started = ipc::steady_now_ns();
  inner_->replace_net(records);
  account(kReplaceNet, started);
}

void TimedStore::replace_sec(const std::vector<ipc::SecRecord>& records) {
  std::uint64_t started = ipc::steady_now_ns();
  inner_->replace_sec(records);
  account(kReplaceSec, started);
}

bool TimedStore::erase_sys(const ipc::SysKey& key) {
  std::uint64_t started = ipc::steady_now_ns();
  bool removed = inner_->erase_sys(key);
  account(kEraseSys, started);
  return removed;
}

bool TimedStore::erase_net(const ipc::NetKey& key) {
  std::uint64_t started = ipc::steady_now_ns();
  bool removed = inner_->erase_net(key);
  account(kEraseNet, started);
  return removed;
}

bool TimedStore::erase_sec(const ipc::SecKey& key) {
  std::uint64_t started = ipc::steady_now_ns();
  bool removed = inner_->erase_sec(key);
  account(kEraseSec, started);
  return removed;
}

std::size_t TimedStore::expire_sys_older_than(std::uint64_t cutoff_ns) {
  std::uint64_t started = ipc::steady_now_ns();
  std::size_t removed = inner_->expire_sys_older_than(cutoff_ns);
  account(kExpireSys, started);
  return removed;
}

void TimedStore::clear() {
  std::uint64_t started = ipc::steady_now_ns();
  inner_->clear();
  account(kClear, started);
}

std::uint64_t TimedStore::version() const {
  std::uint64_t started = ipc::steady_now_ns();
  std::uint64_t v = inner_->version();
  account(kVersion, started);
  return v;
}

ipc::SnapshotPtr TimedStore::snapshot() const {
  std::uint64_t started = ipc::steady_now_ns();
  ipc::SnapshotPtr snap = inner_->snapshot();
  std::uint64_t elapsed = ipc::steady_now_ns() - started;
  ops_[kSnapshot].calls.fetch_add(1, std::memory_order_relaxed);
  ops_[kSnapshot].busy_ns.fetch_add(elapsed, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(samples_mu_);
  snapshot_us_.push_back(static_cast<double>(elapsed) / 1e3);
  if (snap != last_snapshot_) {
    last_snapshot_ = snap;
    ++snapshot_rebuilds_;
  }
  return snap;
}

std::uint64_t TimedStore::newest_sys_update_ns() const {
  std::uint64_t started = ipc::steady_now_ns();
  std::uint64_t newest = inner_->newest_sys_update_ns();
  account(kNewestSys, started);
  return newest;
}

}  // namespace pipebench
