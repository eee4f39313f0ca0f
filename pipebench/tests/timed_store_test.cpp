#include "timed_store.h"

#include <gtest/gtest.h>

#include <cstring>

#include "ipc/in_memory_store.h"
#include "util/rng.h"

namespace pipebench {
namespace {

using namespace smartsock;

ipc::SysRecord sys_record(int id, double load, std::uint64_t updated_ns) {
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, "h" + std::to_string(id));
  ipc::copy_fixed(record.address, ipc::kAddressLen, "10.0.0." + std::to_string(id) + ":5000");
  ipc::copy_fixed(record.group, ipc::kGroupLen, "g");
  record.load1 = load;
  record.updated_ns = updated_ns;
  return record;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Every field except the epoch, which each store seeds from the clock.
void expect_identical(const ipc::Snapshot& a, const ipc::Snapshot& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.delta_capable, b.delta_capable);
  EXPECT_EQ(a.delta_floor, b.delta_floor);
  EXPECT_EQ(a.newest_sys_update_ns, b.newest_sys_update_ns);
  EXPECT_TRUE(same_bytes(a.sys, b.sys));
  EXPECT_TRUE(same_bytes(a.net, b.net));
  EXPECT_TRUE(same_bytes(a.sec, b.sec));
  EXPECT_EQ(a.sys_versions, b.sys_versions);
  EXPECT_EQ(a.net_versions, b.net_versions);
  EXPECT_EQ(a.sec_versions, b.sec_versions);
  ASSERT_EQ(a.sys_tombstones.size(), b.sys_tombstones.size());
  for (std::size_t i = 0; i < a.sys_tombstones.size(); ++i) {
    EXPECT_EQ(a.sys_tombstones[i].first, b.sys_tombstones[i].first);
    EXPECT_EQ(std::memcmp(&a.sys_tombstones[i].second, &b.sys_tombstones[i].second,
                          sizeof(ipc::SysKey)),
              0);
  }
}

TEST(TimedStore, WrappedAndPlainStoresGiveByteIdenticalSnapshots) {
  ipc::InMemoryStatusStore plain;
  ipc::InMemoryStatusStore inner;
  TimedStore timed(inner);
  util::Rng rng(42);
  for (int step = 0; step < 2000; ++step) {
    int id = static_cast<int>(rng.uniform_int(0, 63));
    ipc::SysRecord record = sys_record(id, rng.uniform(0, 4), 1000 + step);
    switch (rng.uniform_int(0, 9)) {
      case 0: {
        ipc::SysKey key = ipc::sys_key_of(record);
        EXPECT_EQ(plain.erase_sys(key), timed.erase_sys(key));
        break;
      }
      case 1: {
        EXPECT_EQ(plain.expire_sys_older_than(step + 900), timed.expire_sys_older_than(step + 900));
        break;
      }
      case 2: {
        std::vector<ipc::SysRecord> bulk = {record, sys_record(id + 64, 1.0, 5)};
        plain.replace_sys(bulk);
        timed.replace_sys(bulk);
        break;
      }
      default:
        EXPECT_EQ(plain.put_sys(record), timed.put_sys(record));
    }
    if (step % 97 == 0) expect_identical(*plain.snapshot(), *timed.snapshot());
    EXPECT_EQ(plain.version(), timed.version());
  }
  expect_identical(*plain.snapshot(), *timed.snapshot());
  EXPECT_EQ(plain.newest_sys_update_ns(), timed.newest_sys_update_ns());
  EXPECT_TRUE(same_bytes(plain.sys_records(), timed.sys_records()));
}

TEST(TimedStore, CountsCallsRebuildsAndWatchedWrites) {
  ipc::InMemoryStatusStore inner;
  TimedStore timed(inner);
  timed.watch_sys("10.0.0.7:5000");
  timed.put_sys(sys_record(1, 0.5, 1));
  auto first = timed.snapshot();
  auto again = timed.snapshot();  // no write in between: same pointer
  EXPECT_EQ(first, again);
  ipc::SysRecord watched = sys_record(7, 0.5, 2);
  watched.bogomips = 2.0;
  timed.put_sys(watched);
  timed.snapshot();
  timed.replace_sys({watched});

  EXPECT_EQ(timed.calls(TimedStore::kPutSys), 2u);
  EXPECT_EQ(timed.calls(TimedStore::kSnapshot), 3u);
  EXPECT_EQ(timed.snapshot_rebuilds(), 2u);
  EXPECT_EQ(timed.put_sys_us().size(), 2u);
  auto writes = timed.watched_writes();
  ASSERT_EQ(writes.size(), 2u);  // the put and the bulk replace
  EXPECT_DOUBLE_EQ(writes[0].value, 2.0);
  EXPECT_LE(writes[0].at_ns, writes[1].at_ns);

  timed.reset();
  EXPECT_EQ(timed.calls(TimedStore::kPutSys), 0u);
  EXPECT_EQ(timed.snapshot_rebuilds(), 0u);
  EXPECT_EQ(timed.watched_writes().size(), 2u);  // the watch log survives a reset
}

}  // namespace
}  // namespace pipebench
