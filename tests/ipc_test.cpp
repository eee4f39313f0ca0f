// Status store tests: record layout, in-memory semantics, and the SysV
// shared-memory implementation (skipped gracefully if the sandbox denies
// SysV IPC).
#include <gtest/gtest.h>

#include <thread>

#include <unistd.h>

#include "ipc/in_memory_store.h"
#include "ipc/sysv_store.h"

namespace smartsock::ipc {
namespace {

SysRecord make_sys(const std::string& host, const std::string& address,
                   std::uint64_t updated_ns = 100) {
  SysRecord record;
  copy_fixed(record.host, kHostNameLen, host);
  copy_fixed(record.address, kAddressLen, address);
  copy_fixed(record.group, kGroupLen, "g1");
  record.load1 = 0.5;
  record.updated_ns = updated_ns;
  return record;
}

// --- fixed strings -----------------------------------------------------------

TEST(FixedStrings, RoundTrip) {
  char buf[8];
  copy_fixed(buf, sizeof(buf), "abc");
  EXPECT_EQ(read_fixed(buf, sizeof(buf)), "abc");
}

TEST(FixedStrings, TruncatesLongNames) {
  char buf[8];
  copy_fixed(buf, sizeof(buf), "abcdefghijkl");
  EXPECT_EQ(read_fixed(buf, sizeof(buf)), "abcdefg");  // capacity-1 + NUL
}

TEST(FixedStrings, EmptyString) {
  char buf[8];
  copy_fixed(buf, sizeof(buf), "");
  EXPECT_EQ(read_fixed(buf, sizeof(buf)), "");
}

TEST(RecordLayout, SysRecordNearThesisSize) {
  // §5.2: "server status structure, which is 204 bytes long" — ours carries
  // the same fields; stay in the same ballpark.
  EXPECT_GE(sizeof(SysRecord), 180u);
  EXPECT_LE(sizeof(SysRecord), 280u);
}

// --- in-memory store (the contract both implementations share) ------------------

template <typename StoreT>
void run_store_contract(StoreT& store) {
  store.clear();

  // sys upsert keyed by address
  EXPECT_TRUE(store.put_sys(make_sys("a", "1.1.1.1:1", 10)));
  EXPECT_TRUE(store.put_sys(make_sys("b", "1.1.1.2:1", 20)));
  EXPECT_EQ(store.sys_records().size(), 2u);
  SysRecord updated = make_sys("a", "1.1.1.1:1", 30);
  updated.load1 = 0.9;
  EXPECT_TRUE(store.put_sys(updated));
  auto sys = store.sys_records();
  ASSERT_EQ(sys.size(), 2u);
  bool found = false;
  for (const auto& record : sys) {
    if (record.address_str() == "1.1.1.1:1") {
      found = true;
      EXPECT_DOUBLE_EQ(record.load1, 0.9);
      EXPECT_EQ(record.updated_ns, 30u);
    }
  }
  EXPECT_TRUE(found);

  // net upsert keyed by (from, to)
  NetRecord net;
  copy_fixed(net.from_group, kGroupLen, "g1");
  copy_fixed(net.to_group, kGroupLen, "g2");
  net.bw_mbps = 10;
  EXPECT_TRUE(store.put_net(net));
  net.bw_mbps = 20;
  EXPECT_TRUE(store.put_net(net));
  auto nets = store.net_records();
  ASSERT_EQ(nets.size(), 1u);
  EXPECT_DOUBLE_EQ(nets[0].bw_mbps, 20.0);

  // sec upsert keyed by host
  SecRecord sec;
  copy_fixed(sec.host, kHostNameLen, "a");
  sec.level = 3;
  EXPECT_TRUE(store.put_sec(sec));
  sec.level = 5;
  EXPECT_TRUE(store.put_sec(sec));
  auto secs = store.sec_records();
  ASSERT_EQ(secs.size(), 1u);
  EXPECT_EQ(secs[0].level, 5);

  // staleness expiry
  EXPECT_EQ(store.expire_sys_older_than(25), 1u);  // removes the 20 record
  EXPECT_EQ(store.sys_records().size(), 1u);

  // bulk replace
  std::vector<SysRecord> fresh = {make_sys("x", "2.2.2.2:9", 99)};
  store.replace_sys(fresh);
  ASSERT_EQ(store.sys_records().size(), 1u);
  EXPECT_EQ(store.sys_records()[0].host_str(), "x");

  store.clear();
  EXPECT_TRUE(store.sys_records().empty());
  EXPECT_TRUE(store.net_records().empty());
  EXPECT_TRUE(store.sec_records().empty());
}

TEST(InMemoryStore, Contract) {
  InMemoryStatusStore store;
  run_store_contract(store);
}

TEST(InMemoryStore, ConcurrentWritersDoNotCorrupt) {
  InMemoryStatusStore store;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&store, t] {
      for (int i = 0; i < 200; ++i) {
        store.put_sys(make_sys("h" + std::to_string(t),
                               "10.0.0." + std::to_string(t) + ":1",
                               static_cast<std::uint64_t>(i)));
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(store.sys_records().size(), 4u);  // one per address (upserts)
}

// --- SysV store -------------------------------------------------------------------

// Keys unique to this process: ctest runs every case as its own process,
// concurrently, and a key shared between two of them would let one case's
// TearDown remove the segments the other is using.
SysVKeys process_keys() {
  const int base = 0x40000000 + static_cast<int>(::getpid()) * 4;
  return {base, base + 1, base + 2};
}

class SysVStoreTest : public testing::Test {
 protected:
  const SysVKeys keys_ = process_keys();

  void SetUp() override {
    store_ = SysVStatusStore::create(keys_, 16, 16, 16);
    if (!store_) {
      GTEST_SKIP() << "SysV IPC unavailable in this environment";
    }
  }
  void TearDown() override {
    store_.reset();
    SysVStatusStore::remove_system_objects(keys_);
  }

  std::unique_ptr<SysVStatusStore> store_;
};

TEST_F(SysVStoreTest, Contract) { run_store_contract(*store_); }

TEST_F(SysVStoreTest, SecondAttachSeesData) {
  store_->clear();
  store_->put_sys(make_sys("shared", "9.9.9.9:1", 1));
  auto second = SysVStatusStore::create(keys_, 16, 16, 16);
  ASSERT_TRUE(second);
  auto records = second->sys_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].host_str(), "shared");
}

TEST_F(SysVStoreTest, CapacityBounded) {
  store_->clear();
  for (int i = 0; i < 32; ++i) {
    store_->put_sys(make_sys("h" + std::to_string(i),
                             "10.1.0." + std::to_string(i) + ":1", 1));
  }
  EXPECT_EQ(store_->sys_records().size(), 16u);  // capped at capacity
}

TEST_F(SysVStoreTest, PaperKeyAssignments) {
  // Table 4.3's keys are encoded as named constructors.
  SysVKeys monitor = SysVKeys::monitor_machine();
  EXPECT_EQ(monitor.sys_key, 1234);
  EXPECT_EQ(monitor.net_key, 1235);
  EXPECT_EQ(monitor.sec_key, 1236);
  SysVKeys wizard = SysVKeys::wizard_machine();
  EXPECT_EQ(wizard.sys_key, 4321);
  EXPECT_EQ(wizard.net_key, 5321);
  EXPECT_EQ(wizard.sec_key, 6321);
}

}  // namespace
}  // namespace smartsock::ipc
