// Transport tests: frame codec, transmitter/receiver in both modes, and the
// damaged-stream paths (truncated frames, partial writes, resets).
#include <gtest/gtest.h>

#include <thread>

#include "ipc/in_memory_store.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "transport/receiver.h"
#include "transport/record_codec.h"
#include "transport/transmitter.h"

namespace smartsock::transport {
namespace {

using namespace std::chrono_literals;

ipc::SysRecord make_sys(const std::string& host, double load) {
  ipc::SysRecord record;
  ipc::copy_fixed(record.host, ipc::kHostNameLen, host);
  ipc::copy_fixed(record.address, ipc::kAddressLen, host + ":1");
  record.load1 = load;
  record.updated_ns = 1;
  return record;
}

/// Polls `done` until it holds or `timeout` passes; returns its last value.
template <typename Pred>
bool wait_until(Pred done, std::chrono::milliseconds timeout = 2s) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  return done();
}

// --- codec ---------------------------------------------------------------------

TEST(Codec, FrameRoundTripOverSocket) {
  auto listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(listener);

  std::vector<ipc::SysRecord> records = {make_sys("a", 0.1), make_sys("b", 0.2)};
  std::string frame = encode_frame(FrameType::kSysDb, encode_records(records));

  std::thread sender([&] {
    auto conn = net::TcpSocket::connect(listener->local_endpoint(), 1s);
    ASSERT_TRUE(conn);
    ASSERT_TRUE(conn->send_all(frame).ok());
  });

  auto conn = listener->accept(1s);
  ASSERT_TRUE(conn);
  conn->set_receive_timeout(1s);
  auto received = read_frame(*conn);
  sender.join();
  ASSERT_TRUE(received);
  EXPECT_EQ(received->type, FrameType::kSysDb);
  auto decoded = decode_records<ipc::SysRecord>(received->payload);
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].host_str(), "a");
  EXPECT_DOUBLE_EQ((*decoded)[1].load1, 0.2);
}

TEST(Codec, EmptyPayloadFrame) {
  std::string frame = encode_frame(FrameType::kUpdateRequest, "");
  EXPECT_EQ(frame.size(), 8u);
}

TEST(Codec, DecodeRejectsMisalignedPayload) {
  std::string bad(sizeof(ipc::SysRecord) + 3, 'x');
  EXPECT_FALSE(decode_records<ipc::SysRecord>(bad));
}

TEST(Codec, DecodeEmptyPayload) {
  auto decoded = decode_records<ipc::NetRecord>("");
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->empty());
}

TEST(Codec, ReadFrameRejectsBadType) {
  auto listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(listener);
  std::thread sender([&] {
    auto conn = net::TcpSocket::connect(listener->local_endpoint(), 1s);
    ASSERT_TRUE(conn);
    std::string bogus(8, '\0');
    bogus[3] = 99;  // type 99, big-endian
    conn->send_all(bogus);
  });
  auto conn = listener->accept(1s);
  ASSERT_TRUE(conn);
  conn->set_receive_timeout(1s);
  FrameReadError why = FrameReadError::kNone;
  EXPECT_FALSE(read_frame(*conn, &why));
  EXPECT_EQ(why, FrameReadError::kBadType);
  sender.join();
}

// --- damaged streams (ISSUE 3) -------------------------------------------------

// One accepted connection fed exactly `bytes`, then closed by the peer.
std::pair<std::optional<Frame>, FrameReadError> read_after_sending(
    const std::string& bytes) {
  auto listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  EXPECT_TRUE(listener);
  std::thread sender([&] {
    auto conn = net::TcpSocket::connect(listener->local_endpoint(), 1s);
    ASSERT_TRUE(conn);
    if (!bytes.empty()) conn->send_all(bytes);
  });
  auto conn = listener->accept(1s);
  EXPECT_TRUE(conn);
  conn->set_receive_timeout(1s);
  FrameReadError why = FrameReadError::kNone;
  auto frame = read_frame(*conn, &why);
  sender.join();
  return {std::move(frame), why};
}

TEST(Codec, ReadFrameDistinguishesCleanEofFromTruncation) {
  auto [eof_frame, eof_why] = read_after_sending("");
  EXPECT_FALSE(eof_frame);
  EXPECT_EQ(eof_why, FrameReadError::kEof);

  // Half a header, then close.
  auto [cut_frame, cut_why] = read_after_sending(std::string(4, '\0'));
  EXPECT_FALSE(cut_frame);
  EXPECT_EQ(cut_why, FrameReadError::kTruncated);

  // Full header promising 100 bytes, only 10 delivered.
  std::string frame = encode_frame(FrameType::kSysDb, std::string(100, 'x'));
  auto [short_frame, short_why] = read_after_sending(frame.substr(0, 18));
  EXPECT_FALSE(short_frame);
  EXPECT_EQ(short_why, FrameReadError::kTruncated);
}

TEST(Codec, ReadFrameRejectsOversizedPayload) {
  std::string header(8, '\0');
  header[3] = 1;  // kSysDb
  header[4] = 0x7f;  // ~2 GB size, big-endian
  auto [frame, why] = read_after_sending(header);
  EXPECT_FALSE(frame);
  EXPECT_EQ(why, FrameReadError::kOversized);
}

TEST(Transport, ReceiverAbortsOnTruncatedFrameMidStream) {
  ipc::InMemoryStatusStore store;
  Receiver receiver(ReceiverConfig{}, store);
  ASSERT_TRUE(receiver.valid());
  ASSERT_TRUE(receiver.start());

  std::vector<ipc::SysRecord> records = {make_sys("whole", 0.3)};
  std::string good = encode_frame(FrameType::kSysDb, encode_records(records));
  std::string bad = encode_frame(FrameType::kNetDb, std::string(64, 'y'));
  bad.resize(bad.size() - 32);  // promised 64 payload bytes, delivers 32

  {
    auto conn = net::TcpSocket::connect(receiver.endpoint(), 1s);
    ASSERT_TRUE(conn);
    conn->send_all(good + bad);
  }
  // A damaged stream != snapshot.
  EXPECT_TRUE(wait_until([&] { return receiver.malformed_frames() == 1; }));
  receiver.stop();
  EXPECT_EQ(receiver.malformed_frames(), 1u);
  EXPECT_EQ(receiver.snapshots_received(), 0u);
}

TEST(Transport, ReceiverAbortsOnUndecodableRecords) {
  ipc::InMemoryStatusStore store;
  Receiver receiver(ReceiverConfig{}, store);
  ASSERT_TRUE(receiver.valid());
  ASSERT_TRUE(receiver.start());

  // Misaligned sysdb payload: parses as a frame, fails record decoding.
  std::string junk = encode_frame(FrameType::kSysDb, std::string(13, 'z'));
  {
    auto conn = net::TcpSocket::connect(receiver.endpoint(), 1s);
    ASSERT_TRUE(conn);
    conn->send_all(junk);
  }
  EXPECT_TRUE(wait_until([&] { return receiver.malformed_frames() == 1; }));
  receiver.stop();
  EXPECT_EQ(receiver.malformed_frames(), 1u);
  EXPECT_EQ(receiver.snapshots_received(), 0u);
  EXPECT_TRUE(store.sys_records().empty());
}

TEST(Transport, PartialWriteFaultAbortsPushAndReceiverCountsIt) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  monitor_store.put_sys(make_sys("cutoff", 0.4));

  Receiver receiver(ReceiverConfig{}, wizard_store);
  ASSERT_TRUE(receiver.valid());
  ASSERT_TRUE(receiver.start());
  TransmitterConfig tx_config;
  tx_config.receiver = receiver.endpoint();
  Transmitter transmitter(tx_config, monitor_store);

  net::FaultConfig faults;
  faults.seed = 5;
  faults.tcp_truncate_send = 1.0;  // every send writes a prefix, then closes
  net::FaultInjector injector(faults);

  bool pushed;
  {
    net::ScopedGlobalFaults scoped(injector);
    pushed = transmitter.transmit_once();
  }
  EXPECT_FALSE(pushed);
  EXPECT_GE(injector.stats().tcp_truncated_send, 1u);
  // Every attempt the transmitter made was cut short: the receiver counts
  // each as a damaged stream and applies nothing from any of them.
  std::uint64_t truncated = injector.stats().tcp_truncated_send;
  EXPECT_TRUE(wait_until([&] { return receiver.malformed_frames() == truncated; }));
  receiver.stop();
  EXPECT_EQ(receiver.malformed_frames(), truncated);
  EXPECT_EQ(receiver.snapshots_received(), 0u);
  EXPECT_TRUE(wizard_store.sys_records().empty());
}

TEST(Transport, ConnectionResetFaultFailsPushCleanly) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  monitor_store.put_sys(make_sys("reset", 0.4));

  Receiver receiver(ReceiverConfig{}, wizard_store);
  ASSERT_TRUE(receiver.valid());
  ASSERT_TRUE(receiver.start());
  TransmitterConfig tx_config;
  tx_config.receiver = receiver.endpoint();
  Transmitter transmitter(tx_config, monitor_store);
  obs::Counter* closes = obs::MetricsRegistry::instance().counter("reactor_closes_total");
  std::uint64_t closes_before = closes->value();

  net::FaultConfig faults;
  faults.seed = 6;
  faults.tcp_reset_send = 1.0;
  net::FaultInjector injector(faults);

  bool pushed;
  {
    net::ScopedGlobalFaults scoped(injector);
    pushed = transmitter.transmit_once();
  }
  EXPECT_FALSE(pushed);
  EXPECT_GE(injector.stats().tcp_reset_send, 1u);
  // Each attempt died before its first byte: once the receiver has closed
  // every one of them, nothing was applied.
  std::uint64_t resets = injector.stats().tcp_reset_send;
  EXPECT_TRUE(wait_until([&] { return closes->value() - closes_before >= resets; }));
  receiver.stop();
  EXPECT_EQ(receiver.snapshots_received(), 0u);
  EXPECT_TRUE(wizard_store.sys_records().empty());
}

// --- centralized push ---------------------------------------------------------

TEST(Transport, CentralizedPushMirrorsDatabases) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  monitor_store.put_sys(make_sys("h1", 0.5));
  ipc::NetRecord net;
  ipc::copy_fixed(net.from_group, ipc::kGroupLen, "g1");
  ipc::copy_fixed(net.to_group, ipc::kGroupLen, "g2");
  net.bw_mbps = 33;
  monitor_store.put_net(net);
  ipc::SecRecord sec;
  ipc::copy_fixed(sec.host, ipc::kHostNameLen, "h1");
  sec.level = 4;
  monitor_store.put_sec(sec);

  Receiver receiver(ReceiverConfig{}, wizard_store);
  ASSERT_TRUE(receiver.valid());
  ASSERT_TRUE(receiver.start());

  TransmitterConfig tx_config;
  tx_config.mode = TransferMode::kCentralized;
  tx_config.receiver = receiver.endpoint();
  Transmitter transmitter(tx_config, monitor_store);

  EXPECT_TRUE(transmitter.transmit_once());
  EXPECT_TRUE(wait_until([&] { return receiver.snapshots_received() == 1; }));
  receiver.stop();

  ASSERT_EQ(wizard_store.sys_records().size(), 1u);
  EXPECT_EQ(wizard_store.sys_records()[0].host_str(), "h1");
  ASSERT_EQ(wizard_store.net_records().size(), 1u);
  EXPECT_DOUBLE_EQ(wizard_store.net_records()[0].bw_mbps, 33.0);
  ASSERT_EQ(wizard_store.sec_records().size(), 1u);
  EXPECT_EQ(wizard_store.sec_records()[0].level, 4);
}

TEST(Transport, CentralizedReplaceRemovesGoneServers) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  wizard_store.put_sys(make_sys("stale", 0.1));  // pre-existing mirror state

  Receiver receiver(ReceiverConfig{}, wizard_store);
  ASSERT_TRUE(receiver.start());
  TransmitterConfig tx_config;
  tx_config.receiver = receiver.endpoint();
  Transmitter transmitter(tx_config, monitor_store);

  monitor_store.put_sys(make_sys("only", 0.7));
  EXPECT_TRUE(transmitter.transmit_once());
  EXPECT_TRUE(wait_until([&] { return receiver.snapshots_received() == 1; }));
  receiver.stop();

  auto records = wizard_store.sys_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].host_str(), "only");  // mirror, not merge
}

TEST(Transport, ReactorIngestAppliesSnapshotsLargerThanDefaultInputCap) {
  // A frame only parses once it is fully buffered, so the reactor ingest
  // path must raise the connection's input cap to the wire format's payload
  // limit — with the reactor default (1 MiB) a larger snapshot would pause
  // reading forever and idle-timeout as truncated, a silent regression
  // against the blocking read_frame path.
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  const std::size_t kRecords = (2u << 20) / sizeof(ipc::SysRecord) + 1;
  for (std::size_t i = 0; i < kRecords; ++i) {
    monitor_store.put_sys(make_sys("host" + std::to_string(i), 0.5));
  }

  Receiver receiver(ReceiverConfig{}, wizard_store);
  ASSERT_TRUE(receiver.valid());
  ASSERT_TRUE(receiver.start());  // reactor-hosted ingestion

  TransmitterConfig tx_config;
  tx_config.receiver = receiver.endpoint();
  Transmitter transmitter(tx_config, monitor_store);
  EXPECT_TRUE(transmitter.transmit_once());

  for (int i = 0; i < 500 && wizard_store.sys_records().size() < kRecords; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  receiver.stop();
  EXPECT_EQ(wizard_store.sys_records().size(), kRecords);
  EXPECT_EQ(receiver.malformed_frames(), 0u);
}

TEST(Transport, CentralizedBackgroundLoop) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  monitor_store.put_sys(make_sys("bg", 0.2));

  Receiver receiver(ReceiverConfig{}, wizard_store);
  ASSERT_TRUE(receiver.start());

  TransmitterConfig tx_config;
  tx_config.receiver = receiver.endpoint();
  tx_config.interval = 30ms;
  Transmitter transmitter(tx_config, monitor_store);
  ASSERT_TRUE(transmitter.start());

  for (int i = 0; i < 100 && wizard_store.sys_records().empty(); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  transmitter.stop();
  receiver.stop();
  EXPECT_FALSE(wizard_store.sys_records().empty());
  EXPECT_GE(receiver.snapshots_received(), 1u);
}

// --- distributed pull -----------------------------------------------------------

TEST(Transport, DistributedPullOnDemand) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;
  monitor_store.put_sys(make_sys("pull", 0.8));

  TransmitterConfig tx_config;
  tx_config.mode = TransferMode::kDistributed;
  Transmitter transmitter(tx_config, monitor_store);
  ASSERT_TRUE(transmitter.start());  // passive listener

  Receiver receiver(ReceiverConfig{}, wizard_store);
  EXPECT_TRUE(receiver.pull_from(transmitter.endpoint()));
  transmitter.stop();

  ASSERT_EQ(wizard_store.sys_records().size(), 1u);
  EXPECT_EQ(wizard_store.sys_records()[0].host_str(), "pull");
}

TEST(Transport, DistributedPullSeesLatestState) {
  ipc::InMemoryStatusStore monitor_store;
  ipc::InMemoryStatusStore wizard_store;

  TransmitterConfig tx_config;
  tx_config.mode = TransferMode::kDistributed;
  Transmitter transmitter(tx_config, monitor_store);
  ASSERT_TRUE(transmitter.start());
  Receiver receiver(ReceiverConfig{}, wizard_store);

  monitor_store.put_sys(make_sys("v1", 0.1));
  ASSERT_TRUE(receiver.pull_from(transmitter.endpoint()));
  EXPECT_EQ(wizard_store.sys_records()[0].host_str(), "v1");

  monitor_store.clear();
  monitor_store.put_sys(make_sys("v2", 0.2));
  ASSERT_TRUE(receiver.pull_from(transmitter.endpoint()));
  auto records = wizard_store.sys_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].host_str(), "v2");
  transmitter.stop();
}

TEST(Transport, PullFromDeadTransmitterFails) {
  ipc::InMemoryStatusStore wizard_store;
  Receiver receiver(ReceiverConfig{}, wizard_store);
  // Grab a port that is definitely closed.
  auto listener = net::TcpListener::listen(net::Endpoint::loopback(0));
  ASSERT_TRUE(listener);
  net::Endpoint dead = listener->local_endpoint();
  listener->close();
  EXPECT_FALSE(receiver.pull_from(dead));
}

}  // namespace
}  // namespace smartsock::transport
