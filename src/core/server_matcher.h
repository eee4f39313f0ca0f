// Server matcher — the wizard's selection core (§3.6.1 step 3, Fig 1.4).
//
// For every sysdb record the matcher binds the slots the compiled
// requirement reads (system status from the record, security level from
// secdb, network metrics from netdb keyed by the server's group), evaluates
// it, and builds the candidate list:
//   * denied hosts (by name or address) are never selected;
//   * preferred hosts that qualify are taken first (the thesis: "trusted
//     servers will always be selected first when available");
//   * remaining qualified servers follow in report order (the thesis's
//     wizard scans the databases sequentially);
//   * the list is truncated to the requested count, itself capped at the
//     UDP reply limit of 60.
// A record costs a few field reads and one pass over the compiled program:
// no map, no string and no heap allocation. Host and address strings are
// built only for the selected servers.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/wire.h"
#include "ipc/status_record.h"
#include "lang/requirement.h"
#include "util/thread_pool.h"

namespace smartsock::core {

struct MatchInput {
  std::vector<ipc::SysRecord> sys;
  std::vector<ipc::NetRecord> net;
  std::vector<ipc::SecRecord> sec;
  /// Group the requesting client sits in: netdb metrics are looked up for
  /// paths local_group -> server group.
  std::string local_group;
};

/// Non-owning view over the three databases. The wizard's hot path points
/// this at an immutable ipc::Snapshot so a query never copies a record
/// vector; owning MatchInput converts implicitly for callers (tests,
/// benchmarks) that assemble their own inputs. The viewed storage must
/// outlive the match() call.
struct MatchView {
  std::span<const ipc::SysRecord> sys;
  std::span<const ipc::NetRecord> net;
  std::span<const ipc::SecRecord> sec;
  std::string_view local_group;

  MatchView() = default;
  MatchView(const MatchInput& input)  // NOLINT(google-explicit-constructor)
      : sys(input.sys), net(input.net), sec(input.sec), local_group(input.local_group) {}
};

struct MatchResult {
  std::vector<ServerEntry> selected;
  std::size_t evaluated = 0;
  std::size_t qualified = 0;
};

/// Binds the slots a requirement reads for one record: the record's own
/// fields, host_security_level from the first secdb row for the host (0
/// without one), and monitor_* from the first netdb row local_group -> the
/// record's group (unbound without one, so reading them is a statement
/// error). The secdb and netdb indexes are built only when `slots` reads
/// them. The viewed databases must outlive the binder.
class RecordBinder {
 public:
  RecordBinder(const MatchView& input, lang::SlotMask slots);

  /// Fills `binding` for `record` without allocating.
  void bind(const ipc::SysRecord& record, lang::Binding& binding) const;

 private:
  lang::SlotMask record_slots_ = 0;
  bool security_ = false;
  bool network_ = false;
  std::unordered_map<std::string_view, double> security_by_host_;
  std::unordered_map<std::string_view, const ipc::NetRecord*> network_by_group_;
};

class ServerMatcher {
 public:
  /// Serial matcher (the thesis's sequential database scan).
  ServerMatcher() = default;

  /// Matcher with `threads`-way parallel record evaluation. The sys-record
  /// set is partitioned into contiguous index ranges evaluated concurrently;
  /// the merge/rank stage runs serially in record order, so results are
  /// byte-identical to the serial matcher. threads <= 1 means serial.
  explicit ServerMatcher(std::size_t threads);

  std::size_t threads() const { return pool_ ? pool_->size() + 1 : 1; }

  MatchResult match(const lang::Requirement& requirement, const MatchView& input,
                    std::size_t count) const;

 private:
  // Workers beyond the calling thread; null selects the serial path. Shared
  // so ServerMatcher stays copyable (copies share the pool).
  std::shared_ptr<util::ThreadPool> pool_;
};

}  // namespace smartsock::core
