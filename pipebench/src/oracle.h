// Correctness oracle for the pipeline benchmark.
//
// During a run every wizard reply is checked on arrival: it must parse,
// echo the sequence it answers, name only hosts of the fleet at their own
// addresses, return no more servers than asked, and be an error exactly
// when its requirement does not compile. At quiesce (writes stopped, one
// final push) the wizard store must hold exactly the monitor store's
// records, and each requirement's wizard reply must equal a serial
// ServerMatcher run over the final snapshot. Any violation fails the run.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "core/wire.h"
#include "ipc/status_store.h"

namespace pipebench {

struct ReplyExpectation {
  std::uint32_t sequence = 0;
  std::size_t requested = 0;
  bool compiles = true;  // false: the only right answer is an ERR reply
};

class ReplyOracle {
 public:
  /// `address_of` maps every fleet host to its service address.
  explicit ReplyOracle(const std::unordered_map<std::string, std::string>& address_of)
      : address_of_(&address_of) {}

  /// The violation `reply` commits against `expect`, or nullopt when it is
  /// acceptable.
  std::optional<std::string> check(const smartsock::core::WizardReply& reply,
                                   const ReplyExpectation& expect) const;

  /// Parses `wire` first; an unparseable reply is a violation.
  std::optional<std::string> check_wire(std::string_view wire,
                                        const ReplyExpectation& expect) const;

 private:
  const std::unordered_map<std::string, std::string>* address_of_;
};

/// Violation when the two stores' sys databases differ as keyed record
/// sets (byte-compared records), or nullopt.
std::optional<std::string> compare_stores(const smartsock::ipc::Snapshot& monitor,
                                          const smartsock::ipc::Snapshot& wizard);

/// Violation when `reply` differs from what a serial ServerMatcher computes
/// for `requirement` over `snapshot`, or nullopt. Non-compiling requirements
/// must come back as ERR replies.
std::optional<std::string> compare_with_matcher(const smartsock::core::WizardReply& reply,
                                                const std::string& requirement,
                                                std::size_t requested,
                                                const smartsock::ipc::Snapshot& snapshot,
                                                const std::string& local_group);

}  // namespace pipebench
