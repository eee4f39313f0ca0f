// Per-server evaluation errors of one requirement over a set of records,
// for tests that check why a server did not qualify. The matcher keeps no
// error text; this runs Requirement::explain over each record's binding.
#pragma once

#include <string>
#include <vector>

#include "core/server_matcher.h"
#include "lang/requirement.h"

namespace smartsock {

/// "host: line N: message" for every statement error, in record order.
inline std::vector<std::string> match_diagnostics(const lang::Requirement& requirement,
                                                  const core::MatchView& input) {
  const core::RecordBinder binder(input, requirement.slots_read());
  std::vector<std::string> diagnostics;
  for (const ipc::SysRecord& record : input.sys) {
    lang::Binding binding;
    binder.bind(record, binding);
    for (const std::string& error : requirement.explain(binding).errors()) {
      diagnostics.push_back(record.host_str() + ": " + error);
    }
  }
  return diagnostics;
}

}  // namespace smartsock
