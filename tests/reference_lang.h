// Reference oracle for the compiled requirement evaluator and matcher.
//
// This is the original tree-walking evaluator, its runtime name
// classification and the map-per-record matcher, kept verbatim in semantics
// so the differential tests can hold the compiled path in src/ to them.
// Nothing in src/ uses it: pipebench's oracle runs the same ServerMatcher the
// wizard runs, so only an independent implementation can catch a matcher bug.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/server_matcher.h"
#include "lang/ast.h"
#include "lang/evaluator.h"
#include "lang/requirement.h"
#include "lang/symtab.h"

namespace smartsock::reference {

enum class SymbolClass : std::uint8_t {
  kServerVar,   // bound from status reports per candidate server
  kUserParam,   // preferred/denied host slots
  kConstant,    // PI, E, ...
  kBuiltin,     // math function
  kTemp,        // user-defined in the requirement text
  kUndefined,   // never assigned, not predefined
};

/// Per-evaluation mutable scope: temp variables created by assignments.
class TempScope {
 public:
  void assign(const std::string& name, double value) { values_[name] = value; }
  std::optional<double> lookup(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  void clear() { values_.clear(); }
  std::size_t size() const { return values_.size(); }

 private:
  std::map<std::string, double> values_;
};

/// Classifies a name given the current evaluation state.
SymbolClass classify_symbol(std::string_view name, const lang::AttributeSet& attrs,
                            const TempScope& temps);

/// The tree-walking evaluator.
class Evaluator {
 public:
  /// Evaluates `program` against one server's attributes. Temp variables are
  /// fresh per call; user params are harvested into the outcome.
  lang::EvalOutcome evaluate(const lang::Program& program, const lang::AttributeSet& attrs);

 private:
  struct Value {
    double number = 0.0;
    std::string host;  // non-empty when the value is a host/net address
    bool is_host = false;
    bool logical = false;  // the thesis's `logic` flag for this subtree

    static Value numeric(double v, bool logic = false) { return {v, {}, false, logic}; }
    static Value address(std::string h) { return {1.0, std::move(h), true, false}; }
  };

  Value eval_expr(const lang::Expr& expr);
  Value eval_binary(const lang::Expr& expr);
  Value eval_assign(const lang::Expr& expr);
  Value eval_var(const lang::Expr& expr);

  void raise(const lang::Expr& at, const std::string& message);

  const lang::AttributeSet* attrs_ = nullptr;
  TempScope temps_;
  lang::UserParams params_;
  bool errored_ = false;
  std::string error_;
};

/// Parses `source` (which must parse) and evaluates it with the tree-walker.
lang::EvalOutcome evaluate(std::string_view source, const lang::AttributeSet& attrs);

/// Evaluates the compiled `requirement` against one server's attributes,
/// bound by name: each server slot it reads from its entry in `attrs`, and
/// every other name as an extension (the thesis's new parameters, Ch. 7).
lang::EvalOutcome explain_by_name(const lang::Requirement& requirement,
                                  const lang::AttributeSet& attrs);

/// Attribute set for one sysdb record (server-side variables only).
lang::AttributeSet sys_record_attributes(const ipc::SysRecord& record);

/// Everything the original matcher bound for `record`: its own attributes,
/// host_security_level from the first secdb row for its host (0 without
/// one), and monitor_* from the first netdb row local_group -> its group
/// (absent without one).
lang::AttributeSet record_attributes(const core::MatchView& input, const ipc::SysRecord& record);

/// The serial map-per-record matcher over `source`'s tree: the
/// preferred/denied harvest, secdb/netdb binding, ranking and caps exactly
/// as the original ServerMatcher did them.
core::MatchResult match(std::string_view source, const core::MatchView& input, std::size_t count);

}  // namespace smartsock::reference
