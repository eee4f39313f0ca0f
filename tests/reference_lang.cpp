#include "reference_lang.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lang/builtins.h"
#include "lang/parser.h"

namespace smartsock::reference {

SymbolClass classify_symbol(std::string_view name, const lang::AttributeSet& attrs,
                            const TempScope& temps) {
  if (lang::is_user_variable(name)) return SymbolClass::kUserParam;
  if (lang::is_server_variable(name) || lang::is_monitor_variable(name)) {
    return SymbolClass::kServerVar;
  }
  if (lang::constant_value(name)) return SymbolClass::kConstant;
  if (lang::is_builtin(name)) return SymbolClass::kBuiltin;
  if (temps.lookup(std::string(name))) return SymbolClass::kTemp;
  // A name present in the attribute set but not predefined still resolves —
  // the thesis calls adding new parameters "a standard procedure" (Ch. 7).
  if (attrs.count(std::string(name))) return SymbolClass::kServerVar;
  return SymbolClass::kUndefined;
}

lang::EvalOutcome Evaluator::evaluate(const lang::Program& program,
                                         const lang::AttributeSet& attrs) {
  attrs_ = &attrs;
  temps_.clear();
  params_ = lang::UserParams();

  lang::EvalOutcome outcome;
  for (const lang::Statement& statement : program.statements) {
    errored_ = false;
    error_.clear();

    Value value = eval_expr(*statement.expr);

    lang::StatementResult result;
    result.line = statement.line;
    result.value = value.number;
    result.logical = value.logical;
    result.errored = errored_;
    result.error = error_;
    outcome.statements.push_back(result);

    if (errored_) {
      // Conservative: a statement the wizard cannot evaluate must not let a
      // server through.
      outcome.qualified = false;
    } else if (value.logical && value.number == 0.0) {
      outcome.qualified = false;  // server_ok *= $2
    }
  }
  outcome.params = params_;
  outcome.rank = temps_.lookup("rank_by");
  return outcome;
}

void Evaluator::raise(const lang::Expr& at, const std::string& message) {
  if (errored_) return;  // keep the first error
  errored_ = true;
  error_ = message + " in '" + at.to_string() + "'";
}

Evaluator::Value Evaluator::eval_expr(const lang::Expr& expr) {
  // No early-exit on error: the yacc grammar evaluates both operands of
  // every operator, so side effects (user-side host assignments) must run
  // even when a sibling subtree already failed. raise() keeps the first
  // error; an errored statement disqualifies the server regardless of the
  // values computed after the error.
  switch (expr.kind) {
    case lang::ExprKind::kNumber:
      return Value::numeric(expr.number);
    case lang::ExprKind::kNetAddr:
      return Value::address(expr.name);
    case lang::ExprKind::kVar:
      return eval_var(expr);
    case lang::ExprKind::kAssign:
      return eval_assign(expr);
    case lang::ExprKind::kBinary:
      return eval_binary(expr);
    case lang::ExprKind::kUnaryMinus: {
      Value operand = eval_expr(*expr.children[0]);
      return Value::numeric(-operand.number);
    }
    case lang::ExprKind::kCall: {
      Value argument = eval_expr(*expr.children[0]);
      if (errored_) return Value::numeric(0.0);
      lang::BuiltinResult result = lang::call_builtin(expr.name, argument.number);
      if (!result.ok) {
        raise(expr, result.error);
        return Value::numeric(0.0);
      }
      return Value::numeric(result.value);
    }
  }
  raise(expr, "internal: unknown expression kind");
  return Value::numeric(0.0);
}

Evaluator::Value Evaluator::eval_var(const lang::Expr& expr) {
  const std::string& name = expr.name;
  switch (classify_symbol(name, *attrs_, temps_)) {
    case SymbolClass::kServerVar: {
      auto it = attrs_->find(name);
      if (it == attrs_->end()) {
        raise(expr, "server variable '" + name + "' has no value in this report");
        return Value::numeric(0.0);
      }
      return Value::numeric(it->second);
    }
    case SymbolClass::kUserParam:
      // Reading back a host slot yields truthy 1 if it was set this
      // evaluation, mirroring hoc's UPARAM -> u.val access.
      return Value::numeric(1.0);
    case SymbolClass::kConstant:
      return Value::numeric(*lang::constant_value(name));
    case SymbolClass::kTemp:
      return Value::numeric(*temps_.lookup(name));
    case SymbolClass::kBuiltin:
      raise(expr, "'" + name + "' is a function; call it with parentheses");
      return Value::numeric(0.0);
    case SymbolClass::kUndefined:
      raise(expr, "undefined variable '" + name + "'");
      return Value::numeric(0.0);
  }
  raise(expr, "internal: unknown symbol class");
  return Value::numeric(0.0);
}

Evaluator::Value Evaluator::eval_assign(const lang::Expr& expr) {
  const std::string& target = expr.name;
  const lang::Expr& rhs = *expr.children[0];

  if (lang::is_user_variable(target)) {
    // Host slots capture names syntactically: a bare identifier or NETADDR on
    // the right-hand side is the host, not a value to evaluate.
    std::string host;
    if (rhs.kind == lang::ExprKind::kNetAddr || rhs.kind == lang::ExprKind::kVar) {
      host = rhs.name;
    } else {
      Value value = eval_expr(rhs);
      if (errored_) return Value::numeric(0.0);
      host = value.is_host ? value.host : std::string();
      if (host.empty()) {
        raise(expr, "'" + target + "' must be assigned a host name or address");
        return Value::numeric(0.0);
      }
    }
    params_.set_slot(target, host);
    return Value::numeric(1.0);  // truthy so it composes with '&&'
  }

  if (lang::is_server_variable(target) || lang::is_monitor_variable(target)) {
    raise(expr, "cannot assign to server-side variable '" + target + "'");
    return Value::numeric(0.0);
  }
  if (lang::constant_value(target)) {
    raise(expr, "cannot assign to constant '" + target + "'");
    return Value::numeric(0.0);
  }
  if (lang::is_builtin(target)) {
    raise(expr, "cannot assign to built-in function '" + target + "'");
    return Value::numeric(0.0);
  }

  Value value = eval_expr(rhs);
  if (errored_) return Value::numeric(0.0);
  if (value.is_host) {
    raise(expr, "cannot store a host address in temp variable '" + target + "'");
    return Value::numeric(0.0);
  }
  temps_.assign(target, value.number);
  // Assignment propagates the value but clears the logic flag (yacc: asgn
  // sets logic = 0).
  return Value::numeric(value.number);
}

Evaluator::Value Evaluator::eval_binary(const lang::Expr& expr) {
  Value lhs = eval_expr(*expr.children[0]);
  Value rhs = eval_expr(*expr.children[1]);
  if (errored_) return Value::numeric(0.0);

  // Host addresses compare as strings under == and !=; under any other
  // operator they coerce to their numeric value (1).
  if ((expr.op == lang::BinaryOp::kEq || expr.op == lang::BinaryOp::kNe) && lhs.is_host && rhs.is_host) {
    bool equal = lhs.host == rhs.host;
    bool result = expr.op == lang::BinaryOp::kEq ? equal : !equal;
    return Value::numeric(result ? 1.0 : 0.0, /*logic=*/true);
  }

  double a = lhs.number;
  double b = rhs.number;
  switch (expr.op) {
    case lang::BinaryOp::kAdd:
      return Value::numeric(a + b);
    case lang::BinaryOp::kSub:
      return Value::numeric(a - b);
    case lang::BinaryOp::kMul:
      return Value::numeric(a * b);
    case lang::BinaryOp::kDiv:
      if (b == 0.0) {
        raise(expr, "division by 0");
        return Value::numeric(0.0);
      }
      return Value::numeric(a / b);
    case lang::BinaryOp::kPow: {
      lang::BuiltinResult result = lang::checked_pow(a, b);
      if (!result.ok) {
        raise(expr, result.error);
        return Value::numeric(0.0);
      }
      return Value::numeric(result.value);
    }
    case lang::BinaryOp::kAnd:
      return Value::numeric((a != 0.0 && b != 0.0) ? 1.0 : 0.0, true);
    case lang::BinaryOp::kOr:
      return Value::numeric((a != 0.0 || b != 0.0) ? 1.0 : 0.0, true);
    case lang::BinaryOp::kEq:
      return Value::numeric(a == b ? 1.0 : 0.0, true);
    case lang::BinaryOp::kNe:
      return Value::numeric(a != b ? 1.0 : 0.0, true);
    case lang::BinaryOp::kLt:
      return Value::numeric(a < b ? 1.0 : 0.0, true);
    case lang::BinaryOp::kLe:
      return Value::numeric(a <= b ? 1.0 : 0.0, true);
    case lang::BinaryOp::kGt:
      return Value::numeric(a > b ? 1.0 : 0.0, true);
    case lang::BinaryOp::kGe:
      return Value::numeric(a >= b ? 1.0 : 0.0, true);
  }
  raise(expr, "internal: unknown operator");
  return Value::numeric(0.0);
}

lang::EvalOutcome evaluate(std::string_view source, const lang::AttributeSet& attrs) {
  lang::Program program;
  lang::ParseError error;
  if (!lang::Parser::parse_source(source, program, error)) return {};
  Evaluator evaluator;
  return evaluator.evaluate(program, attrs);
}

lang::EvalOutcome explain_by_name(const lang::Requirement& requirement,
                                  const lang::AttributeSet& attrs) {
  lang::Binding binding;
  binding.extensions = &attrs;
  for (std::size_t i = 0; i < lang::kServerSlotCount; ++i) {
    auto slot = static_cast<lang::ServerSlot>(i);
    if (!(requirement.slots_read() & lang::slot_bit(slot))) continue;
    auto it = attrs.find(lang::server_slot_name(slot));
    if (it != attrs.end()) binding.set(slot, it->second);
  }
  return requirement.explain(binding);
}

lang::AttributeSet sys_record_attributes(const ipc::SysRecord& r) {
  lang::AttributeSet attrs;
  attrs["host_system_load1"] = r.load1;
  attrs["host_system_load5"] = r.load5;
  attrs["host_system_load15"] = r.load15;
  attrs["host_cpu_user"] = r.cpu_user;
  attrs["host_cpu_nice"] = r.cpu_nice;
  attrs["host_cpu_system"] = r.cpu_system;
  attrs["host_cpu_idle"] = r.cpu_idle;
  attrs["host_cpu_free"] = r.cpu_idle;
  attrs["host_cpu_bogomips"] = r.bogomips;
  attrs["host_memory_total"] = r.mem_total_mb;
  attrs["host_memory_used"] = r.mem_used_mb;
  attrs["host_memory_free"] = r.mem_free_mb;
  attrs["host_disk_allreq"] = r.disk_rreq_ps + r.disk_wreq_ps;
  attrs["host_disk_rreq"] = r.disk_rreq_ps;
  attrs["host_disk_rblocks"] = r.disk_rblocks_ps;
  attrs["host_disk_wreq"] = r.disk_wreq_ps;
  attrs["host_disk_wblocks"] = r.disk_wblocks_ps;
  attrs["host_network_rbytesps"] = r.net_rbytes_ps;
  attrs["host_network_rpacketsps"] = r.net_rpackets_ps;
  attrs["host_network_tbytesps"] = r.net_tbytes_ps;
  attrs["host_network_tpacketsps"] = r.net_tpackets_ps;
  return attrs;
}

lang::AttributeSet record_attributes(const core::MatchView& input, const ipc::SysRecord& record) {
  lang::AttributeSet attrs = sys_record_attributes(record);
  // Sequential scans: the first matching row wins.
  attrs["host_security_level"] = 0.0;
  for (const ipc::SecRecord& sec : input.sec) {
    if (sec.host_str() == record.host_str()) {
      attrs["host_security_level"] = static_cast<double>(sec.level);
      break;
    }
  }
  for (const ipc::NetRecord& net : input.net) {
    if (net.from_str() == input.local_group && net.to_str() == record.group_str()) {
      attrs["monitor_network_bw"] = net.bw_mbps;
      attrs["monitor_network_delay"] = net.delay_ms;
      break;
    }
  }
  return attrs;
}

namespace {

bool name_matches(const std::string& pattern, const std::string& host,
                  const std::string& address) {
  if (pattern == host || pattern == address) return true;
  // Address without port ("1.2.3.4" vs "1.2.3.4:5000").
  std::size_t colon = address.rfind(':');
  if (colon != std::string::npos && pattern == address.substr(0, colon)) return true;
  // Fully qualified vs short host name ("sagit.ddns.comp.nus.edu.sg" vs
  // "sagit").
  std::size_t dot = pattern.find('.');
  if (dot != std::string::npos && pattern.substr(0, dot) == host) return true;
  return false;
}

bool in_list(const std::vector<std::string>& patterns, const std::string& host,
             const std::string& address) {
  return std::any_of(patterns.begin(), patterns.end(), [&](const std::string& p) {
    return name_matches(p, host, address);
  });
}

}  // namespace

core::MatchResult match(std::string_view source, const core::MatchView& input,
                        std::size_t count) {
  core::MatchResult result;
  count = std::min(count, core::kMaxServersPerReply);

  lang::Program program;
  lang::ParseError error;
  if (!lang::Parser::parse_source(source, program, error)) return result;
  Evaluator evaluator;
  lang::EvalOutcome harvest = evaluator.evaluate(program, lang::AttributeSet{});
  const std::vector<std::string> preferred = harvest.params.preferred();
  const std::vector<std::string> denied = harvest.params.denied();

  struct Hit {
    core::ServerEntry entry;
    double rank;
  };
  std::vector<Hit> preferred_hits;
  std::vector<Hit> other_hits;
  bool ranked = false;

  for (const ipc::SysRecord& record : input.sys) {
    ++result.evaluated;
    std::string host = record.host_str();
    std::string address = record.address_str();
    if (in_list(denied, host, address)) continue;  // blacklist is absolute

    lang::EvalOutcome outcome = evaluator.evaluate(program, record_attributes(input, record));
    if (!outcome.qualified) continue;

    ++result.qualified;
    if (outcome.rank) ranked = true;
    Hit hit{core::ServerEntry{host, address}, outcome.rank.value_or(0.0)};
    if (in_list(preferred, host, address)) {
      preferred_hits.push_back(std::move(hit));
    } else {
      other_hits.push_back(std::move(hit));
    }
  }

  if (ranked) {
    auto by_rank = [](const Hit& a, const Hit& b) { return a.rank > b.rank; };
    std::stable_sort(preferred_hits.begin(), preferred_hits.end(), by_rank);
    std::stable_sort(other_hits.begin(), other_hits.end(), by_rank);
  }
  for (Hit& hit : preferred_hits) result.selected.push_back(std::move(hit.entry));
  for (Hit& hit : other_hits) {
    if (result.selected.size() >= count) break;
    result.selected.push_back(std::move(hit.entry));
  }
  if (result.selected.size() > count) result.selected.resize(count);
  return result;
}

}  // namespace smartsock::reference
