#include "lang/evaluator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "lang/builtins.h"

namespace smartsock::lang {

void UserParams::set_slot(const std::string& slot, const std::string& host) {
  slots_[slot] = host;
}

namespace {
std::vector<std::string> collect_slots(const std::map<std::string, std::string>& slots,
                                       const char* prefix) {
  std::vector<std::string> out;
  for (int i = 1; i <= 5; ++i) {
    auto it = slots.find(prefix + std::to_string(i));
    if (it != slots.end() && !it->second.empty()) out.push_back(it->second);
  }
  return out;
}

// Statement errors known at compile time, in Instr::arg of kFail: a builtin
// read as a variable, and assignments to read-only names, which fail before
// their right-hand side runs.
enum Failure : std::uint32_t {
  kFunctionAsVariable,
  kAssignServerVariable,
  kAssignConstant,
  kAssignBuiltin,
};
}  // namespace

std::vector<std::string> UserParams::preferred() const {
  return collect_slots(slots_, "user_preferred_host");
}

std::vector<std::string> UserParams::denied() const {
  return collect_slots(slots_, "user_denied_host");
}

std::vector<std::string> EvalOutcome::errors() const {
  std::vector<std::string> out;
  for (const StatementResult& s : statements) {
    if (s.errored) out.push_back("line " + std::to_string(s.line) + ": " + s.error);
  }
  return out;
}

// --- compilation --------------------------------------------------------------

class CompiledProgram::Compiler {
 public:
  explicit Compiler(CompiledProgram& out) : out_(out) {}

  void statement(const Statement& statement) {
    StatementCode code;
    code.begin = static_cast<std::uint32_t>(out_.code_.size());
    code.line = statement.line;
    depth_ = 0;
    expr(*statement.expr);
    code.end = static_cast<std::uint32_t>(out_.code_.size());
    out_.statements_.push_back(code);
  }

 private:
  // `pops` values leave the stack and one result is pushed.
  Instr& emit(Op code, const Expr& site, std::size_t pops) {
    depth_ = depth_ - pops + 1;
    out_.max_depth_ = std::max(out_.max_depth_, depth_);
    Instr& instr = out_.code_.emplace_back();
    instr.code = code;
    instr.site = &site;
    return instr;
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        emit(Op::kNumber, e, 0).number = e.number;
        return;
      case ExprKind::kNetAddr:
        emit(Op::kHost, e, 0).host = host(e.name);
        return;
      case ExprKind::kVar:
        variable(e);
        return;
      case ExprKind::kAssign:
        assignment(e);
        return;
      case ExprKind::kBinary:
        expr(*e.children[0]);
        expr(*e.children[1]);
        emit(Op::kBinary, e, 2).op = e.op;
        return;
      case ExprKind::kUnaryMinus:
        expr(*e.children[0]);
        emit(Op::kNegate, e, 1);
        return;
      case ExprKind::kCall:
        expr(*e.children[0]);
        emit(Op::kCall, e, 1).builtin = find_builtin(e.name);
        return;
    }
  }

  void variable(const Expr& e) {
    const std::string& name = e.name;
    if (is_user_variable(name)) {
      // Reading back a host slot yields truthy 1, mirroring hoc's UPARAM ->
      // u.val access.
      emit(Op::kNumber, e, 0).number = 1.0;
    } else if (auto slot = find_server_slot(name)) {
      emit(Op::kSlot, e, 0).arg = static_cast<std::uint32_t>(*slot);
      out_.slots_read_ |= slot_bit(*slot);
    } else if (auto constant = constant_value(name)) {
      emit(Op::kNumber, e, 0).number = *constant;
    } else if (is_builtin(name)) {
      emit(Op::kFail, e, 0).arg = kFunctionAsVariable;
    } else {
      emit(Op::kName, e, 0).arg = temp(name);
    }
  }

  void assignment(const Expr& e) {
    const std::string& target = e.name;
    const Expr& rhs = *e.children[0];

    if (auto slot = user_slot_index(target)) {
      // Host slots capture names syntactically: a bare identifier or NETADDR
      // on the right-hand side is the host, not a value to evaluate.
      if (rhs.kind == ExprKind::kNetAddr || rhs.kind == ExprKind::kVar) {
        Instr& capture = emit(Op::kCaptureHost, e, 0);
        capture.arg = static_cast<std::uint32_t>(*slot);
        capture.host = host(rhs.name);
      } else {
        expr(rhs);
        emit(Op::kSetHostSlot, e, 1).arg = static_cast<std::uint32_t>(*slot);
      }
      return;
    }
    if (find_server_slot(target)) {
      emit(Op::kFail, e, 0).arg = kAssignServerVariable;
    } else if (constant_value(target)) {
      emit(Op::kFail, e, 0).arg = kAssignConstant;
    } else if (is_builtin(target)) {
      emit(Op::kFail, e, 0).arg = kAssignBuiltin;
    } else {
      expr(rhs);
      emit(Op::kSetTemp, e, 1).arg = temp(target);
    }
  }

  std::int32_t host(const std::string& text) {
    auto [it, added] = hosts_.emplace(text, static_cast<std::int32_t>(out_.hosts_.size()));
    if (added) out_.hosts_.push_back(text);
    return it->second;
  }

  std::uint32_t temp(const std::string& name) {
    auto [it, added] = temps_.emplace(name, static_cast<std::uint32_t>(out_.temps_.size()));
    if (added) {
      if (name == "rank_by") out_.rank_temp_ = static_cast<std::int32_t>(it->second);
      out_.temps_.push_back(name);
    }
    return it->second;
  }

  CompiledProgram& out_;
  std::unordered_map<std::string, std::int32_t> hosts_;
  std::unordered_map<std::string, std::uint32_t> temps_;
  std::size_t depth_ = 0;
};

CompiledProgram::CompiledProgram(Program program) : program_(std::move(program)) {
  Compiler compiler(*this);
  for (const Statement& statement : program_.statements) compiler.statement(statement);
}

// --- evaluation -----------------------------------------------------------------

namespace {

using Value = EvalScratch::Value;

const double* find_extension(const Binding& binding, const std::string& name) {
  if (!binding.extensions) return nullptr;
  auto it = binding.extensions->find(name);
  return it == binding.extensions->end() ? nullptr : &it->second;
}

Value truth(bool holds) { return Value{holds ? 1.0 : 0.0, -1, /*logical=*/true}; }

// Applies a binary operator to two evaluated operands; false on an error
// (division by zero, a non-finite power).
bool apply_binary(BinaryOp op, const Value& lhs, const Value& rhs, Value* out) {
  const double a = lhs.number;
  const double b = rhs.number;
  // Host addresses compare as strings under == and !=; interned, so by index.
  const bool hosts = lhs.host >= 0 && rhs.host >= 0;
  switch (op) {
    case BinaryOp::kAdd:
      *out = Value{a + b};
      return true;
    case BinaryOp::kSub:
      *out = Value{a - b};
      return true;
    case BinaryOp::kMul:
      *out = Value{a * b};
      return true;
    case BinaryOp::kDiv:
      if (b == 0.0) return false;
      *out = Value{a / b};
      return true;
    case BinaryOp::kPow:
      *out = Value{std::pow(a, b)};
      return std::isfinite(out->number);
    case BinaryOp::kAnd:
      *out = truth((a != 0.0) & (b != 0.0));
      return true;
    case BinaryOp::kOr:
      *out = truth((a != 0.0) | (b != 0.0));
      return true;
    case BinaryOp::kEq:
      *out = truth(hosts ? lhs.host == rhs.host : a == b);
      return true;
    case BinaryOp::kNe:
      *out = truth(hosts ? lhs.host != rhs.host : a != b);
      return true;
    case BinaryOp::kLt:
      *out = truth(a < b);
      return true;
    case BinaryOp::kLe:
      *out = truth(a <= b);
      return true;
    case BinaryOp::kGt:
      *out = truth(a > b);
      return true;
    case BinaryOp::kGe:
      *out = truth(a >= b);
      return true;
  }
  return false;
}

}  // namespace

Verdict CompiledProgram::evaluate(const Binding& binding, EvalScratch& scratch) const {
  return run<false>(binding, scratch, nullptr);
}

EvalOutcome CompiledProgram::explain(const Binding& binding) const {
  EvalScratch scratch;
  EvalOutcome outcome;
  run<true>(binding, scratch, &outcome);
  return outcome;
}

template <bool kDetailed>
Verdict CompiledProgram::run(const Binding& binding, EvalScratch& scratch,
                             EvalOutcome* outcome) const {
  if (scratch.stack_.size() < max_depth_) scratch.stack_.resize(max_depth_);
  if (scratch.temps_.size() < temps_.size()) {
    scratch.temps_.resize(temps_.size());
    scratch.assigned_.resize(temps_.size());
  }
  std::fill_n(scratch.assigned_.begin(), temps_.size(), std::uint8_t{0});
  if constexpr (kDetailed) scratch.captured_.fill(-1);  // read back only here

  Value* stack = scratch.stack_.data();
  Verdict verdict;
  for (const StatementCode& statement : statements_) {
    // No early exit on error: the yacc grammar evaluates both operands of
    // every operator, so side effects (user-side host assignments) run even
    // after a sibling subtree failed. Only the first error is kept, and an
    // operator evaluated after it yields 0.
    std::size_t top = 0;
    const Instr* error_at = nullptr;
    const char* reason = nullptr;
    auto raise = [&](const Instr& at, const char* why = nullptr) {
      if (error_at) return;
      error_at = &at;
      reason = why;
    };

    for (std::uint32_t pc = statement.begin; pc < statement.end; ++pc) {
      const Instr& in = code_[pc];
      switch (in.code) {
        case Op::kNumber:
          stack[top++] = Value{in.number};
          break;
        case Op::kHost:
          stack[top++] = Value{1.0, in.host};
          break;
        case Op::kSlot:
          if (binding.bound & (SlotMask{1} << in.arg)) {
            stack[top++] = Value{binding.values[in.arg]};
          } else {
            raise(in);
            stack[top++] = Value{};
          }
          break;
        case Op::kName: {
          Value value;
          if (scratch.assigned_[in.arg]) {
            value.number = scratch.temps_[in.arg];
          } else if (const double* extension = find_extension(binding, temps_[in.arg])) {
            value.number = *extension;
          } else {
            raise(in);
          }
          stack[top++] = value;
          break;
        }
        case Op::kFail:
          raise(in);
          stack[top++] = Value{};
          break;
        case Op::kCaptureHost:
          scratch.captured_[in.arg] = in.host;
          stack[top++] = Value{1.0};
          break;
        case Op::kNegate:
          stack[top - 1] = Value{-stack[top - 1].number};
          break;
        case Op::kCall: {
          Value& value = stack[top - 1];
          double result = 0.0;
          if (!error_at) {
            if (!in.builtin) {
              raise(in);
            } else if (const char* why = in.builtin->apply(value.number, &result)) {
              raise(in, why);
              result = 0.0;
            }
          }
          value = Value{result};
          break;
        }
        case Op::kSetTemp: {
          Value& value = stack[top - 1];
          if (error_at) {
            value = Value{};
          } else if (value.host >= 0) {
            raise(in);
            value = Value{};
          } else {
            scratch.temps_[in.arg] = value.number;
            scratch.assigned_[in.arg] = 1;
            value = Value{value.number};  // assignment clears the logic flag
          }
          break;
        }
        case Op::kSetHostSlot: {
          Value& value = stack[top - 1];
          if (error_at) {
            value = Value{};
          } else if (value.host < 0) {
            raise(in);
            value = Value{};
          } else {
            scratch.captured_[in.arg] = value.host;
            value = Value{1.0};
          }
          break;
        }
        case Op::kBinary: {
          const Value rhs = stack[--top];
          Value& lhs = stack[top - 1];
          if (error_at) {
            lhs = Value{};
          } else if (!apply_binary(in.op, lhs, rhs, &lhs)) {
            raise(in);
            lhs = Value{};
          }
          break;
        }
      }
    }

    const Value& result = stack[0];
    const bool errored = error_at != nullptr;
    if (errored || (result.logical && result.number == 0.0)) verdict.qualified = false;
    verdict.errored = verdict.errored || errored;
    if constexpr (kDetailed) {
      StatementResult& out = outcome->statements.emplace_back();
      out.line = statement.line;
      out.value = result.number;
      out.logical = result.logical;
      out.errored = errored;
      if (errored) out.error = describe(*error_at, reason);
    }
  }

  if (rank_temp_ >= 0 && scratch.assigned_[static_cast<std::size_t>(rank_temp_)]) {
    verdict.rank = scratch.temps_[static_cast<std::size_t>(rank_temp_)];
  }
  if constexpr (kDetailed) {
    outcome->qualified = verdict.qualified;
    outcome->rank = verdict.rank;
    const auto& slot_names = user_variable_names();
    for (std::size_t slot = 0; slot < scratch.captured_.size(); ++slot) {
      if (scratch.captured_[slot] >= 0) {
        outcome->params.set_slot(slot_names[slot],
                                 hosts_[static_cast<std::size_t>(scratch.captured_[slot])]);
      }
    }
  }
  return verdict;
}

std::string CompiledProgram::describe(const Instr& at, const char* reason) const {
  const std::string& name = at.site->name;
  std::string message;
  switch (at.code) {
    case Op::kSlot:
      message = "server variable '" + name + "' has no value in this report";
      break;
    case Op::kName:
      message = "undefined variable '" + name + "'";
      break;
    case Op::kCall:
      message = reason ? name + ": " + reason : "unknown function '" + name + "'";
      break;
    case Op::kBinary:
      message = at.op == BinaryOp::kDiv ? std::string("division by 0") : std::string(kPowNotFinite);
      break;
    case Op::kSetTemp:
      message = "cannot store a host address in temp variable '" + name + "'";
      break;
    case Op::kSetHostSlot:
      message = "'" + name + "' must be assigned a host name or address";
      break;
    case Op::kFail:
      if (at.arg == kFunctionAsVariable) {
        message = "'" + name + "' is a function; call it with parentheses";
      } else {
        static const char* const kTargets[] = {"server-side variable", "constant",
                                               "built-in function"};
        message = std::string("cannot assign to ") + kTargets[at.arg - kAssignServerVariable] +
                  " '" + name + "'";
      }
      break;
    default:
      message = "internal: unexpected error site";
      break;
  }
  return message + " in '" + at.site->to_string() + "'";
}

}  // namespace smartsock::lang
