// Compiled evaluator for requirement programs (thesis Fig 4.2 semantics).
//
// Semantics reproduced from the thesis's yacc actions:
//  * Every line is a statement; a statement is *logical* iff the operator at
//    the root of its tree is logical (&&, ||, ==, !=, <, <=, >, >=);
//    parentheses are transparent and an assignment clears the flag.
//  * A server qualifies only if every logical statement evaluates non-zero
//    ("server_ok *= $2").
//  * '&&' / '||' evaluate both operands (yacc has no short-circuit).
//  * Use of an undefined variable makes the containing statement an error;
//    an errored statement disqualifies the server (conservative reading of
//    "the whole statement will be considered as a false statement"). The
//    first error in a statement is the one reported.
//  * Assignments to the user-side host slots (user_preferred_hostN /
//    user_denied_hostN) capture the *name* of the right-hand side when it is
//    a bare host name or NETADDR — "user_denied_host1 = telesto" stores
//    "telesto" (store_uparams in the thesis). The assignment's value is 1 so
//    it can appear inside '&&' chains (Tables 5.5/5.6 do exactly this).
//  * Host addresses compare as strings under == and !=; under any other
//    operator they are the number 1.
//  * Division by zero is a statement error; '^' and the builtins are errors
//    on a domain violation or a non-finite result. '+ - * /' may yield inf
//    or NaN without an error.
//  * Assigning the temp `rank_by` gives the server a rank (highest first).
//
// Compilation resolves every identifier once, to one of: a server slot
// (read from the caller's Binding), a constant, a user host slot, a temp, or
// a statement error known at compile time. The program becomes a flat
// postfix instruction list per statement. Evaluation keeps all mutable state
// in the caller's EvalScratch, so one CompiledProgram is shared read-only by
// any number of threads, and a warm scratch evaluates without allocating.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "lang/symtab.h"

namespace smartsock::lang {

struct Builtin;

/// Host slots captured from user-side assignments during one evaluation.
class UserParams {
 public:
  void set_slot(const std::string& slot, const std::string& host);

  /// Hosts from user_preferred_host1..5, in slot order, empty slots skipped.
  std::vector<std::string> preferred() const;
  /// Hosts from user_denied_host1..5.
  std::vector<std::string> denied() const;

  bool empty() const { return slots_.empty(); }

 private:
  std::map<std::string, std::string> slots_;
};

struct StatementResult {
  int line = 0;
  double value = 0.0;
  bool logical = false;
  bool errored = false;
  std::string error;
};

struct EvalOutcome {
  bool qualified = true;
  std::vector<StatementResult> statements;
  UserParams params;

  /// Set when the requirement assigns the reserved temp variable `rank_by`:
  /// its per-server value lets the wizard order candidates ("3 servers with
  /// largest memory" — the thesis's Ch. 6 future-work item). Higher ranks
  /// first.
  std::optional<double> rank;

  /// Convenience: all error messages with line numbers.
  std::vector<std::string> errors() const;
};

/// The server-side slot values one evaluation reads. A slot whose bit is
/// clear in `bound` has no value: reading it is a statement error.
struct Binding {
  std::array<double, kServerSlotCount> values{};
  SlotMask bound = 0;
  /// Values for names that are not predefined (the thesis's "new
  /// parameters", Ch. 7). A temp assigned earlier in the evaluation shadows
  /// them. Null binds none.
  const AttributeSet* extensions = nullptr;

  void set(ServerSlot slot, double value) {
    values[static_cast<std::size_t>(slot)] = value;
    bound |= slot_bit(slot);
  }
};

/// What one evaluation decides, without building any string.
struct Verdict {
  bool qualified = true;
  bool errored = false;  // at least one statement errored
  std::optional<double> rank;
};

/// Per-evaluation mutable state: the value stack, temps and captured host
/// slots. Owned by the caller and reused across evaluations; it grows to the
/// largest program it has run and then no evaluation allocates.
class EvalScratch {
 public:
  /// One stack entry.
  struct Value {
    double number = 0.0;
    std::int32_t host = -1;  // interned host literal, or -1 for a number
    bool logical = false;    // the thesis's `logic` flag for this subtree
  };

 private:
  friend class CompiledProgram;

  std::vector<Value> stack_;
  std::vector<double> temps_;
  std::vector<std::uint8_t> assigned_;
  std::array<std::int32_t, kUserSlotCount> captured_{};  // per user slot: host literal or -1
};

/// A requirement program with every identifier resolved. Immutable after
/// compilation; owns its AST, which error messages render.
class CompiledProgram {
 public:
  CompiledProgram() = default;
  explicit CompiledProgram(Program program);

  /// Slots the program reads: a binding needs to fill only these.
  SlotMask slots_read() const { return slots_read_; }

  std::size_t statement_count() const { return statements_.size(); }

  /// Evaluates against `binding`. Allocates nothing once `scratch` has run a
  /// program at least this large.
  Verdict evaluate(const Binding& binding, EvalScratch& scratch) const;

  /// Evaluates and reports every statement's value, logic flag and error
  /// text, and the captured host slots.
  EvalOutcome explain(const Binding& binding) const;

 private:
  enum class Op : std::uint8_t {
    kNumber,        // push `number`
    kHost,          // push host literal `host`
    kSlot,          // push server slot `arg`; error when unbound
    kName,          // push temp `arg`, else the extension of that name; error when neither
    kFail,          // a statement error known at compile time (`arg`: which)
    kNegate,
    kCall,          // apply `builtin` (null: unknown function)
    kBinary,        // apply `op`
    kSetTemp,       // assign temp `arg`
    kSetHostSlot,   // assign user slot `arg` from a computed value
    kCaptureHost,   // assign user slot `arg` the bare name `host`, without evaluating it
  };

  struct Instr {
    Op code = Op::kNumber;
    BinaryOp op = BinaryOp::kAdd;
    std::uint32_t arg = 0;
    std::int32_t host = -1;
    double number = 0.0;
    const Builtin* builtin = nullptr;
    const Expr* site = nullptr;  // the node an error message renders
  };

  struct StatementCode {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    int line = 0;
  };

  class Compiler;

  template <bool kDetailed>
  Verdict run(const Binding& binding, EvalScratch& scratch, EvalOutcome* outcome) const;
  std::string describe(const Instr& at, const char* reason) const;

  // The AST's nodes live on the heap, so `Instr::site` stays valid when the
  // program moves.
  Program program_;
  std::vector<Instr> code_;
  std::vector<StatementCode> statements_;
  std::vector<std::string> hosts_;  // interned host literals
  std::vector<std::string> temps_;  // names that are not predefined
  std::int32_t rank_temp_ = -1;     // index of `rank_by` in temps_
  std::size_t max_depth_ = 0;
  SlotMask slots_read_ = 0;
};

}  // namespace smartsock::lang
