// Compiled server requirement — the user-facing entry into the language.
//
// A Requirement is compiled once from the user's requirement file (§3.6.2)
// and then evaluated by the wizard against every candidate server. The
// preferred/denied host lists are harvested with a server-independent
// pre-pass: the thesis's grammar evaluates both operands of '&&'
// unconditionally, so user-side assignments always execute no matter which
// server is under test.
//
// A Requirement is immutable once compiled: the wizard's loops, the
// matcher's workers and the requirement cache share one instance, each
// evaluating with its own EvalScratch.
#pragma once

#include <optional>
#include <string>

#include "lang/evaluator.h"
#include "lang/parser.h"

namespace smartsock::lang {

class Requirement {
 public:
  /// Compiles requirement text. On syntax errors returns nullopt and fills
  /// `error` with a line/column diagnostic.
  static std::optional<Requirement> compile(std::string_view source, std::string* error = nullptr);

  /// Loads the requirement from a file (the client library's input format).
  static std::optional<Requirement> load_file(const std::string& path,
                                              std::string* error = nullptr);

  /// The hot path: evaluates against `binding` without building strings.
  Verdict evaluate(const Binding& binding, EvalScratch& scratch) const {
    return program_.evaluate(binding, scratch);
  }

  /// Evaluates against `binding`, reporting every statement's value and
  /// error text: the diagnostics path.
  EvalOutcome explain(const Binding& binding) const { return program_.explain(binding); }

  /// Server slots the requirement reads.
  SlotMask slots_read() const { return program_.slots_read(); }

  /// Hosts the user marked preferred/denied (server-independent).
  const std::vector<std::string>& preferred_hosts() const { return preferred_; }
  const std::vector<std::string>& denied_hosts() const { return denied_; }

  /// Number of statements in the compiled program.
  std::size_t statement_count() const { return program_.statement_count(); }

  const std::string& source() const { return source_; }

 private:
  Requirement() = default;

  std::string source_;
  CompiledProgram program_;
  std::vector<std::string> preferred_;
  std::vector<std::string> denied_;
};

}  // namespace smartsock::lang
