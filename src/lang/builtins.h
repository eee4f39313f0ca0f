// Built-in math functions (thesis Appendix B.4: "exp, sin, cos, log10, ...").
//
// The set mirrors hoc's builtins, which the thesis's yacc grammar is built
// from ("BLTIN '(' expr ')'"). Domain errors (log of a negative, sqrt of a
// negative) are reported as evaluation errors rather than silently returning
// NaN — hoc's execerror behaves the same way.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace smartsock::lang {

/// One built-in function. The compiler resolves a call to its Builtin once;
/// evaluation then applies it without allocating.
struct Builtin {
  std::string_view name;
  double (*fn)(double);
  /// Domain guard: the failure reason for `argument`, or nullptr when fine.
  const char* (*guard)(double argument);

  /// Applies the function: nullptr on success with `*value` set, otherwise
  /// the failure reason ("argument must be positive", "result overflow").
  const char* apply(double argument, double* value) const;
};

/// The text of the '^' operator's error (a non-finite result).
inline constexpr std::string_view kPowNotFinite = "'^': result not finite";

struct BuiltinResult {
  bool ok = false;
  double value = 0.0;
  std::string error;  // set when !ok

  static BuiltinResult success(double v) { return {true, v, {}}; }
  static BuiltinResult failure(std::string message) { return {false, 0.0, std::move(message)}; }
};

/// The builtin called `name`, or nullptr.
const Builtin* find_builtin(std::string_view name);

/// True if `name` names a built-in function.
bool is_builtin(std::string_view name);

/// All builtin names, for documentation and fuzzing.
const std::vector<std::string>& builtin_names();

/// Applies builtin `name` to `argument`. Fails on unknown name or domain
/// error (the message names the function).
BuiltinResult call_builtin(std::string_view name, double argument);

/// Checked power operator (the '^' token). Fails on domain errors such as
/// negative base with fractional exponent.
BuiltinResult checked_pow(double base, double exponent);

}  // namespace smartsock::lang
