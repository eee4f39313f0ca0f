#include "lang/builtins.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace smartsock::lang {

namespace {

const char* no_guard(double) { return nullptr; }
const char* log_guard(double x) { return x <= 0.0 ? "argument must be positive" : nullptr; }
const char* sqrt_guard(double x) { return x < 0.0 ? "argument must be non-negative" : nullptr; }
const char* asin_guard(double x) {
  return (x < -1.0 || x > 1.0) ? "argument must be in [-1, 1]" : nullptr;
}

double integer_part(double x) { return std::trunc(x); }

// Sorted by name: builtin_names() lists them in this order.
const std::array<Builtin, 14>& table() {
  static const std::array<Builtin, 14> builtins = {{
      {"abs", std::fabs, no_guard},
      {"acos", std::acos, asin_guard},
      {"asin", std::asin, asin_guard},
      {"atan", std::atan, no_guard},
      {"ceil", std::ceil, no_guard},
      {"cos", std::cos, no_guard},
      {"exp", std::exp, no_guard},
      {"floor", std::floor, no_guard},
      {"int", integer_part, no_guard},
      {"log", std::log, log_guard},
      {"log10", std::log10, log_guard},
      {"sin", std::sin, no_guard},
      {"sqrt", std::sqrt, sqrt_guard},
      {"tan", std::tan, no_guard},
  }};
  return builtins;
}

}  // namespace

const char* Builtin::apply(double argument, double* value) const {
  if (const char* domain_error = guard(argument)) return domain_error;
  *value = fn(argument);
  return std::isfinite(*value) ? nullptr : "result overflow";
}

const Builtin* find_builtin(std::string_view name) {
  const auto& builtins = table();
  auto it = std::find_if(builtins.begin(), builtins.end(),
                         [&](const Builtin& b) { return b.name == name; });
  return it == builtins.end() ? nullptr : &*it;
}

bool is_builtin(std::string_view name) { return find_builtin(name) != nullptr; }

const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Builtin& builtin : table()) out.emplace_back(builtin.name);
    return out;
  }();
  return names;
}

BuiltinResult call_builtin(std::string_view name, double argument) {
  const Builtin* builtin = find_builtin(name);
  if (!builtin) return BuiltinResult::failure("unknown function '" + std::string(name) + "'");
  double value = 0.0;
  if (const char* reason = builtin->apply(argument, &value)) {
    return BuiltinResult::failure(std::string(name) + ": " + reason);
  }
  return BuiltinResult::success(value);
}

BuiltinResult checked_pow(double base, double exponent) {
  double value = std::pow(base, exponent);
  if (!std::isfinite(value)) return BuiltinResult::failure(std::string(kPowNotFinite));
  return BuiltinResult::success(value);
}

}  // namespace smartsock::lang
