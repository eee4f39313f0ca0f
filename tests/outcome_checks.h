// gtest checks that a compiled evaluation agrees with the reference
// evaluator's, statement by statement.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "lang/evaluator.h"

namespace smartsock::reference {

/// Equal as the evaluators compute them: both NaN, or equal with the same
/// sign (so -0 and +0 differ).
inline bool same_value(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || (a == b && std::signbit(a) == std::signbit(b));
}

inline bool same_rank(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || same_value(*a, *b));
}

/// Verdict, rank, captured hosts, and every statement's line, value, logic
/// flag and exact error text.
inline void expect_same_outcome(const lang::EvalOutcome& got, const lang::EvalOutcome& want) {
  EXPECT_EQ(got.qualified, want.qualified);
  EXPECT_TRUE(same_rank(got.rank, want.rank));
  EXPECT_EQ(got.params.preferred(), want.params.preferred());
  EXPECT_EQ(got.params.denied(), want.params.denied());
  ASSERT_EQ(got.statements.size(), want.statements.size());
  for (std::size_t i = 0; i < got.statements.size(); ++i) {
    SCOPED_TRACE("statement " + std::to_string(i));
    const lang::StatementResult& g = got.statements[i];
    const lang::StatementResult& w = want.statements[i];
    EXPECT_EQ(g.line, w.line);
    EXPECT_TRUE(same_value(g.value, w.value)) << g.value << " vs " << w.value;
    EXPECT_EQ(g.logical, w.logical);
    EXPECT_EQ(g.errored, w.errored);
    EXPECT_EQ(g.error, w.error);
  }
}

}  // namespace smartsock::reference
