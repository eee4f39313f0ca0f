// Evaluator tests against the semantics of thesis Fig 4.2 / §3.6.1.
//
// Every case runs twice: through the compiled evaluator (by name binding)
// and through the reference tree-walker. The two must agree on every
// statement; the compiled outcome is the one the assertions check.
#include <gtest/gtest.h>

#include "lang/requirement.h"
#include "outcome_checks.h"
#include "reference_lang.h"

namespace smartsock::lang {
namespace {

EvalOutcome eval(std::string_view source, const AttributeSet& attrs = {}) {
  std::string error;
  auto requirement = Requirement::compile(source, &error);
  EXPECT_TRUE(requirement) << error;
  if (!requirement) return {};
  EvalOutcome compiled = reference::explain_by_name(*requirement, attrs);
  SCOPED_TRACE(std::string(source));
  reference::expect_same_outcome(compiled, reference::evaluate(source, attrs));
  return compiled;
}

// --- logic-flag semantics ---------------------------------------------------

TEST(Eval, LogicalStatementQualifies) {
  EXPECT_TRUE(eval("1 < 2").qualified);
  EXPECT_FALSE(eval("2 < 1").qualified);
}

TEST(Eval, NonLogicalStatementNeverDisqualifies) {
  // "a+(b<c)" is NOT a logical statement (thesis example) — its value is
  // irrelevant to qualification.
  EvalOutcome outcome = eval("t = 0\n1 + (2 < 1)\n");
  EXPECT_TRUE(outcome.qualified);
  EXPECT_FALSE(outcome.statements[1].logical);
  EXPECT_DOUBLE_EQ(outcome.statements[1].value, 1.0);  // 1 + 0
}

TEST(Eval, LogicalIfRootOperatorLogical) {
  // "(a+b)<=b" IS logical (thesis example).
  AttributeSet attrs{{"host_cpu_free", 0.5}};
  EvalOutcome outcome = eval("(host_cpu_free + 1) <= 1", attrs);
  EXPECT_TRUE(outcome.statements[0].logical);
  EXPECT_FALSE(outcome.qualified);
}

TEST(Eval, ParensTransparentToLogicFlag) {
  EvalOutcome outcome = eval("((1 < 2))");
  EXPECT_TRUE(outcome.statements[0].logical);
}

TEST(Eval, AllLogicalStatementsMustHold) {
  EXPECT_TRUE(eval("1 < 2\n3 < 4\n").qualified);
  EXPECT_FALSE(eval("1 < 2\n4 < 3\n").qualified);
  EXPECT_FALSE(eval("2 < 1\n3 < 4\n").qualified);
}

TEST(Eval, MeaninglessTautologyQualifiesEverything) {
  // The thesis warns "100 > 0 will make any server a qualified candidate".
  EXPECT_TRUE(eval("100 > 0").qualified);
}

// --- arithmetic ---------------------------------------------------------------

TEST(Eval, Arithmetic) {
  EvalOutcome outcome = eval("x = 2 + 3 * 4\nx == 14\n");
  EXPECT_TRUE(outcome.qualified);
}

TEST(Eval, PowerOperator) {
  EXPECT_TRUE(eval("2 ^ 10 == 1024").qualified);
}

TEST(Eval, UnaryMinusValue) {
  EXPECT_TRUE(eval("-3 + 5 == 2").qualified);
}

TEST(Eval, MemoryExpressionFromThesis) {
  // host_memory_used <= 250*1024*1024 — thesis units are bytes in the text;
  // the library reports MB, but the arithmetic itself must work.
  AttributeSet attrs{{"host_memory_used", 200.0 * 1024 * 1024}};
  EXPECT_TRUE(eval("host_memory_used <= 250*1024*1024", attrs).qualified);
  attrs["host_memory_used"] = 300.0 * 1024 * 1024;
  EXPECT_FALSE(eval("host_memory_used <= 250*1024*1024", attrs).qualified);
}

// --- logical operators ------------------------------------------------------

TEST(Eval, AndOr) {
  EXPECT_TRUE(eval("1 && 1").qualified);
  EXPECT_FALSE(eval("1 && 0").qualified);
  EXPECT_TRUE(eval("0 || 1").qualified);
  EXPECT_FALSE(eval("0 || 0").qualified);
}

TEST(Eval, AndEvaluatesBothSides) {
  // No short circuit (yacc semantics): the assignment on the right runs
  // even when the left side is false.
  EvalOutcome outcome = eval("(1 < 0) && (user_denied_host1 = badhost.example.com)");
  EXPECT_FALSE(outcome.qualified);
  ASSERT_EQ(outcome.params.denied().size(), 1u);
  EXPECT_EQ(outcome.params.denied()[0], "badhost.example.com");
}

TEST(Eval, ComparisonOperators) {
  EXPECT_TRUE(eval("1 <= 1").qualified);
  EXPECT_TRUE(eval("1 >= 1").qualified);
  EXPECT_TRUE(eval("1 == 1").qualified);
  EXPECT_TRUE(eval("1 != 2").qualified);
  EXPECT_FALSE(eval("1 != 1").qualified);
  EXPECT_FALSE(eval("1 > 1").qualified);
}

// --- variables -----------------------------------------------------------------

TEST(Eval, ServerVariableFromAttributes) {
  AttributeSet attrs{{"host_cpu_free", 0.95}};
  EXPECT_TRUE(eval("host_cpu_free >= 0.9", attrs).qualified);
  attrs["host_cpu_free"] = 0.5;
  EXPECT_FALSE(eval("host_cpu_free >= 0.9", attrs).qualified);
}

TEST(Eval, UnboundServerVariableDisqualifies) {
  EvalOutcome outcome = eval("host_cpu_free >= 0.9");  // no attrs at all
  EXPECT_FALSE(outcome.qualified);
  EXPECT_TRUE(outcome.statements[0].errored);
}

TEST(Eval, UndefinedVariableIsError) {
  EvalOutcome outcome = eval("no_such_variable > 1");
  EXPECT_FALSE(outcome.qualified);
  EXPECT_FALSE(outcome.errors().empty());
  EXPECT_NE(outcome.errors()[0].find("undefined"), std::string::npos);
}

TEST(Eval, TempVariablePersistsAcrossStatements) {
  EvalOutcome outcome = eval("limit = 10\nlimit * 2 == 20\n");
  EXPECT_TRUE(outcome.qualified);
}

TEST(Eval, TempVariableFreshPerEvaluation) {
  // The first evaluation assigns 'stale' only after reading it; a reused
  // scratch must not carry that value into the next evaluation, so 'stale'
  // is undefined both times.
  auto requirement = Requirement::compile("stale > 0\nstale = 1\n");
  ASSERT_TRUE(requirement);
  EvalScratch scratch;
  EXPECT_FALSE(requirement->evaluate(Binding{}, scratch).qualified);
  EXPECT_FALSE(requirement->evaluate(Binding{}, scratch).qualified);
}

TEST(Eval, Constants) {
  EXPECT_TRUE(eval("PI > 3.14 && PI < 3.15").qualified);
  EXPECT_TRUE(eval("E > 2.71 && E < 2.72").qualified);
  EXPECT_TRUE(eval("abs(DEG - 57.2958) < 0.001").qualified);
}

TEST(Eval, CannotAssignServerVariable) {
  EvalOutcome outcome = eval("host_cpu_free = 1");
  EXPECT_FALSE(outcome.qualified);
  EXPECT_NE(outcome.errors()[0].find("cannot assign"), std::string::npos);
}

TEST(Eval, CannotAssignConstant) {
  EXPECT_FALSE(eval("PI = 3").qualified);
}

TEST(Eval, CannotAssignBuiltinName) {
  EXPECT_FALSE(eval("sqrt = 3").qualified);
}

// --- user-side host parameters ----------------------------------------------

TEST(Eval, DeniedHostCaptured) {
  EvalOutcome outcome = eval("user_denied_host1 = 137.132.90.182");
  ASSERT_EQ(outcome.params.denied().size(), 1u);
  EXPECT_EQ(outcome.params.denied()[0], "137.132.90.182");
  EXPECT_TRUE(outcome.qualified);  // assignment is non-logical
}

TEST(Eval, PreferredHostCaptured) {
  EvalOutcome outcome = eval("user_preferred_host1 = sagit.ddns.comp.nus.edu.sg");
  ASSERT_EQ(outcome.params.preferred().size(), 1u);
  EXPECT_EQ(outcome.params.preferred()[0], "sagit.ddns.comp.nus.edu.sg");
}

TEST(Eval, BareIdentifierHostCaptured) {
  // Table 5.5 writes "user_denied_host1 = telesto" — a bare name.
  EvalOutcome outcome = eval("user_denied_host1 = telesto");
  ASSERT_EQ(outcome.params.denied().size(), 1u);
  EXPECT_EQ(outcome.params.denied()[0], "telesto");
}

TEST(Eval, HyphenatedHostCaptured) {
  EvalOutcome outcome = eval("user_denied_host5 = titan-x");
  ASSERT_EQ(outcome.params.denied().size(), 1u);
  EXPECT_EQ(outcome.params.denied()[0], "titan-x");
}

TEST(Eval, AllFiveSlotsInOrder) {
  EvalOutcome outcome = eval(
      "user_denied_host2 = b\n"
      "user_denied_host1 = a\n"
      "user_denied_host3 = c\n");
  auto denied = outcome.params.denied();
  ASSERT_EQ(denied.size(), 3u);
  EXPECT_EQ(denied[0], "a");  // slot order, not statement order
  EXPECT_EQ(denied[1], "b");
  EXPECT_EQ(denied[2], "c");
}

TEST(Eval, HostAssignmentTruthyInsideAnd) {
  // Table 5.5's full requirement shape.
  AttributeSet attrs{{"host_cpu_free", 0.95}, {"host_memory_free", 100.0}};
  EvalOutcome outcome = eval(
      "(host_cpu_free > 0.9) && (host_memory_free > 5) && "
      "(user_denied_host1 = telesto) && (user_denied_host2 = mimas)",
      attrs);
  EXPECT_TRUE(outcome.qualified);
  EXPECT_EQ(outcome.params.denied().size(), 2u);
}

TEST(Eval, NumberAssignmentToHostSlotIsError) {
  EvalOutcome outcome = eval("user_denied_host1 = 42");
  EXPECT_FALSE(outcome.qualified);
}

// --- builtins -------------------------------------------------------------------

TEST(Eval, BuiltinFunctions) {
  EXPECT_TRUE(eval("abs(sin(0)) < 0.0001").qualified);
  EXPECT_TRUE(eval("cos(0) == 1").qualified);
  EXPECT_TRUE(eval("exp(0) == 1").qualified);
  EXPECT_TRUE(eval("log10(1000) > 2.99 && log10(1000) < 3.01").qualified);
  EXPECT_TRUE(eval("sqrt(16) == 4").qualified);
  EXPECT_TRUE(eval("int(3.7) == 3").qualified);
  EXPECT_TRUE(eval("floor(3.7) == 3 && ceil(3.2) == 4").qualified);
}

TEST(Eval, UnknownFunctionIsError) {
  EvalOutcome outcome = eval("frobnicate(1) > 0");
  EXPECT_FALSE(outcome.qualified);
}

TEST(Eval, DomainErrors) {
  EXPECT_FALSE(eval("log(-1) < 0").qualified);
  EXPECT_FALSE(eval("sqrt(-4) < 0").qualified);
  EXPECT_FALSE(eval("asin(2) < 0").qualified);
}

TEST(Eval, DivisionByZeroIsError) {
  EvalOutcome outcome = eval("1 / 0 > 0");
  EXPECT_FALSE(outcome.qualified);
  EXPECT_NE(outcome.errors()[0].find("division by 0"), std::string::npos);
}

TEST(Eval, DivisionByZeroViaVariable) {
  EvalOutcome outcome = eval("z = 0\n1 / z > 0\n");
  EXPECT_FALSE(outcome.qualified);
}

// --- host comparisons -----------------------------------------------------------

TEST(Eval, NetAddrEqualityComparesStrings) {
  EXPECT_TRUE(eval("1.2.3.4 == 1.2.3.4").qualified);
  EXPECT_FALSE(eval("1.2.3.4 == 1.2.3.5").qualified);
  EXPECT_TRUE(eval("1.2.3.4 != 1.2.3.5").qualified);
}

// --- thesis example end to end (Fig 1.4 requirements) --------------------------

TEST(Eval, Figure14Requirement) {
  // 100 MB free memory, CPU usage < 10%, delay < 20 ms.
  const char* requirement =
      "host_memory_free >= 100\n"
      "host_cpu_free >= 0.9\n"
      "monitor_network_delay < 20\n"
      "user_denied_host1 = hacker.some.net\n";

  AttributeSet good{{"host_memory_free", 256.0},
                    {"host_cpu_free", 0.97},
                    {"monitor_network_delay", 5.0}};
  EvalOutcome outcome = eval(requirement, good);
  EXPECT_TRUE(outcome.qualified);
  EXPECT_EQ(outcome.params.denied()[0], "hacker.some.net");

  AttributeSet slow_net = good;
  slow_net["monitor_network_delay"] = 100.0;  // network A in the figure
  EXPECT_FALSE(eval(requirement, slow_net).qualified);
}

}  // namespace
}  // namespace smartsock::lang
