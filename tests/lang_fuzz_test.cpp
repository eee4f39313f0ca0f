// Seeded fuzzing of the language pipeline: the wizard feeds *network input*
// straight into lexer/parser/evaluator, so none of the three may crash,
// hang, or leak errors past their interfaces on arbitrary bytes.
#include <gtest/gtest.h>

#include "lang/requirement.h"
#include "reference_lang.h"
#include "util/rng.h"

namespace smartsock::lang {
namespace {

// Arbitrary bytes: parse must return cleanly (ok or error), never crash.
TEST(LangFuzz, RandomBytesNeverCrash) {
  util::Rng rng(0xF00D);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 120));
    std::string source(len, '\0');
    for (char& c : source) c = static_cast<char>(rng.uniform_int(0, 255));
    std::string error;
    auto requirement = Requirement::compile(source, &error);
    if (!requirement) {
      EXPECT_FALSE(error.empty());
    }
  }
}

// Printable-ASCII soup: much higher parse rate, still must be robust.
TEST(LangFuzz, PrintableSoupNeverCrashes) {
  util::Rng rng(0xBEEF);
  const std::string alphabet = "abchost_ .0123456789+-*/^()=<>&|!\n#";
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 160));
    std::string source;
    source.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      source += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(alphabet.size()) - 1))];
    }
    std::string error;
    auto requirement = Requirement::compile(source, &error);
    if (requirement) {
      // Whatever parsed must also evaluate without crashing, with or
      // without attributes.
      reference::explain_by_name(*requirement, {});
      reference::explain_by_name(*requirement, {{"host_cpu_free", 0.5}, {"a", 1.0}, {"b", 2.0}});
    }
  }
}

// Grammar-directed generation: every generated program is valid by
// construction and must parse, print, reparse and evaluate.
class ExprGenerator {
 public:
  explicit ExprGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string expression(int depth) {
    if (depth <= 0) return terminal();
    switch (rng_.uniform_int(0, 5)) {
      case 0:
        return "(" + expression(depth - 1) + " " + binary_op() + " " +
               expression(depth - 1) + ")";
      case 1:
        return "-" + expression(depth - 1);
      case 2:
        return function() + "(" + expression(depth - 1) + ")";
      case 3:
        return "(" + expression(depth - 1) + ")";
      default:
        return terminal();
    }
  }

  std::string statement() {
    if (rng_.chance(0.3)) {
      return "t" + std::to_string(rng_.uniform_int(0, 3)) + " = " + expression(2);
    }
    return expression(3);
  }

 private:
  std::string terminal() {
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return std::to_string(rng_.uniform_int(0, 1000));
      case 1: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", rng_.uniform(0.0, 100.0));
        return buf;
      }
      case 2:
        return "host_cpu_free";
      default:
        return "t" + std::to_string(rng_.uniform_int(0, 3));
    }
  }
  std::string binary_op() {
    static const char* ops[] = {"+", "-", "*", "/", "^", "&&", "||",
                                "==", "!=", "<", "<=", ">", ">="};
    return ops[rng_.uniform_int(0, 12)];
  }
  std::string function() {
    static const char* fns[] = {"sin", "cos", "exp", "log10", "sqrt", "abs", "int"};
    return fns[rng_.uniform_int(0, 6)];
  }

  util::Rng rng_;
};

TEST(LangFuzz, GeneratedProgramsAlwaysParse) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    ExprGenerator generator(seed);
    std::string source;
    int statements = 1 + static_cast<int>(seed % 4);
    for (int i = 0; i < statements; ++i) source += generator.statement() + "\n";

    std::string error;
    auto requirement = Requirement::compile(source, &error);
    ASSERT_TRUE(requirement) << "seed " << seed << ": " << error << "\n" << source;

    // Evaluation must terminate and classify every statement.
    auto outcome = reference::explain_by_name(*requirement, {{"host_cpu_free", 0.7}});
    EXPECT_EQ(outcome.statements.size(), static_cast<std::size_t>(statements));
  }
}

TEST(LangFuzz, GeneratedProgramsPrintReparse) {
  for (std::uint64_t seed = 301; seed <= 500; ++seed) {
    ExprGenerator generator(seed);
    std::string source = generator.statement() + "\n";

    Program first;
    ParseError error;
    ASSERT_TRUE(Parser::parse_source(source, first, error)) << source;
    std::string printed = first.statements[0].expr->to_string();

    Program second;
    ASSERT_TRUE(Parser::parse_source(printed, second, error))
        << "seed " << seed << ": " << printed << " -> " << error.to_string();
    EXPECT_EQ(second.statements[0].expr->to_string(), printed) << "seed " << seed;
  }
}

// Deep nesting must not blow the stack at wizard-relevant depths.
TEST(LangFuzz, DeepNestingBounded) {
  std::string source;
  const int depth = 200;
  for (int i = 0; i < depth; ++i) source += "(1 + ";
  source += "1";
  for (int i = 0; i < depth; ++i) source += ")";
  auto requirement = Requirement::compile(source);
  ASSERT_TRUE(requirement);
  auto outcome = reference::explain_by_name(*requirement, {});
  ASSERT_EQ(outcome.statements.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.statements[0].value, depth + 1);
}

// A pathological long line of alternating operators.
TEST(LangFuzz, LongOperatorChain) {
  std::string source = "1";
  for (int i = 0; i < 2000; ++i) source += " + 1";
  auto requirement = Requirement::compile(source);
  ASSERT_TRUE(requirement);
  auto outcome = reference::explain_by_name(*requirement, {});
  EXPECT_DOUBLE_EQ(outcome.statements[0].value, 2001.0);
}

}  // namespace
}  // namespace smartsock::lang
