// Lexer tests against the token rules of thesis Fig 4.1.
#include <gtest/gtest.h>

#include "lang/lexer.h"
#include "lang/requirement.h"
#include "reference_lang.h"

namespace smartsock::lang {
namespace {

std::vector<Token> lex_ok(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> tokens;
  LexError error;
  EXPECT_TRUE(lexer.tokenize(tokens, error)) << error.message;
  return tokens;
}

std::vector<TokenType> types_of(const std::vector<Token>& tokens) {
  std::vector<TokenType> out;
  for (const Token& t : tokens) out.push_back(t.type);
  return out;
}

TEST(Lexer, EmptyInput) {
  auto tokens = lex_ok("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(Lexer, NumberInteger) {
  auto tokens = lex_ok("42");
  ASSERT_GE(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].number, 42.0);
}

TEST(Lexer, NumberDecimal) {
  auto tokens = lex_ok("0.9");
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].number, 0.9);
}

TEST(Lexer, DottedQuadIsNetAddr) {
  auto tokens = lex_ok("137.132.90.182");
  EXPECT_EQ(tokens[0].type, TokenType::kNetAddr);
  EXPECT_EQ(tokens[0].text, "137.132.90.182");
}

TEST(Lexer, DomainNameIsNetAddr) {
  auto tokens = lex_ok("sagit.ddns.comp.nus.edu.sg");
  EXPECT_EQ(tokens[0].type, TokenType::kNetAddr);
  EXPECT_EQ(tokens[0].text, "sagit.ddns.comp.nus.edu.sg");
}

TEST(Lexer, HyphenatedHostIsNetAddr) {
  auto tokens = lex_ok("titan-x");
  EXPECT_EQ(tokens[0].type, TokenType::kNetAddr);
  EXPECT_EQ(tokens[0].text, "titan-x");
}

TEST(Lexer, IdentifierPlain) {
  auto tokens = lex_ok("host_cpu_free");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "host_cpu_free");
}

TEST(Lexer, IdentifierWithDigits) {
  auto tokens = lex_ok("user_denied_host1");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
}

TEST(Lexer, SubtractionOfNumberStaysArithmetic) {
  auto tokens = lex_ok("a-2");
  auto types = types_of(tokens);
  ASSERT_GE(types.size(), 3u);
  EXPECT_EQ(types[0], TokenType::kIdentifier);
  EXPECT_EQ(types[1], TokenType::kMinus);
  EXPECT_EQ(types[2], TokenType::kNumber);
}

TEST(Lexer, SpacedSubtractionStaysArithmetic) {
  auto tokens = lex_ok("a - b");
  auto types = types_of(tokens);
  EXPECT_EQ(types[0], TokenType::kIdentifier);
  EXPECT_EQ(types[1], TokenType::kMinus);
  EXPECT_EQ(types[2], TokenType::kIdentifier);
}

TEST(Lexer, CommentsIgnoredToEndOfLine) {
  auto tokens = lex_ok("# full line comment\n1 # trailing\n");
  auto types = types_of(tokens);
  ASSERT_EQ(types.size(), 3u);  // NUMBER NEWLINE END
  EXPECT_EQ(types[0], TokenType::kNumber);
  EXPECT_EQ(types[1], TokenType::kNewline);
}

TEST(Lexer, CommentWithJunkFromThesisExample) {
  // "#ldjfaldjfalsjff #akldjfaldfj" — straight from the thesis sample file.
  auto tokens = lex_ok("#ldjfaldjfalsjff #akldjfaldfj\nhost_cpu_free >= 0.9\n");
  auto types = types_of(tokens);
  EXPECT_EQ(types[0], TokenType::kIdentifier);
  EXPECT_EQ(types[1], TokenType::kGe);
  EXPECT_EQ(types[2], TokenType::kNumber);
}

TEST(Lexer, AllOperators) {
  auto tokens = lex_ok("a && b || c > d >= e < f <= g == h != i + j - 1 * k / l ^ m = n");
  auto types = types_of(tokens);
  std::vector<TokenType> expected = {
      TokenType::kIdentifier, TokenType::kAnd, TokenType::kIdentifier, TokenType::kOr,
      TokenType::kIdentifier, TokenType::kGt, TokenType::kIdentifier, TokenType::kGe,
      TokenType::kIdentifier, TokenType::kLt, TokenType::kIdentifier, TokenType::kLe,
      TokenType::kIdentifier, TokenType::kEq, TokenType::kIdentifier, TokenType::kNe,
      TokenType::kIdentifier, TokenType::kPlus, TokenType::kIdentifier, TokenType::kMinus,
      TokenType::kNumber, TokenType::kStar, TokenType::kIdentifier, TokenType::kSlash,
      TokenType::kIdentifier, TokenType::kCaret, TokenType::kIdentifier, TokenType::kAssign,
      TokenType::kIdentifier, TokenType::kNewline, TokenType::kEnd};
  EXPECT_EQ(types, expected);
}

TEST(Lexer, DistinguishesAssignFromEquals) {
  auto tokens = lex_ok("a = b == c");
  auto types = types_of(tokens);
  EXPECT_EQ(types[1], TokenType::kAssign);
  EXPECT_EQ(types[3], TokenType::kEq);
}

TEST(Lexer, CollapsesBlankLines) {
  auto tokens = lex_ok("1\n\n\n2\n");
  auto types = types_of(tokens);
  std::vector<TokenType> expected = {TokenType::kNumber, TokenType::kNewline,
                                     TokenType::kNumber, TokenType::kNewline, TokenType::kEnd};
  EXPECT_EQ(types, expected);
}

TEST(Lexer, SynthesizesTrailingNewline) {
  auto tokens = lex_ok("1");
  auto types = types_of(tokens);
  std::vector<TokenType> expected = {TokenType::kNumber, TokenType::kNewline, TokenType::kEnd};
  EXPECT_EQ(types, expected);
}

TEST(Lexer, TracksLineNumbers) {
  auto tokens = lex_ok("a\nb\nc\n");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[2].line, 2);
  EXPECT_EQ(tokens[4].line, 3);
}

TEST(Lexer, ErrorOnStrayAmpersand) {
  Lexer lexer("a & b");
  std::vector<Token> tokens;
  LexError error;
  EXPECT_FALSE(lexer.tokenize(tokens, error));
  EXPECT_NE(error.message.find("&"), std::string::npos);
}

TEST(Lexer, ErrorOnStrayPipe) {
  Lexer lexer("a | b");
  std::vector<Token> tokens;
  LexError error;
  EXPECT_FALSE(lexer.tokenize(tokens, error));
}

TEST(Lexer, ErrorOnStrayBang) {
  Lexer lexer("!x");
  std::vector<Token> tokens;
  LexError error;
  EXPECT_FALSE(lexer.tokenize(tokens, error));
}

TEST(Lexer, ErrorOnUnknownCharacter) {
  Lexer lexer("a @ b");
  std::vector<Token> tokens;
  LexError error;
  EXPECT_FALSE(lexer.tokenize(tokens, error));
  EXPECT_EQ(error.line, 1);
}

TEST(Lexer, ErrorOnMalformedDottedNumber) {
  Lexer lexer("1.2.3");  // neither NUMBER nor 4-octet NETADDR
  std::vector<Token> tokens;
  LexError error;
  EXPECT_FALSE(lexer.tokenize(tokens, error));
}

TEST(Lexer, NumberOutsideDoubleRangeIsError) {
  // Well-formed digits that std::from_chars cannot represent: too large,
  // and too small to round to anything but zero. Both fail to compile with
  // an error naming the literal, so the requirement cache caches them as
  // negative entries.
  const std::string huge(400, '9');
  const std::string tiny = "0." + std::string(400, '0') + "1";
  for (const std::string& literal : {huge, tiny}) {
    const std::string source = "host_cpu_free > " + literal;
    Lexer lexer(source);
    std::vector<Token> tokens;
    LexError error;
    EXPECT_FALSE(lexer.tokenize(tokens, error));
    EXPECT_NE(error.message.find(literal), std::string::npos) << error.message;

    std::string compile_error;
    EXPECT_FALSE(Requirement::compile("host_cpu_free > " + literal + "\n", &compile_error));
    EXPECT_NE(compile_error.find("does not fit in a double"), std::string::npos)
        << compile_error;
  }
}

TEST(Lexer, LongNumberInRangeStillLexes) {
  auto tokens = lex_ok("1" + std::string(299, '0'));  // 300 digits: 1e299
  ASSERT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].number, 1e299);
  auto requirement = Requirement::compile("host_cpu_free < 1" + std::string(299, '0') + "\n");
  ASSERT_TRUE(requirement);
  EXPECT_TRUE(reference::explain_by_name(*requirement, {{"host_cpu_free", 0.5}}).qualified);
}

TEST(Lexer, ThesisSampleRequirementLexes) {
  const char* sample =
      "host_system_load1 < 1\n"
      "host_memory_used <= 250*1024*1024\n"
      "host_cpu_free >= 0.9\n"
      "#some comments\n"
      "host_network_tbytesps < 1024*1024  # for network IO\n"
      "user_denied_host1 = 137.132.90.182\n"
      "user_preferred_host1 = sagit.ddns.comp.nus.edu.sg\n"
      "#\n";
  auto tokens = lex_ok(sample);
  EXPECT_GT(tokens.size(), 20u);
}

}  // namespace
}  // namespace smartsock::lang
