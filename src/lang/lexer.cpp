#include "lang/lexer.h"

#include <cctype>

#include "util/strings.h"

namespace smartsock::lang {

namespace {

bool is_ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)); }
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool is_netaddr_tail_char(char c) {
  // After "name." the thesis rule admits [\.a-zA-Z_0-9]* — letters, digits,
  // underscores, dots and (for host names like titan-x) hyphens.
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
}

}  // namespace

char Lexer::advance() {
  char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

void Lexer::push(std::vector<Token>& out, TokenType type, std::string text) {
  Token token;
  token.type = type;
  token.text = std::move(text);
  token.line = token_line_;
  token.column = token_column_;
  out.push_back(std::move(token));
}

bool Lexer::tokenize(std::vector<Token>& out, LexError& error) {
  out.clear();
  while (!at_end()) {
    token_line_ = line_;
    token_column_ = column_;
    char c = peek();

    if (c == '#') {  // comment to end of line
      while (!at_end() && peek() != '\n') advance();
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      advance();
      continue;
    }
    if (c == '\n') {
      advance();
      // Collapse consecutive newlines (the grammar allows empty lines).
      if (!out.empty() && out.back().type != TokenType::kNewline) {
        push(out, TokenType::kNewline);
      }
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      // NUMBER or dotted-quad NETADDR. Consume the maximal digits-and-dots
      // run, then classify: 4 numeric octets -> NETADDR, "int" or
      // "int.frac" -> NUMBER, anything else is an error.
      std::size_t start = pos_;
      while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) || peek() == '.')) {
        advance();
      }
      std::string lexeme(source_.substr(start, pos_ - start));
      if (util::looks_like_ipv4(lexeme)) {
        push(out, TokenType::kNetAddr, lexeme);
        continue;
      }
      auto fields = util::split(lexeme, '.', /*keep_empty=*/true);
      bool valid_number =
          (fields.size() == 1 || fields.size() == 2) && !fields[0].empty() &&
          (fields.size() == 1 || !fields[1].empty());
      if (!valid_number) {
        error = {"malformed number or address '" + lexeme + "'", token_line_, token_column_};
        return false;
      }
      // Well-formed digits can still miss the double range, e.g. 400 nines
      // or a fraction with 400 leading zeros.
      auto number = util::parse_double(lexeme);
      if (!number) {
        error = {"number '" + lexeme + "' does not fit in a double", token_line_, token_column_};
        return false;
      }
      Token token;
      token.type = TokenType::kNumber;
      token.number = *number;
      token.line = token_line_;
      token.column = token_column_;
      out.push_back(std::move(token));
      continue;
    }

    if (is_ident_start(c)) {
      std::size_t start = pos_;
      while (!at_end() && is_ident_char(peek())) advance();
      // "name.rest" forms a NETADDR per Fig 4.1's second rule. Host names in
      // the testbed also use hyphens (titan-x, pandora-x); a '-' directly
      // followed by a letter joins the name. Subtraction between bare
      // identifiers therefore needs spaces ("a - b"); "a-2" stays arithmetic.
      while (!at_end() && peek() == '-' && is_ident_start(peek(1))) {
        advance();  // consume '-'
        while (!at_end() && is_ident_char(peek())) advance();
      }
      if (!at_end() && peek() == '.') {
        advance();
        while (!at_end() && is_netaddr_tail_char(peek())) advance();
        push(out, TokenType::kNetAddr, std::string(source_.substr(start, pos_ - start)));
      } else {
        std::string lexeme(source_.substr(start, pos_ - start));
        if (lexeme.find('-') != std::string::npos) {
          push(out, TokenType::kNetAddr, lexeme);  // hyphenated bare host name
        } else {
          push(out, TokenType::kIdentifier, lexeme);
        }
      }
      continue;
    }

    advance();
    switch (c) {
      case '&':
        if (peek() == '&') {
          advance();
          push(out, TokenType::kAnd);
        } else {
          error = {"stray '&' (did you mean '&&'?)", token_line_, token_column_};
          return false;
        }
        break;
      case '|':
        if (peek() == '|') {
          advance();
          push(out, TokenType::kOr);
        } else {
          error = {"stray '|' (did you mean '||'?)", token_line_, token_column_};
          return false;
        }
        break;
      case '>':
        if (peek() == '=') {
          advance();
          push(out, TokenType::kGe);
        } else {
          push(out, TokenType::kGt);
        }
        break;
      case '<':
        if (peek() == '=') {
          advance();
          push(out, TokenType::kLe);
        } else {
          push(out, TokenType::kLt);
        }
        break;
      case '=':
        if (peek() == '=') {
          advance();
          push(out, TokenType::kEq);
        } else {
          push(out, TokenType::kAssign);
        }
        break;
      case '!':
        if (peek() == '=') {
          advance();
          push(out, TokenType::kNe);
        } else {
          error = {"stray '!' (did you mean '!='?)", token_line_, token_column_};
          return false;
        }
        break;
      case '+':
        push(out, TokenType::kPlus);
        break;
      case '-':
        push(out, TokenType::kMinus);
        break;
      case '*':
        push(out, TokenType::kStar);
        break;
      case '/':
        push(out, TokenType::kSlash);
        break;
      case '^':
        push(out, TokenType::kCaret);
        break;
      case '(':
        push(out, TokenType::kLParen);
        break;
      case ')':
        push(out, TokenType::kRParen);
        break;
      default:
        error = {std::string("unexpected character '") + c + "'", token_line_, token_column_};
        return false;
    }
  }

  if (!out.empty() && out.back().type != TokenType::kNewline) {
    push(out, TokenType::kNewline);
  }
  push(out, TokenType::kEnd);
  return true;
}

}  // namespace smartsock::lang
