#include "lang/requirement.h"

#include <fstream>
#include <sstream>

namespace smartsock::lang {

std::optional<Requirement> Requirement::compile(std::string_view source, std::string* error) {
  Requirement requirement;
  requirement.source_ = std::string(source);

  Program program;
  ParseError parse_error;
  if (!Parser::parse_source(source, program, parse_error)) {
    if (error) *error = parse_error.to_string();
    return std::nullopt;
  }
  requirement.program_ = CompiledProgram(std::move(program));

  // Harvest user-side host slots with a pre-pass that binds nothing.
  // Statements that touch server variables error out here; that is fine —
  // only the captured params are kept.
  EvalOutcome outcome = requirement.program_.explain(Binding{});
  requirement.preferred_ = outcome.params.preferred();
  requirement.denied_ = outcome.params.denied();
  return requirement;
}

std::optional<Requirement> Requirement::load_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open requirement file: " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return compile(buffer.str(), error);
}

}  // namespace smartsock::lang
