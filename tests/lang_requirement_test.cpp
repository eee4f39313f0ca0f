// Requirement compilation + symbol-table tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "lang/builtins.h"
#include "lang/requirement.h"
#include "reference_lang.h"

namespace smartsock::lang {
namespace {

// Runtime name classification lives only in the reference evaluator.
using reference::classify_symbol;
using reference::SymbolClass;
using reference::TempScope;

TEST(Requirement, CompileValid) {
  std::string error;
  auto requirement = Requirement::compile("host_cpu_free > 0.5\n", &error);
  ASSERT_TRUE(requirement) << error;
  EXPECT_EQ(requirement->statement_count(), 1u);
}

TEST(Requirement, CompileError) {
  std::string error;
  auto requirement = Requirement::compile("host_cpu_free >\n", &error);
  EXPECT_FALSE(requirement);
  EXPECT_FALSE(error.empty());
}

TEST(Requirement, HarvestsHostsAtCompileTime) {
  auto requirement = Requirement::compile(
      "host_cpu_free > 0.5\n"
      "user_preferred_host1 = alpha\n"
      "user_denied_host1 = beta.example.org\n");
  ASSERT_TRUE(requirement);
  ASSERT_EQ(requirement->preferred_hosts().size(), 1u);
  EXPECT_EQ(requirement->preferred_hosts()[0], "alpha");
  ASSERT_EQ(requirement->denied_hosts().size(), 1u);
  EXPECT_EQ(requirement->denied_hosts()[0], "beta.example.org");
}

TEST(Requirement, HarvestsHostsGuardedByServerConditions) {
  // The pre-pass has no server attributes, but yacc's non-short-circuit &&
  // still runs the assignment.
  auto requirement =
      Requirement::compile("(host_cpu_free > 0.9) && (user_denied_host1 = gamma)\n");
  ASSERT_TRUE(requirement);
  ASSERT_EQ(requirement->denied_hosts().size(), 1u);
  EXPECT_EQ(requirement->denied_hosts()[0], "gamma");
}

TEST(Requirement, QualifiesAgainstAttributes) {
  auto requirement = Requirement::compile("host_cpu_free > 0.5\nhost_memory_free > 10\n");
  ASSERT_TRUE(requirement);
  EXPECT_TRUE(
      reference::explain_by_name(*requirement, {{"host_cpu_free", 0.9}, {"host_memory_free", 100.0}})
          .qualified);
  EXPECT_FALSE(
      reference::explain_by_name(*requirement, {{"host_cpu_free", 0.2}, {"host_memory_free", 100.0}})
          .qualified);
}

TEST(Requirement, EmptyRequirementQualifiesEverything) {
  auto requirement = Requirement::compile("");
  ASSERT_TRUE(requirement);
  EXPECT_TRUE(reference::explain_by_name(*requirement, {}).qualified);
}

TEST(Requirement, LoadFileMissing) {
  std::string error;
  EXPECT_FALSE(Requirement::load_file("/no/such/file.req", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Requirement, LoadFileWorks) {
  std::string path = testing::TempDir() + "/smartsock_req_test.req";
  {
    std::ofstream out(path);
    out << "# test requirement\nhost_cpu_free >= 0.9\n";
  }
  std::string error;
  auto requirement = Requirement::load_file(path, &error);
  ASSERT_TRUE(requirement) << error;
  EXPECT_EQ(requirement->statement_count(), 1u);
  std::remove(path.c_str());
}

// --- symbol table ---------------------------------------------------------------

TEST(SymbolTable, TwentyTwoServerVariables) {
  EXPECT_EQ(server_variable_names().size(), 22u);  // Appendix B.1's count
}

TEST(SymbolTable, TenUserVariables) {
  EXPECT_EQ(user_variable_names().size(), 10u);  // Appendix B.2's count
}

TEST(SymbolTable, ClassifyKnownNames) {
  TempScope temps;
  AttributeSet attrs;
  EXPECT_EQ(classify_symbol("host_cpu_free", attrs, temps), SymbolClass::kServerVar);
  EXPECT_EQ(classify_symbol("monitor_network_bw", attrs, temps), SymbolClass::kServerVar);
  EXPECT_EQ(classify_symbol("user_denied_host3", attrs, temps), SymbolClass::kUserParam);
  EXPECT_EQ(classify_symbol("PI", attrs, temps), SymbolClass::kConstant);
  EXPECT_EQ(classify_symbol("sqrt", attrs, temps), SymbolClass::kBuiltin);
  EXPECT_EQ(classify_symbol("whatever", attrs, temps), SymbolClass::kUndefined);
}

TEST(SymbolTable, TempRecognizedAfterAssignment) {
  TempScope temps;
  temps.assign("mine", 3.0);
  EXPECT_EQ(classify_symbol("mine", AttributeSet{}, temps), SymbolClass::kTemp);
}

TEST(SymbolTable, ExtensionAttributeResolves) {
  // Ch. 7: new parameters can be added without touching the parser — any
  // name present in the attribute set resolves as a server variable.
  AttributeSet attrs{{"host_gpu_free", 1.0}};
  TempScope temps;
  EXPECT_EQ(classify_symbol("host_gpu_free", attrs, temps), SymbolClass::kServerVar);
}

TEST(SymbolTable, PreferredSlotDetection) {
  EXPECT_TRUE(is_preferred_slot("user_preferred_host1"));
  EXPECT_FALSE(is_preferred_slot("user_denied_host1"));
}

// --- builtins table ---------------------------------------------------------------

TEST(Builtins, TableSanity) {
  EXPECT_TRUE(is_builtin("sin"));
  EXPECT_TRUE(is_builtin("log10"));
  EXPECT_FALSE(is_builtin("sinh"));
  EXPECT_GE(builtin_names().size(), 10u);
}

TEST(Builtins, CallDirect) {
  auto r = call_builtin("sqrt", 9.0);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.value, 3.0);
}

TEST(Builtins, DomainGuard) {
  EXPECT_FALSE(call_builtin("log", 0.0).ok);
  EXPECT_FALSE(call_builtin("log", -1.0).ok);
  EXPECT_TRUE(call_builtin("log", 1.0).ok);
}

TEST(Builtins, OverflowGuard) {
  EXPECT_FALSE(call_builtin("exp", 1e6).ok);
}

TEST(Builtins, CheckedPow) {
  EXPECT_TRUE(checked_pow(2, 10).ok);
  EXPECT_FALSE(checked_pow(1e308, 2).ok);
}

}  // namespace
}  // namespace smartsock::lang
