// Differential tests: the compiled evaluator and matcher in src/ against the
// reference tree-walker and map-per-record matcher (tests/reference_lang.*).
//
// A seeded, grammar-aware generator writes requirement programs that reach
// every corner of the Fig 4.2 semantics: temps read before and after their
// assignment, assignments inside '&&' chains, host slots given a bare name, a
// NETADDR or a number, rank_by, builtins outside their domains and builtin
// names read as variables, division by zero, host ==/!=, constants, unknown
// names, host_security_level and monitor_*. Seeded records carry zero,
// negative, +-1e300, -inf and NaN values (so arithmetic reaches inf and
// NaN), groups
// without netdb rows, hosts with and without secdb rows, and duplicate rows
// where the first one wins. Every program x record must agree on the
// verdict, the rank, each statement's value, logic flag and error text, and
// the harvested hosts; every match on the selection and the counts, serial
// and parallel. A failure prints its seed and program.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "core/server_matcher.h"
#include "lang/builtins.h"
#include "lang/requirement.h"
#include "outcome_checks.h"
#include "reference_lang.h"
#include "util/rng.h"

namespace smartsock::lang {
namespace {

// --- generators -------------------------------------------------------------------

// Host literals the programs name; records use some of them as host names
// or addresses so denied and preferred hosts hit real records.
const char* const kHostLiterals[] = {"h3", "h7", "10.0.0.5", "alpha.example.org", "titan-x",
                                     "h11.lab.example.org"};

// Grown from lang_fuzz_test's ExprGenerator: every program is valid by
// construction.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string program() {
    std::string source;
    int statements = static_cast<int>(rng_.uniform_int(1, 5));
    for (int i = 0; i < statements; ++i) source += statement() + "\n";
    return source;
  }

 private:
  std::string statement() {
    switch (rng_.uniform_int(0, 9)) {
      case 0:
        return temp() + " = " + expression(2);
      case 1:
        return "rank_by = " + expression(2);
      case 2:
        return host_slot() + " = " + host_value();
      case 3:
        // An '&&' chain with assignments inside, Table 5.5's shape.
        return "(" + expression(1) + " " + relation() + " " + expression(1) + ") && (" +
               temp() + " = " + expression(1) + ") && (" + host_slot() + " = " + host_value() +
               ")";
      default:
        return expression(3);
    }
  }

  std::string expression(int depth) {
    if (depth <= 0) return terminal();
    switch (rng_.uniform_int(0, 11)) {
      case 0:
      case 1:
        return "(" + expression(depth - 1) + " " + binary_op() + " " + expression(depth - 1) + ")";
      case 2:
        return "(" + expression(depth - 1) + " " + relation() + " " + expression(depth - 1) + ")";
      case 3:
        return "-" + expression(depth - 1);
      case 4:
        return function() + "(" + expression(depth - 1) + ")";
      case 5:
        return "(" + temp() + " = " + expression(depth - 1) + ")";
      case 6:
        return "(" + host_slot() + " = " + host_value() + ")";
      case 7:
        return "(" + host() + (rng_.chance(0.5) ? " == " : " != ") + host() + ")";
      case 8:
        return "(" + expression(depth - 1) + " / " + (rng_.chance(0.5) ? "0" : temp()) + ")";
      case 9:
        return "(" + read_only() + " = " + expression(depth - 1) + ")";
      default:
        return terminal();
    }
  }

  std::string terminal() {
    static const char* const kNames[] = {
        "host_cpu_free",      "host_memory_free",    "host_system_load1", "host_disk_allreq",
        "host_cpu_idle",      "host_network_tbytesps", "host_security_level",
        "monitor_network_bw", "monitor_network_delay", "PI", "E", "DEG",
        "sqrt",               "log",                 "ghost",             "host_gpu_free",
        "user_preferred_host1", "user_denied_host4",
    };
    switch (rng_.uniform_int(0, 9)) {
      case 0:
        return std::to_string(rng_.uniform_int(0, 1000));
      case 1: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", rng_.uniform(0.0, 100.0));
        return buf;
      }
      case 2:
        return rng_.chance(0.5) ? "0" : "1" + std::string(300, '0');  // 0 or 1e300
      case 3:
        return host();
      case 4:
      case 5:
        return temp();
      default:
        return kNames[rng_.uniform_int(0, std::size(kNames) - 1)];
    }
  }

  std::string temp() {
    static const char* const kTemps[] = {"t0", "t1", "t2", "rank_by"};
    return kTemps[rng_.uniform_int(0, 3)];
  }
  std::string host() { return kHostLiterals[rng_.uniform_int(0, std::size(kHostLiterals) - 1)]; }
  std::string host_slot() {
    return (rng_.chance(0.5) ? "user_preferred_host" : "user_denied_host") +
           std::to_string(rng_.uniform_int(1, 5));
  }
  std::string host_value() {
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return host();  // NETADDR or bare name
      case 1:
        return temp();  // a bare name too: captured, not evaluated
      case 2:
        return std::to_string(rng_.uniform_int(0, 9));  // a number: an error
      default:
        return "(" + expression(1) + " + 1)";  // computed: an error
    }
  }
  std::string read_only() {
    static const char* const kReadOnly[] = {"host_cpu_free", "monitor_network_bw", "PI", "sqrt"};
    return kReadOnly[rng_.uniform_int(0, 3)];
  }
  std::string binary_op() {
    static const char* const kOps[] = {"+", "-", "*", "/", "^", "&&", "||"};
    return kOps[rng_.uniform_int(0, 6)];
  }
  std::string relation() {
    static const char* const kOps[] = {"==", "!=", "<", "<=", ">", ">="};
    return kOps[rng_.uniform_int(0, 5)];
  }
  std::string function() {
    const auto& names = builtin_names();
    if (rng_.chance(0.1)) return "frobnicate";
    return names[static_cast<std::size_t>(rng_.uniform_int(0, names.size() - 1))];
  }

  util::Rng rng_;
};

// Probes report numbers as text, and "inf" and "nan" parse, so records can
// hold them too.
double pick_value(util::Rng& rng, double low, double high) {
  switch (rng.uniform_int(0, 11)) {
    case 0:
      return 0.0;
    case 1:
      return -rng.uniform(0.0, high);
    case 2:
      return 1e300;
    case 3:
      return -1e300;
    case 4:
      return std::numeric_limits<double>::quiet_NaN();
    case 5:
      return -std::numeric_limits<double>::infinity();
    default:
      return rng.uniform(low, high);
  }
}

// Records h0..h{n-1} at 10.0.0.i:5000 in groups g0..g3, with secdb and
// netdb rows seen from group "local". g3 has no netdb row; g0 has two, and
// the first wins; a row from another group must be ignored.
core::MatchInput make_records(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  core::MatchInput input;
  input.local_group = "local";
  for (std::size_t i = 0; i < count; ++i) {
    ipc::SysRecord r;
    std::string host = i == 11 ? "h11.lab.example.org" : "h" + std::to_string(i);
    if (i == 13) host = "titan-x";
    ipc::copy_fixed(r.host, ipc::kHostNameLen, host);
    ipc::copy_fixed(r.address, ipc::kAddressLen, "10.0.0." + std::to_string(i) + ":5000");
    ipc::copy_fixed(r.group, ipc::kGroupLen, "g" + std::to_string(i % 4));
    r.load1 = pick_value(rng, 0.0, 4.0);
    r.load5 = pick_value(rng, 0.0, 4.0);
    r.cpu_idle = pick_value(rng, 0.0, 1.0);
    r.cpu_user = pick_value(rng, 0.0, 1.0);
    r.mem_free_mb = pick_value(rng, 0.0, 4000.0);
    r.mem_used_mb = pick_value(rng, 0.0, 4000.0);
    r.disk_rreq_ps = pick_value(rng, 0.0, 100.0);
    r.disk_wreq_ps = pick_value(rng, 0.0, 100.0);
    r.net_tbytes_ps = pick_value(rng, 0.0, 1e6);
    input.sys.push_back(r);

    if (i % 3 != 2) {  // every third host has no secdb row
      ipc::SecRecord sec;
      ipc::copy_fixed(sec.host, ipc::kHostNameLen, host);
      sec.level = static_cast<std::int32_t>(rng.uniform_int(-2, 5));
      input.sec.push_back(sec);
    }
  }
  if (!input.sys.empty()) {  // a duplicate secdb row: the first one wins
    ipc::SecRecord duplicate;
    ipc::copy_fixed(duplicate.host, ipc::kHostNameLen, "h0");
    duplicate.level = 99;
    input.sec.push_back(duplicate);
  }
  auto net_row = [&](const char* from, const char* to, double bw, double delay) {
    ipc::NetRecord net;
    ipc::copy_fixed(net.from_group, ipc::kGroupLen, from);
    ipc::copy_fixed(net.to_group, ipc::kGroupLen, to);
    net.bw_mbps = bw;
    net.delay_ms = delay;
    input.net.push_back(net);
  };
  net_row("other", "g1", 1.0, 1.0);  // another client group's path
  net_row("local", "g0", pick_value(rng, 0.0, 100.0), pick_value(rng, 0.0, 50.0));
  net_row("local", "g1", pick_value(rng, 0.0, 100.0), 0.0);
  net_row("local", "g2", -1e300, pick_value(rng, 0.0, 50.0));
  net_row("local", "g0", 555.0, 555.0);  // duplicate: the first g0 row wins
  return input;
}

// --- comparisons --------------------------------------------------------------------

using reference::expect_same_outcome;
using reference::same_rank;

bool any_errored(const EvalOutcome& outcome) {
  for (const StatementResult& s : outcome.statements) {
    if (s.errored) return true;
  }
  return false;
}

void expect_same_match(const core::MatchResult& got, const core::MatchResult& want) {
  EXPECT_EQ(got.selected, want.selected);
  EXPECT_EQ(got.evaluated, want.evaluated);
  EXPECT_EQ(got.qualified, want.qualified);
}

std::string trace(std::uint64_t seed, const std::string& source) {
  return "seed " + std::to_string(seed) + ", program:\n" + source;
}

// --- tests ----------------------------------------------------------------------------

TEST(CompiledEval, AgreesWithReferenceOnGeneratedPrograms) {
  const core::MatchInput input = make_records(0xD1FF, 24);
  const core::MatchView view(input);
  EvalScratch scratch;  // one scratch across every program and record
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const std::string source = ProgramGenerator(seed).program();
    SCOPED_TRACE(trace(seed, source));
    std::string error;
    auto requirement = Requirement::compile(source, &error);
    ASSERT_TRUE(requirement) << error;

    EvalOutcome harvest = reference::evaluate(source, AttributeSet{});
    EXPECT_EQ(requirement->preferred_hosts(), harvest.params.preferred());
    EXPECT_EQ(requirement->denied_hosts(), harvest.params.denied());

    const core::RecordBinder binder(view, requirement->slots_read());
    for (const ipc::SysRecord& record : input.sys) {
      SCOPED_TRACE("record " + record.host_str());
      EvalOutcome want = reference::evaluate(source, reference::record_attributes(view, record));
      Binding binding;
      binder.bind(record, binding);
      Verdict verdict = requirement->evaluate(binding, scratch);
      EXPECT_EQ(verdict.qualified, want.qualified);
      EXPECT_EQ(verdict.errored, any_errored(want));
      EXPECT_TRUE(same_rank(verdict.rank, want.rank));
      expect_same_outcome(requirement->explain(binding), want);
      if (testing::Test::HasFailure()) return;  // one program's failure is enough
    }
  }
}

TEST(CompiledEval, NameBindingAgreesWithReference) {
  // The name binding (reference::explain_by_name) also resolves names the
  // predefined tables lack from the set (the thesis's "new parameters").
  const core::MatchInput input = make_records(0xA77, 6);
  for (std::uint64_t seed = 5001; seed <= 5400; ++seed) {
    const std::string source = ProgramGenerator(seed).program();
    SCOPED_TRACE(trace(seed, source));
    auto requirement = Requirement::compile(source);
    ASSERT_TRUE(requirement);
    for (const ipc::SysRecord& record : input.sys) {
      AttributeSet attrs = reference::record_attributes(input, record);
      attrs["ghost"] = record.load1;
      attrs["host_gpu_free"] = 0.5;
      attrs["t1"] = 7.0;  // shadowed by the temp once assigned
      expect_same_outcome(reference::explain_by_name(*requirement, attrs),
                          reference::evaluate(source, attrs));
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(CompiledMatch, AgreesWithReferenceSerialAndParallel) {
  const core::MatchInput input = make_records(0x3A7C, 40);
  const core::MatchView view(input);
  core::ServerMatcher serial;
  core::ServerMatcher parallel(4);
  util::Rng counts(0xC0);
  for (std::uint64_t seed = 9001; seed <= 9600; ++seed) {
    const std::string source = ProgramGenerator(seed).program();
    SCOPED_TRACE(trace(seed, source));
    auto requirement = Requirement::compile(source);
    ASSERT_TRUE(requirement);
    static const std::size_t kCounts[] = {1, 5, 60, 100};
    const std::size_t count = kCounts[counts.uniform_int(0, 3)];
    core::MatchResult want = reference::match(source, view, count);
    expect_same_match(serial.match(*requirement, view, count), want);
    expect_same_match(parallel.match(*requirement, view, count), want);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(CompiledMatch, RequirementMovesKeepWorking) {
  // Compiled requirements are moved into containers (pipebench keeps a
  // std::vector of them): nothing may point into a moved-from object.
  const core::MatchInput input = make_records(0x5EED, 16);
  std::vector<Requirement> moved;
  std::vector<std::string> sources;
  for (std::uint64_t seed = 77; seed < 77 + 40; ++seed) {
    sources.push_back(ProgramGenerator(seed).program());
    auto requirement = Requirement::compile(sources.back());
    ASSERT_TRUE(requirement);
    moved.push_back(std::move(*requirement));  // reallocation moves the earlier ones again
  }
  core::ServerMatcher matcher;
  for (std::size_t i = 0; i < moved.size(); ++i) {
    SCOPED_TRACE(sources[i]);
    expect_same_match(matcher.match(moved[i], input, 60),
                      reference::match(sources[i], input, 60));
  }
}

TEST(CompiledMatch, SharedRequirementAcrossThreads) {
  // One compiled requirement, shared the way the wizard shares it: four
  // threads evaluate it record by record while a 4-way matcher matches with
  // it. Each thread owns its scratch; the program itself is read-only.
  const std::string source =
      "t0 = host_cpu_free * 2\n"
      "rank_by = host_memory_free + host_security_level\n"
      "(t0 > 0.4) && (user_denied_host1 = h3) && monitor_network_delay < 40\n"
      "user_preferred_host1 = 10.0.0.5\n";
  const core::MatchInput input = make_records(0x7EAD, 200);
  const core::MatchView view(input);
  auto requirement = std::make_shared<const Requirement>(std::move(*Requirement::compile(source)));
  const core::MatchResult want = reference::match(source, view, 25);

  std::vector<EvalOutcome> expected;
  for (const ipc::SysRecord& record : input.sys) {
    expected.push_back(reference::evaluate(source, reference::record_attributes(view, record)));
  }
  const core::RecordBinder binder(view, requirement->slots_read());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> evaluators;
  for (int t = 0; t < 4; ++t) {
    evaluators.emplace_back([&] {
      EvalScratch scratch;
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < input.sys.size(); ++i) {
          Binding binding;
          binder.bind(input.sys[i], binding);
          Verdict verdict = requirement->evaluate(binding, scratch);
          if (verdict.qualified != expected[i].qualified ||
              !same_rank(verdict.rank, expected[i].rank)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  core::ServerMatcher matcher(4);
  for (int round = 0; round < 20; ++round) {
    expect_same_match(matcher.match(*requirement, view, 25), want);
  }
  for (std::thread& thread : evaluators) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- allocations --------------------------------------------------------------------

struct Counted {
  std::size_t allocations = 0;
  std::size_t selected = 0;
};

Counted allocations_in_match(const Requirement& requirement, const core::MatchInput& input) {
  core::ServerMatcher matcher;
  matcher.match(requirement, input, 10);  // warm anything lazily initialised
  start_counting_allocations();
  core::MatchResult result = matcher.match(requirement, input, 10);
  return {stop_counting_allocations(), result.selected.size()};
}

core::MatchInput qualifying_records(std::size_t count) {
  core::MatchInput input = make_records(0xA110C, count);
  input.sec.resize(64);  // secdb and netdb stay the same size as sysdb grows
  for (ipc::SysRecord& record : input.sys) {
    record.cpu_idle = 0.9;
    record.mem_free_mb = 500;
  }
  return input;
}

TEST(CompiledMatch, AllocationsDoNotGrowWithRecordCount) {
  // The same servers selected out of 1,000 and out of 8,000 records: the
  // match must allocate the same number of times, whatever the requirement
  // reads, and also when every record errors.
  const char* const kSources[] = {
      "host_cpu_free > 0.5 && host_memory_free >= 100\n",
      "host_cpu_free > 0.5\nrank_by = host_memory_free - host_system_load1\n",
      "host_security_level >= -10 && monitor_network_delay >= 0 || host_cpu_free > 0.5\n",
      "host_cpu_free > 0.5\nuser_denied_host1 = h3\nuser_preferred_host2 = h7\n",
      "ghost > 1 || host_cpu_free > 0.5\n",  // errors on every record
  };
  const core::MatchInput small = qualifying_records(1000);
  const core::MatchInput large = qualifying_records(8000);
  for (const char* source : kSources) {
    SCOPED_TRACE(source);
    auto requirement = Requirement::compile(source);
    ASSERT_TRUE(requirement);
    Counted at_small = allocations_in_match(*requirement, small);
    Counted at_large = allocations_in_match(*requirement, large);
    EXPECT_EQ(at_small.selected, at_large.selected);
    EXPECT_EQ(at_small.allocations, at_large.allocations);
  }
}

}  // namespace
}  // namespace smartsock::lang
