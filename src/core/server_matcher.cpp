#include "core/server_matcher.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

namespace smartsock::core {

namespace {

using lang::ServerSlot;
using Record = ipc::SysRecord;

// The slot table: where each server slot's value comes from. The host_*
// slots read the sysdb record (host_disk_allreq sums two fields);
// host_security_level and monitor_* have no field here, RecordBinder binds
// them from secdb and netdb.
struct SlotSource {
  ServerSlot slot;
  double Record::*field = nullptr;
  double Record::*plus = nullptr;
};

constexpr std::array<SlotSource, lang::kServerSlotCount> kSlotTable = {{
    {ServerSlot::kSystemLoad1, &Record::load1},
    {ServerSlot::kSystemLoad5, &Record::load5},
    {ServerSlot::kSystemLoad15, &Record::load15},
    {ServerSlot::kCpuUser, &Record::cpu_user},
    {ServerSlot::kCpuNice, &Record::cpu_nice},
    {ServerSlot::kCpuSystem, &Record::cpu_system},
    {ServerSlot::kCpuIdle, &Record::cpu_idle},
    {ServerSlot::kCpuFree, &Record::cpu_idle},  // the thesis: idle share of the interval
    {ServerSlot::kCpuBogomips, &Record::bogomips},
    {ServerSlot::kMemoryTotal, &Record::mem_total_mb},
    {ServerSlot::kMemoryUsed, &Record::mem_used_mb},
    {ServerSlot::kMemoryFree, &Record::mem_free_mb},
    {ServerSlot::kDiskAllreq, &Record::disk_rreq_ps, &Record::disk_wreq_ps},
    {ServerSlot::kDiskRreq, &Record::disk_rreq_ps},
    {ServerSlot::kDiskRblocks, &Record::disk_rblocks_ps},
    {ServerSlot::kDiskWreq, &Record::disk_wreq_ps},
    {ServerSlot::kDiskWblocks, &Record::disk_wblocks_ps},
    {ServerSlot::kNetworkRbytesps, &Record::net_rbytes_ps},
    {ServerSlot::kNetworkRpacketsps, &Record::net_rpackets_ps},
    {ServerSlot::kNetworkTbytesps, &Record::net_tbytes_ps},
    {ServerSlot::kNetworkTpacketsps, &Record::net_tpackets_ps},
    {ServerSlot::kSecurityLevel},
    {ServerSlot::kNetworkBw},
    {ServerSlot::kNetworkDelay},
}};

constexpr bool table_in_slot_order() {
  for (std::size_t i = 0; i < kSlotTable.size(); ++i) {
    if (static_cast<std::size_t>(kSlotTable[i].slot) != i) return false;
  }
  return true;
}
static_assert(table_in_slot_order(), "kSlotTable is indexed by lang::ServerSlot");

// Slots a sysdb record binds by itself: every slot before host_security_level.
constexpr lang::SlotMask kRecordSlots = lang::slot_bit(ServerSlot::kSecurityLevel) - 1;
constexpr lang::SlotMask kNetworkSlots =
    lang::slot_bit(ServerSlot::kNetworkBw) | lang::slot_bit(ServerSlot::kNetworkDelay);

double read_field(const Record& record, const SlotSource& source) {
  return source.plus ? record.*source.field + record.*source.plus : record.*source.field;
}

bool name_matches(std::string_view pattern, std::string_view host, std::string_view address) {
  if (pattern == host || pattern == address) return true;
  // Address without port ("1.2.3.4" vs "1.2.3.4:5000").
  std::size_t colon = address.rfind(':');
  if (colon != std::string_view::npos && pattern == address.substr(0, colon)) return true;
  // Fully qualified vs short host name ("sagit.ddns.comp.nus.edu.sg" vs
  // "sagit").
  std::size_t dot = pattern.find('.');
  return dot != std::string_view::npos && pattern.substr(0, dot) == host;
}

bool in_list(const std::vector<std::string>& patterns, const Record& record) {
  if (patterns.empty()) return false;
  std::string_view host = record.host_view();
  std::string_view address = record.address_view();
  return std::any_of(patterns.begin(), patterns.end(), [&](const std::string& p) {
    return name_matches(p, host, address);
  });
}

/// What the merge stage needs about one sys record, produced by the
/// (possibly parallel) evaluation stage. Index-addressed so chunk scheduling
/// cannot reorder anything.
struct RecordOutcome {
  double rank = 0.0;
  bool has_rank = false;
  bool qualified = false;
  bool preferred = false;
};

}  // namespace

RecordBinder::RecordBinder(const MatchView& input, lang::SlotMask slots)
    : record_slots_(slots & kRecordSlots),
      security_((slots & lang::slot_bit(ServerSlot::kSecurityLevel)) != 0),
      network_((slots & kNetworkSlots) != 0) {
  // emplace keeps the first row per key: the first secdb row for a host and
  // the first netdb row for a group win, as in the thesis's sequential scan.
  if (security_) {
    security_by_host_.reserve(input.sec.size());
    for (const ipc::SecRecord& sec : input.sec) {
      security_by_host_.emplace(sec.host_view(), static_cast<double>(sec.level));
    }
  }
  if (network_) {
    for (const ipc::NetRecord& net : input.net) {
      if (net.from_view() == input.local_group) network_by_group_.emplace(net.to_view(), &net);
    }
  }
}

void RecordBinder::bind(const ipc::SysRecord& record, lang::Binding& binding) const {
  for (lang::SlotMask bits = record_slots_; bits != 0; bits &= bits - 1) {
    auto slot = static_cast<std::size_t>(std::countr_zero(bits));
    binding.values[slot] = read_field(record, kSlotTable[slot]);
  }
  binding.bound = record_slots_;
  if (security_) {
    // Servers without a secdb row default to 0 — unknown clearance.
    auto sec = security_by_host_.find(record.host_view());
    binding.set(ServerSlot::kSecurityLevel, sec != security_by_host_.end() ? sec->second : 0.0);
  }
  if (network_) {
    // Left unbound when unmeasured: a requirement that mentions
    // monitor_network_bw then fails for that server, the safe direction.
    auto net = network_by_group_.find(record.group_view());
    if (net != network_by_group_.end()) {
      binding.set(ServerSlot::kNetworkBw, net->second->bw_mbps);
      binding.set(ServerSlot::kNetworkDelay, net->second->delay_ms);
    }
  }
}

ServerMatcher::ServerMatcher(std::size_t threads)
    : pool_(threads > 1 ? std::make_shared<util::ThreadPool>(threads - 1) : nullptr) {}

MatchResult ServerMatcher::match(const lang::Requirement& requirement, const MatchView& input,
                                 std::size_t count) const {
  MatchResult result;
  count = std::min(count, kMaxServersPerReply);

  const auto& preferred = requirement.preferred_hosts();
  const auto& denied = requirement.denied_hosts();
  const RecordBinder binder(input, requirement.slots_read());

  // Stage 1 — per-record evaluation, data-parallel over contiguous index
  // ranges when this matcher owns a pool. Each range owns its scratch.
  std::vector<RecordOutcome> outcomes(input.sys.size());
  auto evaluate_range = [&](std::size_t begin, std::size_t end) {
    lang::EvalScratch scratch;
    lang::Binding binding;
    for (std::size_t i = begin; i < end; ++i) {
      const ipc::SysRecord& record = input.sys[i];
      RecordOutcome& out = outcomes[i];
      if (in_list(denied, record)) continue;  // blacklist is absolute
      binder.bind(record, binding);
      lang::Verdict verdict = requirement.evaluate(binding, scratch);
      if (!verdict.qualified) continue;
      out.qualified = true;
      out.has_rank = verdict.rank.has_value();
      out.rank = verdict.rank.value_or(0.0);
      out.preferred = in_list(preferred, record);
    }
  };
  if (pool_) {
    pool_->parallel_for(input.sys.size(), evaluate_range);
  } else {
    evaluate_range(0, input.sys.size());
  }

  // Stage 2 — serial merge in record order: byte-identical to the thesis's
  // sequential database scan regardless of how stage 1 was scheduled.
  struct Hit {
    std::size_t index;
    double rank;
  };
  std::size_t preferred_count = 0;
  for (const RecordOutcome& out : outcomes) {
    result.qualified += out.qualified;
    preferred_count += out.preferred;
  }
  std::vector<Hit> preferred_hits;
  std::vector<Hit> other_hits;
  preferred_hits.reserve(preferred_count);
  other_hits.reserve(result.qualified - preferred_count);
  bool ranked = false;

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RecordOutcome& out = outcomes[i];
    ++result.evaluated;
    if (!out.qualified) continue;
    if (out.has_rank) ranked = true;
    (out.preferred ? preferred_hits : other_hits).push_back(Hit{i, out.rank});
  }

  // The `rank_by` extension (thesis Ch. 6: "3 servers with largest memory"):
  // order candidates by their per-server rank value, highest first, stably —
  // unranked requirements keep the thesis's report order. Preferred hosts
  // still come first regardless of rank.
  if (ranked) {
    auto by_rank = [](const Hit& a, const Hit& b) { return a.rank > b.rank; };
    std::stable_sort(preferred_hits.begin(), preferred_hits.end(), by_rank);
    std::stable_sort(other_hits.begin(), other_hits.end(), by_rank);
  }

  result.selected.reserve(std::min(count, result.qualified));
  for (const auto* hits : {&preferred_hits, &other_hits}) {
    for (const Hit& hit : *hits) {
      if (result.selected.size() >= count) break;
      const ipc::SysRecord& record = input.sys[hit.index];
      result.selected.push_back(ServerEntry{record.host_str(), record.address_str()});
    }
  }
  return result;
}

}  // namespace smartsock::core
