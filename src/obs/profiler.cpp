#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "obs/span.h"

namespace smartsock::obs {

namespace {

constexpr int kMaxDepth = 64;

struct RawSample {
  std::uint64_t ts_us = 0;  // CLOCK_REALTIME µs
  int depth = 0;
  void* pcs[kMaxDepth];
};

// Sample ring + session state. The buffer is allocated in start() (never in
// the handler); the handler claims slots with one fetch_add and publishes
// them through g_completed's release sequence.
std::unique_ptr<RawSample[]> g_samples;
std::size_t g_capacity = 0;
std::atomic<bool> g_active{false};
std::atomic<std::uint64_t> g_claimed{0};
std::atomic<std::uint64_t> g_completed{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<int> g_inflight{0};

bool g_handler_installed = false;
timer_t g_timer;
bool g_timer_live = false;
ProfilerConfig g_config;
std::mutex g_session_mu;  // serializes start/stop; never touched by the handler

void sigprof_handler(int /*sig*/, siginfo_t* /*info*/, void* /*ucontext*/) {
  int saved_errno = errno;
  g_inflight.fetch_add(1, std::memory_order_relaxed);
  if (g_active.load(std::memory_order_acquire)) {
    std::uint64_t slot = g_claimed.fetch_add(1, std::memory_order_relaxed);
    if (slot < g_capacity) {
      RawSample& sample = g_samples[slot];
      timespec ts{};
      ::clock_gettime(CLOCK_REALTIME, &ts);
      sample.ts_us = static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
                     static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
      sample.depth = ::backtrace(sample.pcs, kMaxDepth);
      g_completed.fetch_add(1, std::memory_order_release);
    } else {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  g_inflight.fetch_sub(1, std::memory_order_relaxed);
  errno = saved_errno;
}

/// Resolves one pc to a display name. `pc - 1` biases return addresses back
/// into the call site's symbol.
std::string symbolize(void* pc) {
  void* lookup = reinterpret_cast<void*>(reinterpret_cast<std::uintptr_t>(pc) - 1);
  Dl_info info{};
  if (::dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
    // Strip parameter lists — flamegraph frames want "ns::Class::method",
    // not the full signature — but keep "operator()" intact.
    std::size_t paren = name.find('(');
    while (paren != std::string::npos && paren >= 8 &&
           name.compare(paren - 8, 8, "operator") == 0) {
      paren = name.find('(', paren + 2);
    }
    if (paren != std::string::npos && paren > 0) name.resize(paren);
    // Semicolons are the folded-stack separator; they cannot appear inside
    // a frame name.
    std::replace(name.begin(), name.end(), ';', ':');
    return name;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%zx", reinterpret_cast<std::size_t>(pc));
  std::string name = buffer;
  if (::dladdr(lookup, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    name += " (";
    name += (base != nullptr ? base + 1 : info.dli_fname);
    name += ")";
  }
  return name;
}

/// Frames [0..n) of a sample start inside the signal delivery machinery:
/// the handler itself plus the kernel trampoline (__restore_rt). Returns the
/// index of the first interrupted-code frame.
int first_real_frame(void* const* pcs, int depth,
                     std::unordered_map<void*, std::string>& cache) {
  int limit = std::min(depth, 6);
  for (int i = 0; i < limit; ++i) {
    auto it = cache.find(pcs[i]);
    if (it == cache.end()) {
      it = cache.emplace(pcs[i], symbolize(pcs[i])).first;
    }
    if (it->second.find("__restore_rt") != std::string::npos ||
        it->second.find("killpg") != std::string::npos) {
      return i + 1;
    }
  }
  // No trampoline symbol visible (static libc, stripped vdso): the handler
  // occupies the first two frames by construction.
  return std::min(depth, 2);
}

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

bool Profiler::running() const { return g_active.load(std::memory_order_acquire); }

bool Profiler::start(const ProfilerConfig& config) {
  std::lock_guard<std::mutex> lock(g_session_mu);
  if (g_active.load(std::memory_order_acquire)) return false;

  if (!g_handler_installed) {
    struct sigaction action{};
    action.sa_sigaction = &sigprof_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    if (::sigaction(SIGPROF, &action, nullptr) != 0) return false;
    g_handler_installed = true;
  }

  // Pre-warm backtrace(): its first call dlopens libgcc_s (which mallocs),
  // which must not happen inside the signal handler.
  {
    void* warm[4];
    (void)::backtrace(warm, 4);
  }

  std::size_t capacity = std::max<std::size_t>(config.max_samples, 16);
  g_samples = std::make_unique<RawSample[]>(capacity);
  g_capacity = capacity;
  g_claimed.store(0, std::memory_order_relaxed);
  g_completed.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_config = config;

  clockid_t clock_id = config.cpu_time ? CLOCK_PROCESS_CPUTIME_ID : CLOCK_MONOTONIC;
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (::timer_create(clock_id, &sev, &g_timer) != 0) {
    g_samples.reset();
    g_capacity = 0;
    return false;
  }
  g_timer_live = true;

  g_active.store(true, std::memory_order_release);

  auto interval_ns =
      std::max<std::int64_t>(std::chrono::nanoseconds(config.interval).count(), 100000);
  itimerspec spec{};
  spec.it_interval.tv_sec = interval_ns / 1000000000;
  spec.it_interval.tv_nsec = interval_ns % 1000000000;
  spec.it_value = spec.it_interval;
  if (::timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    g_active.store(false, std::memory_order_release);
    ::timer_delete(g_timer);
    g_timer_live = false;
    g_samples.reset();
    g_capacity = 0;
    return false;
  }
  return true;
}

ProfileReport Profiler::stop_and_collect() {
  std::lock_guard<std::mutex> lock(g_session_mu);
  ProfileReport report;
  report.interval_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(g_config.interval).count());
  report.cpu_time = g_config.cpu_time;
  if (!g_active.exchange(false, std::memory_order_acq_rel)) return report;

  if (g_timer_live) {
    itimerspec disarm{};
    ::timer_settime(g_timer, 0, &disarm, nullptr);
    ::timer_delete(g_timer);
    g_timer_live = false;
  }
  // Let in-flight handlers (and a last pending signal) drain. They see
  // g_active == false and record nothing, but one may still be mid-sample.
  for (int i = 0; i < 2000 && g_inflight.load(std::memory_order_acquire) > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::uint64_t completed = g_completed.load(std::memory_order_acquire);
  if (completed > g_capacity) completed = g_capacity;
  report.dropped = g_dropped.load(std::memory_order_relaxed);

  std::unordered_map<void*, std::string> symbol_cache;
  std::map<std::string, std::uint32_t> stack_index;
  // The claim counter can outrun the completion counter when a handler was
  // interrupted between claim and publish; only completed slots are dense
  // from 0 (every claimed slot < capacity completes before the handler
  // returns), so [0, completed) is safe to read.
  for (std::uint64_t i = 0; i < completed; ++i) {
    const RawSample& raw = g_samples[i];
    if (raw.depth <= 0) continue;
    int skip = first_real_frame(raw.pcs, raw.depth, symbol_cache);
    if (skip >= raw.depth) continue;
    std::string folded;
    for (int f = raw.depth - 1; f >= skip; --f) {  // root-first
      auto it = symbol_cache.find(raw.pcs[f]);
      if (it == symbol_cache.end()) {
        it = symbol_cache.emplace(raw.pcs[f], symbolize(raw.pcs[f])).first;
      }
      if (!folded.empty()) folded += ';';
      folded += it->second;
    }
    auto [it, inserted] =
        stack_index.emplace(std::move(folded), static_cast<std::uint32_t>(stack_index.size()));
    (void)inserted;
    report.samples.push_back({raw.ts_us, it->second});
    ++report.captured;
  }

  report.stacks.resize(stack_index.size());
  for (const auto& [folded, index] : stack_index) {
    report.stacks[index].folded = folded;
  }
  for (const ProfileReport::Sample& sample : report.samples) {
    ++report.stacks[sample.stack].count;
  }

  g_samples.reset();
  g_capacity = 0;
  return report;
}

ProfileReport Profiler::profile_for(util::Duration duration, const ProfilerConfig& config) {
  if (!start(config)) return {};
  // sleep_for retries on EINTR, so SIGPROF delivery cannot cut it short.
  std::this_thread::sleep_for(duration);
  return stop_and_collect();
}

std::string ProfileReport::to_folded() const {
  // Sorted by count descending (ties by stack text) — flamegraph.pl accepts
  // any order, humans reading the file want the hot stacks first.
  std::vector<const Stack*> order;
  order.reserve(stacks.size());
  for (const Stack& stack : stacks) order.push_back(&stack);
  std::sort(order.begin(), order.end(), [](const Stack* a, const Stack* b) {
    if (a->count != b->count) return a->count > b->count;
    return a->folded < b->folded;
  });
  std::ostringstream out;
  for (const Stack* stack : order) {
    out << stack->folded << " " << stack->count << "\n";
  }
  return out.str();
}

std::string ProfileReport::to_chrome_trace() const {
  std::vector<SpanRecord> spans;
  spans.reserve(samples.size());
  for (const Sample& sample : samples) {
    const std::string& folded = stacks[sample.stack].folded;
    SpanRecord span;
    span.component = "profiler";
    std::size_t leaf = folded.rfind(';');
    span.name = leaf == std::string::npos ? folded : folded.substr(leaf + 1);
    span.start_us = sample.ts_us;
    span.duration_us = interval_us > 0 ? interval_us : 1;
    span.tags.emplace_back("stack", folded);
    spans.push_back(std::move(span));
  }
  return SpanStore::to_stitched_chrome_trace({{"profiler", std::move(spans)}});
}

}  // namespace smartsock::obs
