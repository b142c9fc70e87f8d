// SIGPROF program-counter sampler and its symbolizer.
//
// The process CPU-time interval timer (ITIMER_PROF) delivers SIGPROF to
// whichever thread is on CPU, so the cluster workload's worker threads are
// sampled too; the handler only stores the interrupted PC. After the run
// the benchmark reads its own executable's ELF symbol table, finds the
// function containing each PC, and buckets it by the mangled name's
// namespace: `snacc::<dir>` is the src/ directory of that name
// (`snacc::core` is snacc/, names directly in `snacc` are common/),
// `simbench` is the benchmark itself, and everything else -- libstdc++,
// the allocator, memcpy, libc and the kernel (a PC interrupted in a system
// call sits in libc) -- is `runtime`. Code inlined from headers is
// attributed to the function it was inlined into.
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "bench.hpp"

namespace simbench {
namespace {

constexpr std::array<std::string_view, 14> kModules = {
    "sim",    "pcie", "nvme",  "snacc", "axis",  "mem",   "eth",
    "apps",   "host", "common", "fault", "spdk", "bench", "runtime"};
constexpr int kRuntime = 13;
constexpr int kBench = 12;
constexpr int kCommon = 9;

constexpr std::size_t kMaxSamples = 1u << 21;
constexpr long kIntervalUs = 1000;

std::atomic<std::size_t> g_count{0};
std::uintptr_t* g_pcs = nullptr;
std::atomic<bool> g_live{false};

void on_sigprof(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  const std::uintptr_t pc = 0;
#endif
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = pc;
}

void set_timer(long interval_us) {
  itimerval tv{};
  tv.it_interval.tv_usec = interval_us;
  tv.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

/// Reads `<len><identifier>` from the front of a mangled name.
std::string_view source_name(std::string_view& m) {
  std::size_t len = 0;
  std::size_t i = 0;
  while (i < m.size() && m[i] >= '0' && m[i] <= '9') {
    len = len * 10 + static_cast<std::size_t>(m[i] - '0');
    ++i;
  }
  if (i == 0 || i + len > m.size()) return {};
  const std::string_view id = m.substr(i, len);
  m.remove_prefix(i + len);
  return id;
}

/// Module bucket of an Itanium-mangled function name, from its outermost
/// two namespace components.
int classify(std::string_view m) {
  if (!m.starts_with("_Z")) return kRuntime;
  m.remove_prefix(2);
  while (m.starts_with("Z")) m.remove_prefix(1);  // local entity (lambda)
  if (m.starts_with("L")) m.remove_prefix(1);     // internal linkage
  if (m.starts_with("N")) {
    m.remove_prefix(1);
    while (!m.empty() && std::strchr("rVKRO", m.front()) != nullptr) {
      m.remove_prefix(1);
    }
  }
  const std::string_view first = source_name(m);
  if (first == "simbench") return kBench;
  if (first != "snacc") return kRuntime;
  std::string_view second = source_name(m);
  if (second == "core") second = "snacc";
  for (int i = 0; i < kBench; ++i) {
    if (kModules[static_cast<std::size_t>(i)] == second) return i;
  }
  return kCommon;
}

struct Symbol {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  int module = kRuntime;
};

template <typename T>
T read_at(std::ifstream& f, std::uint64_t off) {
  T v{};
  f.seekg(static_cast<std::streamoff>(off));
  f.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!f) throw std::runtime_error("truncated ELF file");
  return v;
}

/// Function symbols of the running executable at their run-time addresses.
std::vector<Symbol> load_symbols() {
  std::uintptr_t bias = 0;
  // The first object dl_iterate_phdr reports is the main program.
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
        return 1;
      },
      &bias);
  std::ifstream f("/proc/self/exe", std::ios::binary);
  const auto eh = read_at<Elf64_Ehdr>(f, 0);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64) {
    throw std::runtime_error("not a 64-bit ELF executable");
  }
  std::vector<Elf64_Shdr> sections(eh.e_shnum);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    sections[i] = read_at<Elf64_Shdr>(f, eh.e_shoff + i * eh.e_shentsize);
  }
  std::vector<Symbol> syms;
  for (const Elf64_Shdr& sh : sections) {
    if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) continue;
    const Elf64_Shdr& strtab = sections[sh.sh_link];
    std::string names(strtab.sh_size, '\0');
    f.seekg(static_cast<std::streamoff>(strtab.sh_offset));
    f.read(names.data(), static_cast<std::streamsize>(names.size()));
    std::vector<Elf64_Sym> table(sh.sh_size / sizeof(Elf64_Sym));
    f.seekg(static_cast<std::streamoff>(sh.sh_offset));
    f.read(reinterpret_cast<char*>(table.data()),
           static_cast<std::streamsize>(table.size() * sizeof(Elf64_Sym)));
    if (!f) throw std::runtime_error("truncated ELF symbol table");
    for (const Elf64_Sym& s : table) {
      if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0 ||
          s.st_name >= names.size()) {
        continue;
      }
      const std::uintptr_t lo = bias + s.st_value;
      syms.push_back({lo, lo + std::max<std::uint64_t>(s.st_size, 1),
                      classify(names.c_str() + s.st_name)});
    }
  }
  if (syms.empty()) throw std::runtime_error("executable has no symbol table");
  std::sort(syms.begin(), syms.end(),
            [](const Symbol& a, const Symbol& b) { return a.lo < b.lo; });
  return syms;
}

}  // namespace

Profiler::Profiler() {
  if (g_live.exchange(true)) throw std::logic_error("one Profiler at a time");
  g_pcs = new std::uintptr_t[kMaxSamples];
  g_count.store(0);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
}

Profiler::~Profiler() {
  pause();
  signal(SIGPROF, SIG_IGN);
  delete[] g_pcs;
  g_pcs = nullptr;
  g_live.store(false);
}

void Profiler::resume() { set_timer(kIntervalUs); }
void Profiler::pause() { set_timer(0); }

std::uint64_t Profiler::samples() const {
  return std::min(g_count.load(), kMaxSamples);
}

std::vector<Metric> Profiler::self_shares() const {
  const std::vector<Symbol> syms = load_symbols();
  std::array<std::uint64_t, kModules.size()> hits{};
  const std::uint64_t n = samples();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uintptr_t pc = g_pcs[i];
    auto it = std::upper_bound(
        syms.begin(), syms.end(), pc,
        [](std::uintptr_t v, const Symbol& s) { return v < s.lo; });
    int module = kRuntime;
    if (it != syms.begin() && pc < std::prev(it)->hi) module = std::prev(it)->module;
    ++hits[static_cast<std::size_t>(module)];
  }
  std::vector<Metric> out;
  for (std::size_t i = 0; i < kModules.size(); ++i) {
    const double share =
        n == 0 ? 0.0 : 100.0 * static_cast<double>(hits[i]) / static_cast<double>(n);
    out.push_back({std::string(kModules[i]) + ".self_share", share, "%"});
  }
  return out;
}

}  // namespace simbench
