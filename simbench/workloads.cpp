// The benchmark's four workloads. README.md says why each was chosen and
// which per-layer counter should move which end-to-end metric on it.
//
// Every workload drives the simulator only through the public APIs of
// host/, snacc/, apps/ and sim/, checks its own outputs (each failed check
// is a failed operation), and folds every simulated statistic into the
// repetition's digest.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "apps/case_study.hpp"
#include "apps/kv_store.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "eth/mac.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "sim/cluster.hpp"
#include "snacc/pe_client.hpp"

namespace simbench {
namespace {

using namespace snacc;

constexpr std::uint64_t kIo = 4 * KiB;

double dev_pct(double measured, double paper) {
  return std::fabs(measured - paper) / paper * 100.0;
}

double p_us(LatencyStats& s, double p) { return to_us(s.percentile(p)); }

// -- Testbeds ----------------------------------------------------------------

/// One node: host + PCIe fabric + SSD + SNAcc card, booted.
struct Bed {
  std::unique_ptr<host::System> sys;
  std::unique_ptr<host::SnaccDevice> dev;
  std::unique_ptr<core::PeClient> pe;  // null when init failed
};

sim::Task boot_device(host::SnaccDevice* dev, bool* booted) {
  co_await dev->init();
  *booted = true;
}

/// Constructs and boots a testbed with the SSD in its fast program mode (the
/// mode every paper-referenced result here is quoted for). On `domain`
/// when given (a cluster node), else on the System's own domain.
Bed boot_bed(core::Variant variant, sim::Domain* domain = nullptr,
             host::SystemConfig sys_cfg = {}) {
  Bed bed;
  bed.sys = domain != nullptr ? std::make_unique<host::System>(*domain, sys_cfg)
                              : std::make_unique<host::System>(sys_cfg);
  host::SnaccDeviceConfig cfg;
  cfg.streamer.variant = variant;
  bed.dev = std::make_unique<host::SnaccDevice>(*bed.sys, cfg);
  bed.sys->ssd().nand().force_mode(true);
  bool booted = false;
  bed.sys->sim().spawn(boot_device(bed.dev.get(), &booted));
  bed.sys->sim().run_until(seconds(1));
  if (booted) bed.pe = std::make_unique<core::PeClient>(bed.dev->streamer());
  return bed;
}

std::uint64_t fault_events(const Bed& bed) {
  const FaultStats f = bed.dev->fault_stats();
  return f.injected() + f.ssd_error_cqes + f.ssd_power_cycles +
         f.ssd_lost_cache_blocks + f.ssd_suppressed_cqes + f.streamer_errors +
         f.retries + f.recovered + f.quarantined + f.watchdog_timeouts +
         f.stale_completions + bed.sys->fabric().unmapped_errors();
}

template <typename F>
double timed(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return seconds_since(t0);
}

/// Host seconds per construction and boot of `boot()`'s testbed, averaged
/// over back-to-back boots until `budget_s` is spent. One boot takes
/// 0.01-0.1 ms, too short to time on its own. Teardown is not timed.
template <typename Boot>
double mean_boot_s(double budget_s, Boot boot) {
  double total = 0;
  int n = 0;
  for (; n == 0 || total < budget_s; ++n) {
    decltype(boot()) bed;
    total += timed([&] { bed = boot(); });
  }
  return total / n;
}

/// Per-layer counters of the testbeds a workload ran on, summed.
struct LayerCounters {
  std::uint64_t events = 0;
  std::uint64_t pcie_bytes = 0;
  std::uint64_t unmapped = 0;
  std::uint64_t nvme_commands = 0;
  std::uint64_t nand_pages_read = 0;
  std::uint64_t nand_bytes_ingested = 0;
  std::uint64_t flushes = 0;
  std::uint64_t error_cqes = 0;
  std::uint64_t submitted = 0;
  std::uint64_t retired = 0;
  std::uint64_t retries = 0;
  std::uint64_t stale = 0;
  std::uint64_t media_written = 0;
  std::uint64_t media_read = 0;
  std::uint64_t media_pages = 0;

  void add(Bed& bed) {
    pcie::Fabric& fab = bed.sys->fabric();
    nvme::Ssd& ssd = bed.sys->ssd();
    core::NvmeStreamer& st = bed.dev->streamer();
    pcie_bytes += fab.total_bytes();
    unmapped += fab.unmapped_errors();
    nvme_commands += ssd.commands_completed();
    nand_pages_read += ssd.nand().pages_read();
    nand_bytes_ingested += ssd.nand().bytes_ingested();
    flushes += ssd.flushes_completed();
    error_cqes += ssd.error_cqes();
    submitted += st.commands_submitted();
    retired += st.commands_retired();
    retries += st.retries();
    stale += st.stale_completions();
    media_written += ssd.media().bytes_written();
    media_read += ssd.media().bytes_read();
    media_pages += ssd.media().resident_pages();
  }

  /// Emits the counters; `payload` is the user bytes moved, `sim_s` the
  /// simulated span.
  void emit(RepResult* r, double payload, double sim_s) const {
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    r->counters.insert(
        r->counters.end(),
        {{"sim.events", u(events), "count"},
         {"sim.sim_s", sim_s, "s"},
         {"pcie.bytes", u(pcie_bytes), "B"},
         {"pcie.bytes_per_payload", payload > 0 ? u(pcie_bytes) / payload : 0,
          "B/B"},
         {"pcie.unmapped_errors", u(unmapped), "count"},
         {"nvme.commands", u(nvme_commands), "count"},
         {"nvme.nand_pages_read", u(nand_pages_read), "count"},
         {"nvme.nand_bytes_ingested", u(nand_bytes_ingested), "B"},
         {"nvme.flushes", u(flushes), "count"},
         {"nvme.error_cqes", u(error_cqes), "count"},
         {"snacc.commands_submitted", u(submitted), "count"},
         {"snacc.commands_retired", u(retired), "count"},
         {"snacc.retries", u(retries), "count"},
         {"snacc.stale_completions", u(stale), "count"},
         {"mem.media_bytes_written", u(media_written), "B"},
         {"mem.media_bytes_read", u(media_read), "B"},
         {"mem.media_resident_pages", u(media_pages), "count"}});
  }

  void digest(Digest* d) const {
    for (std::uint64_t v :
         {events, pcie_bytes, unmapped, nvme_commands, nand_pages_read,
          nand_bytes_ingested, flushes, error_cqes, submitted, retired, retries,
          stale, media_written, media_read, media_pages}) {
      d->add(v);
    }
  }
};

// -- ingest: the Fig. 6 case study, host-DRAM variant -------------------------

constexpr std::uint32_t kImages = 512;
constexpr double kPaperFig6HostDramGbS = 6.1;

host::SystemConfig case_study_system() {
  host::SystemConfig cfg;
  cfg.host_memory_bytes = 2 * GiB;  // as run_snacc_case_study configures it
  return cfg;
}

// run_snacc_case_study boots its testbed internally; setup_s times
// stand-alone boots of the same host-DRAM testbed.
double ingest_setup_s(double budget_s) {
  return mean_boot_s(budget_s, [] {
    return boot_bed(core::Variant::kHostDram, nullptr, case_study_system());
  });
}

RepResult run_ingest(const RunOptions& o) {
  RepResult r;
  apps::ImageStreamConfig cfg;
  cfg.count = static_cast<std::uint32_t>(o.scaled(kImages));
  cfg.seed = o.seed;
  cfg.real_data = false;

  Span span(o.profiler);
  span.start();
  const apps::CaseStudyResult res =
      apps::run_snacc_case_study(core::Variant::kHostDram, cfg);
  const std::uint64_t expected_stored =
      apps::DbRecord::padded_bytes(cfg.bytes_per_image()) * cfg.count;
  r.ops = cfg.count + 1;
  if (!res.ok) {
    r.ops_failed = r.ops;
  } else {
    r.ops_failed = (cfg.count - std::min<std::uint64_t>(res.images, cfg.count)) +
                   (res.bytes_stored != expected_stored ? 1 : 0);
  }
  span.stop();
  r.wall_s = span.wall_s();
  r.cpu_s = span.cpu_s();
  r.paper_dev_pct = dev_pct(res.bandwidth_gb_s(), kPaperFig6HostDramGbS);

  const double sim_s = to_s(res.elapsed);
  r.span_sim_s = sim_s;
  const double payload = static_cast<double>(res.bytes_ingested);
  // The case study's System is internal: its event count and the device
  // counters are not observable, so they stay 0 here.
  r.counters = {
      {"sim.sim_s", sim_s, "s"},
      {"pcie.bytes", static_cast<double>(res.pcie_total_bytes), "B"},
      {"pcie.bytes_per_payload",
       payload > 0 ? static_cast<double>(res.pcie_total_bytes) / payload : 0,
       "B/B"},
      {"eth.pause_frames", static_cast<double>(res.pause_frames), "count"},
      {"apps.fps", res.fps(), "1/s"},
  };

  Digest d;
  d.add(res.elapsed.value());
  d.add(res.images);
  d.add(res.bytes_ingested);
  d.add(res.bytes_stored);
  d.add(res.pause_frames);
  d.add(res.pcie_total_bytes);
  for (const apps::PcieTraffic& p : res.pcie_paths) d.add(p.bytes);
  r.digest = d.value();
  return r;
}

// -- rand_rw: Fig. 4b random 4 kB reads, then writes, QD 64, URAM -------------

constexpr std::uint64_t kRandCommands = 131072;
constexpr std::uint64_t kRegionBlocks = 4u << 20;  // 16 GiB window, as Fig. 4b
constexpr double kPaperFig4bReadGbS = 1.6;
constexpr double kPaperFig4bUramWriteGbS = 4.6;

struct RandRw {
  core::PeClient* pe = nullptr;
  sim::Simulator* sim = nullptr;
  std::uint64_t commands = 0;
  std::uint64_t seed = 0;
  bool trace_reads = false;
  std::deque<TimePs> issued;  // in-order retirement: FIFO matches responses
  LatencyStats read_latency{LatencyStats::Mode::kExact};
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_bad = 0;
  std::uint64_t writes_ok = 0;
  std::uint64_t writes_bad = 0;
  TimePs t0;
  TimePs t1;
  TimePs t2;
};

sim::Task issue_reads(RandRw* w) {
  Xoshiro256 rng(w->seed * 2 + 1);
  for (std::uint64_t i = 0; i < w->commands; ++i) {
    const std::uint64_t lba = rng.below(kRegionBlocks);
    w->issued.push_back(w->sim->now());
    co_await w->pe->start_read(Bytes{lba * kIo}, Bytes{kIo});
  }
}

sim::Task issue_writes(RandRw* w) {
  Xoshiro256 rng(w->seed * 2 + 2);
  for (std::uint64_t i = 0; i < w->commands; ++i) {
    const std::uint64_t lba = rng.below(kRegionBlocks);
    co_await w->pe->start_write(Bytes{lba * kIo}, Payload::phantom(kIo),
                                Bytes{kIo});
  }
}

sim::Task rand_rw_main(RandRw* w) {
  w->t0 = w->sim->now();
  w->sim->spawn(issue_reads(w));
  for (std::uint64_t i = 0; i < w->commands; ++i) {
    bool err = false;
    co_await w->pe->collect_read(nullptr, &err);
    w->read_latency.add(w->sim->now() - w->issued.front());
    w->issued.pop_front();
    ++(err ? w->reads_bad : w->reads_ok);
  }
  w->t1 = w->sim->now();
  if (w->trace_reads) w->sim->tracer().disable();
  w->sim->spawn(issue_writes(w));
  for (std::uint64_t i = 0; i < w->commands; ++i) {
    bool err = false;
    co_await w->pe->wait_write_response(&err);
    ++(err ? w->writes_bad : w->writes_ok);
  }
  w->t2 = w->sim->now();
}

/// Simulated stage split of the traced reads, from the Tracer's
/// submit -> sqe-fetched -> cqe-posted -> retire events. CIDs are ROB slots
/// and are reused, so each is mapped to its latest submission; retirement is
/// in order, so the k-th retire belongs to the k-th submission.
std::vector<Metric> read_stage_split(const sim::Tracer& tracer,
                                     std::uint64_t expected, bool* complete) {
  struct Stamps {
    TimePs submit;
    TimePs fetch;
    TimePs cqe;
  };
  std::vector<Stamps> cmds;
  cmds.reserve(expected);
  std::unordered_map<std::uint64_t, std::size_t> latest;
  LatencyStats to_fetch{LatencyStats::Mode::kExact};
  LatencyStats to_cqe{LatencyStats::Mode::kExact};
  LatencyStats to_retire{LatencyStats::Mode::kExact};
  std::size_t retired = 0;
  for (const sim::TraceEvent& e : tracer.events()) {
    const std::string_view label = e.label;
    if (label == "submit-read") {
      latest[e.a] = cmds.size();
      cmds.push_back({e.t, TimePs{}, TimePs{}});
    } else if (label == "sqe-fetched" && latest.contains(e.b)) {
      cmds[latest[e.b]].fetch = e.t;
    } else if (label == "cqe-posted" && latest.contains(e.a)) {
      cmds[latest[e.a]].cqe = e.t;
    } else if (label == "retire-read" && retired < cmds.size()) {
      const Stamps& s = cmds[retired++];
      to_fetch.add(s.fetch - s.submit);
      to_cqe.add(s.cqe - s.fetch);
      to_retire.add(e.t - s.cqe);
    }
  }
  *complete = tracer.dropped() == 0 && retired == expected;
  return {
      {"snacc.submit_to_fetch_us.p50", p_us(to_fetch, 50), "us"},
      {"snacc.submit_to_fetch_us.p99", p_us(to_fetch, 99), "us"},
      {"nvme.fetch_to_cqe_us.p50", p_us(to_cqe, 50), "us"},
      {"nvme.fetch_to_cqe_us.p99", p_us(to_cqe, 99), "us"},
      {"snacc.cqe_to_retire_us.p50", p_us(to_retire, 50), "us"},
      {"snacc.cqe_to_retire_us.p99", p_us(to_retire, 99), "us"},
  };
}

double rand_rw_setup_s(double budget_s) {
  return mean_boot_s(budget_s, [] { return boot_bed(core::Variant::kUram); });
}

RepResult run_rand_rw(const RunOptions& o) {
  RepResult r;
  Bed bed = boot_bed(core::Variant::kUram);
  RandRw w;
  w.commands = o.scaled(kRandCommands);
  w.seed = o.seed;
  w.trace_reads = o.traced;
  r.ops = 2 * w.commands + 1;
  if (!bed.pe) {
    r.ops_failed = r.ops;
    return r;
  }
  w.pe = bed.pe.get();
  w.sim = &bed.sys->sim();
  if (o.traced) {
    w.sim->tracer().enable(
        sim::TraceCat::kStreamerCmd | sim::TraceCat::kNvmeSubmit |
            sim::TraceCat::kNvmeComplete | sim::TraceCat::kStreamerRetire,
        4 * w.commands + 64);
  }
  const std::uint64_t events0 = w.sim->events_processed();

  Span span(o.profiler);
  span.start();
  w.sim->spawn(rand_rw_main(&w));
  w.sim->run_until(w.sim->now() + seconds(30));
  const std::uint64_t faults = fault_events(bed);
  r.ops_failed = (w.commands - w.reads_ok - w.reads_bad) + w.reads_bad +
                 (w.commands - w.writes_ok - w.writes_bad) + w.writes_bad +
                 (faults != 0 ? 1 : 0);
  span.stop();
  r.wall_s = span.wall_s();
  r.cpu_s = span.cpu_s();

  const double bytes = static_cast<double>(w.commands * kIo);
  const bool finished = w.writes_ok + w.writes_bad == w.commands;
  const double read_gb_s = finished ? gb_per_s(w.commands * kIo, w.t1 - w.t0) : 0;
  const double write_gb_s = finished ? gb_per_s(w.commands * kIo, w.t2 - w.t1) : 0;
  r.paper_dev_pct = std::max(dev_pct(read_gb_s, kPaperFig4bReadGbS),
                             dev_pct(write_gb_s, kPaperFig4bUramWriteGbS));

  LayerCounters c;
  c.add(bed);
  c.events = w.sim->events_processed() - events0;
  c.emit(&r, 2 * bytes, to_s(w.t2 - w.t0));
  r.span_events = static_cast<double>(c.events);
  r.span_sim_s = to_s(w.t2 - w.t0);
  const double lat50 = p_us(w.read_latency, 50);
  const double lat99 = p_us(w.read_latency, 99);
  r.counters.push_back({"snacc.read_latency_us.p50", lat50, "us"});
  r.counters.push_back({"snacc.read_latency_us.p99", lat99, "us"});
  if (o.traced) {
    bool complete = false;
    r.traced = read_stage_split(w.sim->tracer(), w.commands, &complete);
    if (!complete) ++r.ops_failed;  // a trace that lost events is unusable
  }

  Digest d;
  d.add((w.t1 - w.t0).value());
  d.add((w.t2 - w.t1).value());
  d.add(lat50);
  d.add(lat99);
  c.digest(&d);
  r.digest = d.value();
  return r;
}

// -- kv_real: KvStore with real payloads, on-board DRAM variant ----------------

constexpr std::uint64_t kKvPuts = 6000;
constexpr std::uint64_t kCommitEvery = 16;
constexpr std::uint64_t kMinValue = 512;
constexpr std::uint64_t kMaxValue = 64 * KiB;
constexpr std::uint64_t kKvRegion = 1 * GiB;
// A timed repetition fills the store to paper scale untimed, then times
// this many slices of puts and gets against the full store. At the timed
// scale (1/125) a slice is 48 puts, three whole commit groups.
constexpr int kKvSlices = 16;
// Fig. 4c idle-latency probe on a testbed of its own: the on-board DRAM
// variant's single 4 kB read (paper: 41 us), isolated accesses 300 us apart.
constexpr int kLatencyProbes = 16;
constexpr double kPaperFig4cOnboardReadUs = 41.0;

std::string kv_key(std::uint64_t seed, std::uint64_t i) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "kv/%016llx/%06llu",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(i));
  return buf;
}

// Value sizes are stratified so that every commit group, and every slice,
// stores and reads about the same number of bytes whatever the seed: the
// puts of a group take one size from each of kSizeBands equal bands over
// [kMinValue, kMaxValue], in seeded order.
constexpr std::uint64_t kSizeBands = kCommitEvery;
constexpr std::uint64_t kBandWidth = (kMaxValue - kMinValue + 1) / kSizeBands;

/// Size band of the i-th value.
std::uint64_t kv_band(std::uint64_t seed, std::uint64_t i) {
  std::array<std::uint64_t, kSizeBands> perm;
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  Xoshiro256 rng(seed * 0xD1B54A32D192ED03ull + i / kSizeBands);
  for (std::uint64_t j = kSizeBands; j > 1; --j) {
    std::swap(perm[j - 1], perm[rng.below(j)]);
  }
  return perm[i % kSizeBands];
}

/// The i-th value, regenerated from the seed whenever it is needed.
std::vector<std::byte> kv_value(std::uint64_t seed, std::uint64_t i) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + i);
  std::vector<std::byte> v(kMinValue + kv_band(seed, i) * kBandWidth +
                           rng.below(kBandWidth));
  for (std::size_t off = 0; off < v.size(); off += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(v.data() + off, &word, std::min<std::size_t>(8, v.size() - off));
  }
  return v;
}

sim::Task latency_probe(core::PeClient* pe, sim::Simulator* sim,
                        std::uint64_t seed, LatencyStats* probe, bool* done) {
  Xoshiro256 rng(seed ^ 0x4c41544eull);
  for (int i = 0; i < kLatencyProbes; ++i) {
    const Bytes addr{rng.below(kRegionBlocks) * kIo};
    co_await pe->write(addr, Payload::phantom(kIo), Bytes{kIo});
    const TimePs t = sim->now();
    co_await pe->read(addr, Bytes{kIo}, nullptr);
    probe->add(sim->now() - t);
    co_await sim->delay(us(300));
  }
  *done = true;
}

struct KvRun {
  apps::KvStore* store = nullptr;
  std::uint64_t seed = 0;
  bool corrupt = false;
  std::uint64_t stored = 0;  // keys 0 .. stored-1 have been put
  std::array<std::vector<std::uint64_t>, kSizeBands> by_band;  // stored keys
  Xoshiro256 order{0};  // get order
  LatencyStats put_latency{LatencyStats::Mode::kExact};
  LatencyStats get_latency{LatencyStats::Mode::kExact};
  std::uint64_t bytes_put = 0;
  std::uint64_t bytes_got = 0;
  std::uint64_t failed = 0;
  bool done = false;
};

std::uint64_t kv_ops(std::uint64_t puts, std::uint64_t gets) {
  return puts + (puts + kCommitEvery - 1) / kCommitEvery + gets;
}

/// Puts `puts` new keys with a group commit every kCommitEvery puts and
/// after the last, then gets `gets` distinct stored keys in seeded order and
/// compares each with its value regenerated from the seed. Every run of
/// kSizeBands gets takes one key from each size band.
sim::Task kv_phase(KvRun* k, sim::Simulator* sim, std::uint64_t puts,
                   std::uint64_t gets) {
  for (std::uint64_t n = 0; n < puts; ++n) {
    const std::uint64_t i = k->stored++;
    k->by_band[kv_band(k->seed, i)].push_back(i);
    std::vector<std::byte> value = kv_value(k->seed, i);
    k->bytes_put += value.size();
    apps::PutStatus st = apps::PutStatus::kIoError;
    const TimePs t = sim->now();
    co_await k->store->put(kv_key(k->seed, i), Payload::bytes(std::move(value)),
                           &st);
    k->put_latency.add(sim->now() - t);
    if (st != apps::PutStatus::kOk) ++k->failed;
    if ((n + 1) % kCommitEvery == 0 || n + 1 == puts) {
      bool ok = false;
      co_await k->store->commit(&ok);
      if (!ok) ++k->failed;
    }
  }
  std::array<std::uint64_t, kSizeBands> bands;
  std::array<std::size_t, kSizeBands> taken{};
  for (std::uint64_t n = 0; n < gets; ++n) {
    if (n % kSizeBands == 0) {
      std::iota(bands.begin(), bands.end(), std::uint64_t{0});
      for (std::uint64_t j = kSizeBands; j > 1; --j) {
        std::swap(bands[j - 1], bands[k->order.below(j)]);
      }
    }
    // A band runs dry only when a reduced-size store holds a partial group.
    std::uint64_t b = bands[n % kSizeBands];
    while (taken[b] == k->by_band[b].size()) b = (b + 1) % kSizeBands;
    std::vector<std::uint64_t>& pool = k->by_band[b];
    std::swap(pool[taken[b]],
              pool[taken[b] + k->order.below(pool.size() - taken[b])]);
    const std::uint64_t i = pool[taken[b]++];
    Payload out;
    bool found = false;
    const TimePs t = sim->now();
    co_await k->store->get(kv_key(k->seed, i), &out, &found);
    k->get_latency.add(sim->now() - t);
    std::vector<std::byte> expected = kv_value(k->seed, i);
    if (k->corrupt) {
      expected[0] ^= std::byte{0xff};
      k->corrupt = false;
    }
    k->bytes_got += out.size();
    const bool same = found && out.has_data() &&
                      out.size() == expected.size() &&
                      std::memcmp(out.view().data(), expected.data(),
                                  expected.size()) == 0;
    if (!same) ++k->failed;
  }
  k->done = true;
}

double kv_real_setup_s(double budget_s) {
  return mean_boot_s(budget_s, [] { return boot_bed(core::Variant::kOnboardDram); });
}

RepResult run_kv_real(const RunOptions& o) {
  RepResult r;
  Bed bed = boot_bed(core::Variant::kOnboardDram);
  if (!bed.pe) {
    r.ops = r.ops_failed = 1;
    return r;
  }
  sim::Simulator& sim = bed.sys->sim();
  apps::KvStore store(bed.dev->streamer(), Bytes{0}, Bytes{kKvRegion});
  KvRun k;
  k.store = &store;
  k.seed = o.seed;
  k.corrupt = o.corrupt_kv;
  k.order = Xoshiro256(o.seed ^ 0x6f726465ull);
  // Runs one phase to its end; a phase that stalls fails all its operations.
  auto phase = [&](std::uint64_t puts, std::uint64_t gets) {
    const std::uint64_t ops = kv_ops(puts, gets);
    r.ops += ops;
    k.done = false;
    sim.spawn(kv_phase(&k, &sim, puts, gets));
    if (!sim.run_while([&] { return !k.done; })) k.failed += ops;
  };

  // The paper-scale repetition times one span: its puts into an empty store,
  // then a get of every key. A timed repetition first fills the store to
  // paper scale, untimed, and then times kKvSlices slices against it, each
  // `n` new puts and `n` gets over every stored key.
  const std::uint64_t n = o.scaled(kKvPuts);
  if (!o.paper()) phase(o.paper_scaled(kKvPuts), 0);
  const std::uint64_t events0 = sim.events_processed();
  const TimePs t0 = sim.now();
  Digest d;
  r.wall_s = r.cpu_s = INFINITY;
  for (int s = 0; s < (o.paper() ? 1 : kKvSlices); ++s) {
    const std::uint64_t slice_events0 = sim.events_processed();
    const TimePs slice_t0 = sim.now();
    Span span(o.profiler);
    span.start();
    phase(n, n);
    span.stop();
    const std::uint64_t events = sim.events_processed() - slice_events0;
    const TimePs slice_sim = sim.now() - slice_t0;
    if (span.wall_s() < r.wall_s) {
      r.wall_s = span.wall_s();
      r.span_events = static_cast<double>(events);
      r.span_sim_s = to_s(slice_sim);
    }
    r.cpu_s = std::min(r.cpu_s, span.cpu_s());
    d.add(events);
    d.add(slice_sim.value());
  }
  r.ops += 1;  // fault counters
  r.ops_failed = std::min(r.ops, k.failed + (fault_events(bed) != 0 ? 1 : 0));

  if (o.paper()) {
    Bed probe_bed = boot_bed(core::Variant::kOnboardDram);
    LatencyStats probe{LatencyStats::Mode::kExact};
    bool probed = false;
    ++r.ops;
    if (probe_bed.pe) {
      probe_bed.sys->sim().spawn(latency_probe(
          probe_bed.pe.get(), &probe_bed.sys->sim(), o.seed, &probe, &probed));
      probe_bed.sys->sim().run_while([&] { return !probed; });
    }
    if (!probed || fault_events(probe_bed) != 0) ++r.ops_failed;
    r.paper_dev_pct = dev_pct(probe.mean_us(), kPaperFig4cOnboardReadUs);
    d.add(probe.mean_us());
  }

  LayerCounters c;
  c.add(bed);
  c.events = sim.events_processed() - events0;
  const TimePs sim_span = sim.now() - t0;
  c.emit(&r, static_cast<double>(k.bytes_put + k.bytes_got), to_s(sim_span));
  const double put50 = p_us(k.put_latency, 50);
  const double put99 = p_us(k.put_latency, 99);
  const double get50 = p_us(k.get_latency, 50);
  const double get99 = p_us(k.get_latency, 99);
  r.counters.insert(r.counters.end(),
                    {{"apps.kv.put_us.p50", put50, "us"},
                     {"apps.kv.put_us.p99", put99, "us"},
                     {"apps.kv.get_us.p50", get50, "us"},
                     {"apps.kv.get_us.p99", get99, "us"},
                     {"apps.kv.commits", static_cast<double>(store.commits()),
                      "count"}});

  d.add(k.bytes_put);
  d.add(k.bytes_got);
  d.add(store.commits());
  for (double v : {put50, put99, get50, get99}) d.add(v);
  c.digest(&d);
  r.digest = d.value();
  return r;
}

// -- cluster4: four URAM nodes on a 4-domain SimCluster ------------------------

constexpr std::uint32_t kNodes = 4;
// One worker runs the same four-domain schedule inline: every lookahead
// window still merges mailboxes and plans the next window. With two
// workers, barrier wake-ups on a shared VM decided the time (0.06-0.29 s
// per timed repetition against 0.04 s on one), so it could not be timed.
constexpr unsigned kWorkerThreads = 1;
constexpr std::uint64_t kNodeBytes = 256 * MiB;
constexpr int kHeartbeats = 200;
constexpr double kPaperFig4aUramWriteFastGbS = 5.60;
constexpr double kPaperFig4aReadGbS = 6.9;

struct Node {
  Bed bed;
  std::uint64_t bytes = 0;
  TimePs t0;
  TimePs t1;
  TimePs t2;
  bool write_error = true;
  bool read_error = true;
  bool done = false;
};

/// A cross-domain Ethernet link from node i to node i+1. `received` is
/// only touched by the receiving domain's thread.
struct Link {
  std::unique_ptr<eth::Wire> fwd;
  std::unique_ptr<eth::Wire> rev;
  std::unique_ptr<eth::Mac> tx;
  std::unique_ptr<eth::Mac> rx;
  std::uint64_t received = 0;
};

struct ClusterBed {
  std::unique_ptr<sim::SimCluster> cluster;
  std::vector<Node> nodes;
  std::vector<Link> links;
  bool booted = false;
};

ClusterBed boot_cluster() {
  ClusterBed cb;
  cb.cluster = std::make_unique<sim::SimCluster>(kNodes, kWorkerThreads);
  cb.nodes.resize(kNodes);
  cb.booted = true;
  // Each node boots on its own clock before any cross-domain traffic
  // exists, which leaves every domain clock at exactly 1 s.
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    cb.nodes[i].bed = boot_bed(core::Variant::kUram, &cb.cluster->domain(i));
    cb.booted = cb.booted && cb.nodes[i].bed.pe != nullptr;
  }
  const EthProfile eth_profile;
  cb.links.resize(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    sim::Domain& a = cb.cluster->domain(i);
    sim::Domain& b = cb.cluster->domain((i + 1) % kNodes);
    Link& l = cb.links[i];
    l.fwd = std::make_unique<eth::Wire>(a, b, eth_profile);
    l.rev = std::make_unique<eth::Wire>(b, a, eth_profile);
    l.tx = std::make_unique<eth::Mac>(a, eth_profile, *l.fwd, *l.rev, "hb-tx");
    l.rx = std::make_unique<eth::Mac>(b, eth_profile, *l.rev, *l.fwd, "hb-rx");
    l.tx->start();
    l.rx->start();
  }
  return cb;
}

sim::Task node_seq_rw(Node* n, sim::Simulator* sim) {
  n->t0 = sim->now();
  co_await n->bed.pe->write(Bytes{0}, Payload::phantom(n->bytes),
                            Bytes{16 * KiB}, &n->write_error);
  n->t1 = sim->now();
  co_await n->bed.pe->read(Bytes{0}, Bytes{n->bytes}, nullptr, &n->read_error);
  n->t2 = sim->now();
  n->done = true;
}

sim::Task heartbeat_tx(eth::Mac* mac, sim::Simulator* sim) {
  for (int i = 0; i < kHeartbeats; ++i) {
    co_await sim->delay(us(50));
    co_await mac->send(eth::Frame(Payload::phantom(64), 0, 0, false));
  }
  mac->close_tx();
}

sim::Task heartbeat_rx(eth::Mac* mac, std::uint64_t* received) {
  for (;;) {
    std::optional<eth::Frame> f;
    co_await mac->recv_accounted(&f);
    if (!f) co_return;
    ++*received;
  }
}

double cluster4_setup_s(double budget_s) { return mean_boot_s(budget_s, boot_cluster); }

RepResult run_cluster4(const RunOptions& o) {
  RepResult r;
  ClusterBed cb = boot_cluster();
  r.ops = kNodes * 3 + kNodes;  // write, read, fault check; one per link
  if (!cb.booted) {
    r.ops_failed = r.ops;
    return r;
  }
  sim::SimCluster& cluster = *cb.cluster;
  std::vector<std::uint64_t> events0(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    events0[i] = cluster.domain(i).events_processed();
  }

  Span span(o.profiler);
  span.start();
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    sim::Domain& a = cluster.domain(i);
    sim::Domain& b = cluster.domain((i + 1) % kNodes);
    a.spawn(heartbeat_tx(cb.links[i].tx.get(), &a));
    b.spawn(heartbeat_rx(cb.links[i].rx.get(), &cb.links[i].received));
    cb.nodes[i].bytes = o.scaled(kNodeBytes / MiB) * MiB;
    a.spawn(node_seq_rw(&cb.nodes[i], &a));
  }
  cluster.run_until(seconds(11));
  for (Node& n : cb.nodes) {
    r.ops_failed += !n.done || n.write_error ? 1 : 0;
    r.ops_failed += !n.done || n.read_error ? 1 : 0;
    r.ops_failed += fault_events(n.bed) != 0 ? 1 : 0;
  }
  for (const Link& l : cb.links) {
    r.ops_failed += l.received != kHeartbeats ? 1 : 0;
  }
  span.stop();
  r.wall_s = span.wall_s();
  r.cpu_s = span.cpu_s();

  LayerCounters c;
  Digest d;
  double sim_s = 0;
  std::uint64_t max_events = 0;
  std::uint64_t heartbeats = 0;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    Node& n = cb.nodes[i];
    c.add(n.bed);
    const std::uint64_t ev = cluster.domain(i).events_processed() - events0[i];
    c.events += ev;
    max_events = std::max(max_events, ev);
    sim_s = std::max(sim_s, to_s(n.t2 - n.t0));
    const double w = n.done ? gb_per_s(n.bytes, n.t1 - n.t0) : 0;
    const double rd = n.done ? gb_per_s(n.bytes, n.t2 - n.t1) : 0;
    r.paper_dev_pct = std::max({r.paper_dev_pct,
                                dev_pct(w, kPaperFig4aUramWriteFastGbS),
                                dev_pct(rd, kPaperFig4aReadGbS)});
    d.add((n.t1 - n.t0).value());
    d.add((n.t2 - n.t1).value());
    d.add(ev);
    d.add(cb.links[i].received);
    heartbeats += cb.links[i].received;
  }
  c.emit(&r, 2.0 * kNodes * static_cast<double>(cb.nodes[0].bytes), sim_s);
  r.span_events = static_cast<double>(c.events);
  r.span_sim_s = sim_s;
  const double mean_events = static_cast<double>(c.events) / kNodes;
  r.counters.insert(
      r.counters.end(),
      {{"sim.cluster.imbalance",
        mean_events > 0 ? static_cast<double>(max_events) / mean_events : 0,
        "x"},
       {"sim.cluster.cpu_per_wall", r.cpu_s / r.wall_s, "s/s"},
       {"eth.heartbeats", static_cast<double>(heartbeats), "count"}});
  c.digest(&d);
  r.digest = d.value();
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Timed spans last 0.01-0.07 s on the reference host.
      {"ingest", run_ingest, 1.0 / 64, ingest_setup_s},
      {"rand_rw", run_rand_rw, 1.0 / 16, rand_rw_setup_s},
      {"kv_real", run_kv_real, 1.0 / 125, kv_real_setup_s},
      {"cluster4", run_cluster4, 1.0 / 32, cluster4_setup_s},
  };
  return all;
}

}  // namespace simbench
