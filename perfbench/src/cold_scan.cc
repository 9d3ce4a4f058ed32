// cold-scan: one closed-loop client over a tree about 4x larger than the
// cache budget, cycling application phases: a git-status lstat sweep, a
// find/du readdir + fstatat walk, a tar-x create of a fresh subtree and an
// rm -r of the oldest one.
//
// Why: the working set is larger than the cache, so storage, the slowpath
// vfs.walk with shortcut resume, vfs.dcache eviction and vfs.governor
// (budget enforcement, DLHT resize) do the work; fastpath hits and server
// do little. CacheGovernor::Tick() is driven by hand every kTickEvery ops
// (governor_interval_us = 0), so with one thread every count repeats
// exactly for a given seed and op count.
//
// Sizes: 150k entries. With no budget, a stat of every entry grows the
// cache to 72.1 MB (63.6 MB of dentries, 8.4 MB of DLHT, 64 KiB of PCC);
// the budget (kBudgetBytes) is 1/4 of that. The tree's metadata takes
// 16.6k blocks (inode table + directory blocks); the DiskFs buffer cache
// (kBufferBlocks) holds 1/4 of them.
#include <algorithm>
#include <map>

#include "perfbench/src/common.h"
#include "src/vfs/governor.h"
#include "src/workload/tree_gen.h"

namespace dircache {
namespace perfbench {
namespace {

using server::Cqe;
using server::Sqe;

constexpr size_t kApproxFiles = 138000;
constexpr size_t kRegions = 8;           // top-level subtrees of /data
constexpr uint64_t kBudgetBytes = 18000000;
constexpr size_t kBufferBlocks = 4160;
constexpr uint64_t kTickEvery = 256;     // ops between governor ticks
constexpr size_t kTarDirs = 8;
constexpr size_t kTarFiles = 16;          // per tar directory
constexpr size_t kTarKept = 3;
constexpr int kSetupReps = 3;
constexpr uint32_t kMaxEntries = 4096;

enum OpKind : uint8_t { kRead, kWrite };

struct Model {
  TreeInfo info;
  std::vector<std::vector<std::string>> region_files;  // git-status order
  std::vector<std::vector<std::string>> region_dirs;   // find order
  std::map<std::string, std::vector<std::string>> children;  // names
  std::vector<std::string> tars;  // live tar subtrees, oldest first
  uint64_t next_tar = 0;
};

size_t RegionOf(const std::string& path, const std::vector<std::string>& tops) {
  for (size_t i = 0; i < tops.size(); ++i) {
    const std::string& t = tops[i];
    if (path.size() >= t.size() && path.compare(0, t.size(), t) == 0 &&
        (path.size() == t.size() || path[t.size()] == '/')) {
      return i % kRegions;
    }
  }
  return 0;
}

std::unique_ptr<Model> BuildModel(Task& t, uint64_t seed) {
  auto m = std::make_unique<Model>();
  TreeSpec spec;
  spec.seed = seed;
  spec.approx_files = kApproxFiles;
  spec.max_depth = 6;
  spec.dirs_per_dir = kRegions;
  spec.file_content_bytes = 0;
  auto r = GenerateSourceTree(t, "/data", spec);
  if (!r.ok() || !t.Mkdir("/build").ok()) {
    std::fprintf(stderr, "cold-scan: tree generation failed\n");
    std::exit(2);
  }
  m->info = std::move(*r);
  std::vector<std::string> tops;
  for (const std::string& d : m->info.dirs) {
    if (Depth(d) == 2) {
      tops.push_back(d);
    }
  }
  m->region_files.resize(kRegions);
  m->region_dirs.resize(kRegions);
  auto note = [&](const std::string& p) {
    const size_t slash = p.rfind('/');
    m->children[p.substr(0, slash)].push_back(p.substr(slash + 1));
  };
  for (const std::string& d : m->info.dirs) {
    m->region_dirs[RegionOf(d, tops)].push_back(d);
    if (d != "/data") {
      note(d);
    }
  }
  for (const std::string& f : m->info.files) {
    m->region_files[RegionOf(f, tops)].push_back(f);
    note(f);
  }
  for (const std::string& l : m->info.symlinks) {
    m->region_files[RegionOf(l, tops)].push_back(l);
    note(l);
  }
  return m;
}

struct World {
  Env env;
  std::unique_ptr<Model> model;
  FdNum open_fd = 0;
};

// The client: sends one op per SubmitBatch call, checks it, times it,
// and ticks the governor every kTickEvery ops.
class Client {
 public:
  Client(World& w, Checker& check) : w_(w), t_(*w.env.task), check_(check) {}

  // Starts a stretch of ops; `limit` nonzero stops it once `ops` reaches
  // that count.
  void Begin(uint64_t limit) {
    limit_ = limit;
    lat.Clear();
    write_lat.Clear();
  }
  bool Done() const { return limit_ != 0 && ops >= limit_; }

  // Runs one op. Phases check Done() only between whole units (one lstat,
  // one directory's open..close, one tar-x, one rm -r), so a stop never
  // leaves a descriptor open or the model out of step with the tree.
  void Do(const Sqe& s, int32_t expect, OpKind kind, const char* what) {
    Cqe c;
    uint32_t req = kNoParent;
    uint32_t sub = kNoParent;
    if (log != nullptr) {
      req = log->Begin(kSpanRequest, kNoParent, ops);
      sub = log->Begin(kSpanSubmit, req, ops);
    }
    const uint64_t t0 = NowNanos();
    t_.SubmitBatch(&s, 1, &c);
    const uint64_t ns = NowNanos() - t0;
    if (log != nullptr) {
      log->End(sub);
      if (!s.path.empty() && s.path[0] == '/') {
        probe->Probe(s.path, *log, req, ops);
      }
      log->End(req);
    }
    lat.Add(ns);
    if (kind == kWrite) {
      write_lat.Add(ns);
      ++mutations;
    }
    ++ops;
    stream.Add(s, expect);
    check_.Expect(c.res == expect, ops, what, c.res, expect);
    if (ops % kTickEvery == 0) {
      Tick();
    }
  }

  void Tick() {
    CacheGovernor* g = w_.env.kernel->governor();
    const uint64_t used = g->MeasureUsage().total();
    peak_over_budget = std::max(
        peak_over_budget,
        static_cast<double>(used) / static_cast<double>(kBudgetBytes));
    const uint32_t span = log != nullptr ? log->Begin(kSpanTick, kNoParent, ops)
                                         : kNoParent;
    const uint64_t t0 = NowNanos();
    g->Tick();
    tick_ns.Add(NowNanos() - t0);
    if (log != nullptr) {
      log->End(span);
    }
  }

  Samples lat;
  Samples write_lat;
  Samples tick_ns;
  uint64_t ops = 0;
  uint64_t mutations = 0;
  double peak_over_budget = 0;
  StreamHash stream;
  // Set for a traced stretch: every op gets request/submit spans and, for
  // absolute paths, the sign/DLHT probes.
  SpanLog* log = nullptr;
  Prober* probe = nullptr;

 private:
  World& w_;
  Task& t_;
  Checker& check_;
  uint64_t limit_ = 0;
};

// git status: lstat every file of a region, in tree order.
bool GitStatus(Client& c, const Model& m, size_t region, Stat* st) {
  for (const std::string& f : m.region_files[region]) {
    if (c.Done()) {
      return false;
    }
    c.Do(Sqe::Statx(kAtFdCwd, f, kAtSymlinkNoFollow, st), 0, kRead,
         f.c_str());
  }
  return true;
}

// find/du: per directory open, readdir to EOF, fstatat each name, close.
bool FindDu(Client& c, const World& w, size_t region, Stat* st,
            std::vector<DirEntry>* ents) {
  const Model& m = *w.model;
  const FdNum fd = w.open_fd;
  for (const std::string& d : m.region_dirs[region]) {
    auto it = m.children.find(d);
    const std::vector<std::string> none;
    const std::vector<std::string>& kids = it == m.children.end() ? none
                                                                  : it->second;
    if (c.Done()) {
      return false;
    }
    c.Do(Sqe::Open(kAtFdCwd, d, kORead | kODirectory), fd, kRead, d.c_str());
    c.Do(Sqe::Readdir(fd, ents, kMaxEntries),
         static_cast<int32_t>(kids.size()), kRead, "readdir");
    c.Do(Sqe::Readdir(fd, ents, kMaxEntries), 0, kRead, "readdir eof");
    for (const std::string& k : kids) {
      c.Do(Sqe::Statx(fd, k, kAtSymlinkNoFollow, st), 0, kRead, k.c_str());
    }
    c.Do(Sqe::Close(fd), 0, kRead, "close");
  }
  return true;
}

// tar x: a fresh subtree of kTarDirs directories of kTarFiles files.
bool TarX(Client& c, World& w) {
  if (c.Done()) {
    return false;
  }
  Model& m = *w.model;
  const std::string root = "/build/t" + std::to_string(m.next_tar++);
  m.tars.push_back(root);
  c.Do(Sqe::Mkdir(kAtFdCwd, root), 0, kWrite, "mkdir");
  std::string p;
  for (size_t d = 0; d < kTarDirs; ++d) {
    const std::string dir = root + "/d" + std::to_string(d);
    c.Do(Sqe::Mkdir(kAtFdCwd, dir), 0, kWrite, "mkdir");
    for (size_t f = 0; f < kTarFiles; ++f) {
      p = dir + "/f" + std::to_string(f) + ".c";
      c.Do(Sqe::Open(kAtFdCwd, p, kOCreat | kOExcl | kOWrite), w.open_fd,
           kWrite, "create");
      c.Do(Sqe::Close(w.open_fd), 0, kRead, "close");
    }
  }
  return true;
}

// rm -r of the oldest tar subtree, deepest entries first.
void RmOldest(Client& c, Model& m) {
  const std::string root = m.tars.front();
  m.tars.erase(m.tars.begin());
  std::string p;
  for (size_t d = 0; d < kTarDirs; ++d) {
    const std::string dir = root + "/d" + std::to_string(d);
    for (size_t f = 0; f < kTarFiles; ++f) {
      p = dir + "/f" + std::to_string(f) + ".c";
      c.Do(Sqe::Unlink(kAtFdCwd, p), 0, kWrite, "unlink");
    }
    c.Do(Sqe::Unlink(kAtFdCwd, dir, true), 0, kWrite, "rmdir");
  }
  c.Do(Sqe::Unlink(kAtFdCwd, root, true), 0, kWrite, "rmdir");
}

// One application cycle; `cycle` picks the regions. False once stopped.
bool Cycle(Client& c, World& w, uint64_t cycle, Stat* st,
           std::vector<DirEntry>* ents) {
  if (!GitStatus(c, *w.model, cycle % kRegions, st)) {
    return false;
  }
  if (!FindDu(c, w, (cycle + 3) % kRegions, st, ents)) {
    return false;
  }
  if (!TarX(c, w)) {
    return false;
  }
  if (w.model->tars.size() > kTarKept) {
    RmOldest(c, *w.model);
  }
  return !c.Done();
}

}  // namespace

Result RunColdScan(const Options& opt) {
  Result r;
  Checker check("cold-scan");
  CacheConfig cfg = CacheConfig::Optimized();
  cfg.governor = true;
  cfg.governor_interval_us = 0;
  cfg.cache_memory_budget = kBudgetBytes;

  // Set-up: tree build, governor ticks down to the budget, then one warm
  // application cycle; repeated, the last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<World> w;
  std::unique_ptr<Client> c;
  Stat st;
  std::vector<DirEntry> ents;
  uint64_t cycle = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    c.reset();
    w.reset();
    const uint64_t t0 = NowNanos();
    w = std::make_unique<World>();
    DiskFsOptions disk;
    disk.num_blocks = 1 << 19;
    disk.max_inodes = 1 << 18;
    disk.buffer_cache_blocks = kBufferBlocks;
    w->env = MakeEnv(cfg, ObsConfig{}, disk);
    w->model = BuildModel(*w->env.task, opt.seed);
    // Learn the lowest free fd (the client holds none between ops).
    auto fd = w->env.task->Open("/data", kORead | kODirectory);
    if (!fd.ok()) {
      std::fprintf(stderr, "cold-scan: cannot open /data\n");
      std::exit(2);
    }
    w->open_fd = *fd;
    (void)w->env.task->Close(*fd);
    c = std::make_unique<Client>(*w, check);
    for (int i = 0; i < 64; ++i) {
      c->Tick();
    }
    c->Begin(0);
    cycle = 0;
    (void)Cycle(*c, *w, cycle++, &st, &ents);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
  }
  Kernel& k = *w->env.kernel;
  DiskFs* fs = w->env.fs.get();

  // Measured rounds. The op counter restarts so ticks fall on the same ops
  // in every run of a seed.
  c->ops = 0;
  c->mutations = 0;
  c->tick_ns.Clear();
  c->peak_over_budget = 0;
  c->stream = StreamHash{};
  // A round is one rotation: kRegions cycles, so every round sweeps and
  // walks each region once and rounds are alike. Rounds run until
  // --seconds have passed (--ops: one round of exactly that many ops).
  std::vector<double> p50s, p99s, wp99s, rates;
  MemoryPeak mem;
  mem.Sample(k);
  const Counts c0 = TakeCounts(k, fs, nullptr);
  const uint64_t end = NowNanos() + static_cast<uint64_t>(opt.seconds * 1e9);
  for (size_t round = 0; round == 0 || (opt.ops == 0 && NowNanos() < end);
       ++round) {
    const uint64_t ops0 = c->ops;
    const uint64_t start = NowNanos();
    c->Begin(opt.ops);
    for (size_t i = 0; i < kRegions || opt.ops != 0; ++i) {
      if (!Cycle(*c, *w, cycle++, &st, &ents)) {
        break;
      }
    }
    const uint64_t wall = NowNanos() - start;
    rates.push_back(static_cast<double>(c->ops - ops0) * 1e9 /
                    static_cast<double>(wall));
    p50s.push_back(c->lat.Pct(0.50));
    p99s.push_back(c->lat.Pct(0.99));
    std::printf("round  %zu p50_ns=%.0f p99_ns=%.0f ops_per_s=%.0f\n", round,
                p50s.back(), p99s.back(), rates.back());
    wp99s.push_back(c->write_lat.Pct(0.99));
    mem.Sample(k);
  }
  const Counts delta = TakeCounts(k, fs, nullptr).Minus(c0);
  const uint64_t measured = c->ops;

  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("lat_p50_ns", Median(p50s), "ns");
  r.E2e("cache_mb", static_cast<double>(mem.peak()) / 1e6, "MB");
  r.E2e("ops_per_s", Median(rates), "1/s");
  r.Extra("lat_p99_ns", Median(p99s), "ns");
  r.Extra("write_lat_p99_ns", Median(wp99s), "ns");
  r.Extra("sim_io_us_per_op",
          measured == 0 ? 0
                        : static_cast<double>(delta.Get("dev.io_ns")) / 1e3 /
                              static_cast<double>(measured),
          "us");

  AddCounterMetrics(delta, measured, c->mutations, &r);
  r.Layer("governor.tick_p50_us", c->tick_ns.Pct(0.5) / 1e3);
  r.Layer("governor.tick_p99_us", c->tick_ns.Pct(0.99) / 1e3);
  r.Layer("governor.peak_usage_over_budget", c->peak_over_budget,
          "budget_bytes=" + std::to_string(kBudgetBytes));
  r.Layer("dcache.dentries",
          static_cast<double>(k.Observe().memory.dentry_count));
  r.ledger.emplace_back("stream_hash", c->stream.value());
  r.ledger.emplace_back("budget_bytes", kBudgetBytes);
  r.ledger.emplace_back("tree_entries", w->model->info.total_entries());

  if (opt.trace) {
    // Full cycles over every region untraced, then the same number traced;
    // the ratio of their ns per op is the tracing overhead.
    auto cycles = [&]() {
      c->Begin(0);
      const uint64_t ops0 = c->ops;
      const uint64_t t0 = NowNanos();
      for (size_t i = 0; i < kRegions; ++i) {
        (void)Cycle(*c, *w, cycle++, &st, &ents);
      }
      return static_cast<double>(NowNanos() - t0) /
             static_cast<double>(c->ops - ops0);
    };
    const double plain = cycles();
    SpanLog log;
    Prober probe(k, w->env.task->ns());
    c->log = &log;
    c->probe = &probe;
    const double traced = cycles();
    c->log = nullptr;
    c->probe = nullptr;
    r.Layer("trace.overhead_ratio", plain == 0 ? 0 : traced / plain,
            "traced_ns_per_op=" + std::to_string(traced) +
                " / untraced_ns_per_op=" + std::to_string(plain));
    AddSpanMetrics(log, probe, opt, &r);
  }

  r.audit_clean = AuditClean(k, "cold-scan");
  r.attempted = check.attempted();
  r.failed = check.failed();
  return r;
}

}  // namespace perfbench
}  // namespace dircache
