// warm-lookup: one closed-loop client calling Task::SubmitBatch directly,
// read-only, over a Linux-source-shaped tree that fits the cache.
//
// Why: vfs.task, the vfs.walk fastpath and core (signature, DLHT, PCC) do
// almost all the work; server, vfs.inval, storage and vfs.governor do none.
// The op mix is derived, per seed, from the read side of the Table 1
// application emulators (src/workload/apps.cc) applied to this tree: find,
// du -s, updatedb, git status, git diff and make each issue a known set of
// absolute statx, single-component fstatat(dirfd, name), open+close and
// ENOENT include probes; the class shares are the mean of the six apps'
// shares and the statx depth weights are their absolute-path depths (see
// DeriveMix). Symlink, ".." and ENOTDIR paths, which none of those apps
// issues, keep small fixed shares so those walk paths stay covered.
//
// Read-only means an op's outcome never changes, so the op stream is one
// fixed cycle: its first pass records every outcome (checked against the
// generator's expectation), every later pass must reproduce it, and the
// same cycle replayed on a CacheConfig::Baseline() kernel must return
// identical results (the paper's transparency property).
#include <algorithm>
#include <map>

#include "perfbench/src/common.h"
#include "src/workload/tree_gen.h"

namespace dircache {
namespace perfbench {
namespace {

constexpr size_t kApproxFiles = 50000;
constexpr size_t kCycle = 1 << 17;  // ops in the fixed cycle
constexpr size_t kHeldDirs = 64;    // dirfds the client keeps open
// make's -I search path and header names (RunMake): 4 include dirs, 64
// header names, the even ones present in the first dir.
constexpr size_t kIncludeDirs = 4;
constexpr size_t kHeaderNames = 64;
constexpr size_t kHeadersPerFile = 6;
// Fixed shares of the classes no Table 1 emulator issues.
constexpr double kSymlinkShare = 0.02;
constexpr double kDotDotShare = 0.02;
constexpr double kEnotdirShare = 0.01;
// Every absolute depth 1-10 gets at least this share of the statx ops, so
// each path length is measured.
constexpr double kDepthFloor = 0.01;
constexpr int kSetupReps = 3;
// Per-class latency samples kept for the per-layer metrics (traced runs).
constexpr size_t kClassSamples = 1 << 20;

enum OpClass : uint8_t {
  kStatAbs,
  kFstatat1,
  kOpenClose,
  kEnoent,
  kSymlink,
  kDotDot,
  kEnotdir,
  kClassCount,
};

struct Op {
  OpClass cls = kStatAbs;
  uint8_t depth = 0;     // components of the absolute path
  uint16_t dir_idx = 0;  // kFstatat1: which held dirfd
  int32_t expect = 0;    // 0 or a negated errno; kOpenClose: the fd
  FileType expect_type = FileType::kRegular;
  std::string path;  // as submitted
  std::string abs;   // absolute spelling, for the probes
};

struct Outcome {
  int32_t res = 0;
  InodeNum ino = 0;
  FileType type = FileType::kRegular;
};

struct Entry {
  std::string path;
  FileType type;
};

std::string Header(size_t n) { return "gen_hdr_" + std::to_string(n) + ".h"; }

// The tree: GenerateSourceTree under /src, make's generated headers, a few
// top-level entries, and deep chains (like gpu/drm/amd/display in the Linux
// tree) so depths 8-10 exist.
TreeInfo BuildTree(Task& t, uint64_t seed, std::vector<Entry>* entries,
                   std::vector<std::string>* include_dirs) {
  TreeSpec spec;
  spec.seed = seed;
  spec.approx_files = kApproxFiles;
  spec.max_depth = 6;
  spec.file_content_bytes = 0;
  auto r = GenerateSourceTree(t, "/src", spec);
  if (!r.ok()) {
    std::fprintf(stderr, "warm-lookup: tree generation failed\n");
    std::exit(2);
  }
  TreeInfo info = std::move(*r);
  // RunMake's include path, picked the same way from the generated dirs.
  include_dirs->clear();
  for (size_t i = 0; i < kIncludeDirs; ++i) {
    include_dirs->push_back(info.dirs[(i * 13 + 1) % info.dirs.size()]);
  }
  for (size_t h = 0; h < kHeaderNames; h += 2) {
    const std::string f = (*include_dirs)[0] + "/" + Header(h);
    auto fd = t.Open(f, kOCreat | kOExcl | kOWrite);
    if (fd.ok()) {
      (void)t.Close(*fd);
      info.files.push_back(f);
    }
  }
  for (const char* d : {"/etc", "/usr", "/tmp", "/home"}) {
    (void)t.Mkdir(d);
    info.dirs.push_back(d);
  }
  for (const char* f : {"/vmlinuz", "/etc/passwd"}) {
    auto fd = t.Open(f, kOCreat | kOExcl | kOWrite);
    if (fd.ok()) {
      (void)t.Close(*fd);
      info.files.push_back(f);
    }
  }
  Rng rng(seed ^ 0xdee9c4a1ULL);
  std::vector<std::string> anchors;
  for (const std::string& d : info.dirs) {
    if (Depth(d) == 5) {
      anchors.push_back(d);
    }
  }
  for (size_t c = 0; c < 24 && !anchors.empty(); ++c) {
    std::string dir = anchors[rng.Below(anchors.size())];
    for (size_t level = 0; level < 5; ++level) {
      dir += "/dc" + std::to_string(level) + "_" + std::to_string(c);
      if (!t.Mkdir(dir).ok()) {
        break;
      }
      info.dirs.push_back(dir);
      for (size_t k = 0; k < 4; ++k) {
        std::string f = dir + "/dml" + std::to_string(k) + ".c";
        auto fd = t.Open(f, kOCreat | kOExcl | kOWrite);
        if (fd.ok()) {
          (void)t.Close(*fd);
          info.files.push_back(f);
        }
      }
    }
  }
  entries->clear();
  for (const std::string& d : info.dirs) {
    entries->push_back({d, FileType::kDirectory});
  }
  for (const std::string& f : info.files) {
    entries->push_back({f, FileType::kRegular});
  }
  return info;
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

std::string Parent(const std::string& p) { return p.substr(0, p.rfind('/')); }
std::string Leaf(const std::string& p) { return p.substr(p.rfind('/') + 1); }

// Class shares and absolute-statx depth weights of the op mix.
struct Mix {
  double stat_abs = 0;
  double fstatat1 = 0;
  double open_dir = 0;
  double open_file = 0;
  double enoent_obj = 0;  // make's stat of a missing .obj
  double enoent_hdr = 0;  // make's -I header probes that miss
  double depth[11] = {};  // statx depths 1..10, summing to 1
};

bool UnderSrc(const std::string& p) {
  return p == "/src" || p.compare(0, 5, "/src/") == 0;
}

bool IsCSource(const std::string& p) {
  return p.size() > 2 && p.compare(p.size() - 2, 2, ".c") == 0;
}

// Counts the path syscalls each read-side Table 1 emulator of
// src/workload/apps.cc issues on this tree (readdir calls and make's writes
// are left out: warm-lookup is read-only lookups):
//   find, du -s  per dir: open; per entry: fstatat(dirfd, name)
//   updatedb     per dir: open
//   git status   per file: lstat(full path); per dir: open
//   git diff     per file: lstat(full path); 5% of files: open
//   make         per .c: stat it, stat its .obj (ENOENT), 6 headers probed
//                in 4 -I dirs (the even headers exist in the first), open it
// Each app's counts become shares and the six apps are averaged, so every
// Table 1 row weighs the same whatever its syscall count.
Mix DeriveMix(const TreeInfo& info, const std::vector<std::string>& inc) {
  double dirs = 0;
  double entries = 0;
  double files = 0;
  double csrc = 0;
  double file_depth[11] = {};
  double csrc_depth[11] = {};
  for (const std::string& d : info.dirs) {
    if (UnderSrc(d)) {
      dirs += 1;
      entries += d == "/src" ? 0 : 1;
    }
  }
  for (const std::string& l : info.symlinks) {
    entries += UnderSrc(l) ? 1 : 0;
  }
  for (const std::string& f : info.files) {
    if (!UnderSrc(f)) {
      continue;
    }
    const size_t d = std::min<size_t>(Depth(f), 10);
    entries += 1;
    files += 1;
    file_depth[d] += 1;
    if (IsCSource(f)) {
      csrc += 1;
      csrc_depth[d] += 1;
    }
  }
  const double probes = kHeadersPerFile * kIncludeDirs;
  const double hdr_hits = kHeadersPerFile / 2.0;
  const size_t hdr_depth = std::min<size_t>(Depth(inc[0]) + 1, 10);

  Mix m;
  constexpr double kApps = 6;
  auto app = [&](double stat_abs, double fstatat1, double open_dir,
                 double open_file, double enoent_obj, double enoent_hdr,
                 const double* depth_count, double depth_scale) {
    const double total = stat_abs + fstatat1 + open_dir + open_file +
                         enoent_obj + enoent_hdr;
    m.stat_abs += stat_abs / total / kApps;
    m.fstatat1 += fstatat1 / total / kApps;
    m.open_dir += open_dir / total / kApps;
    m.open_file += open_file / total / kApps;
    m.enoent_obj += enoent_obj / total / kApps;
    m.enoent_hdr += enoent_hdr / total / kApps;
    for (size_t d = 1; d <= 10 && depth_count != nullptr; ++d) {
      m.depth[d] += depth_count[d] * depth_scale / total / kApps;
    }
    return total;
  };
  app(0, entries, dirs, 0, 0, 0, nullptr, 0);           // find
  app(0, entries, dirs, 0, 0, 0, nullptr, 0);           // du -s
  app(0, 0, dirs, 0, 0, 0, nullptr, 0);                 // updatedb
  app(files, 0, dirs, 0, 0, 0, file_depth, 1);          // git status
  app(files, 0, 0, 0.05 * files, 0, 0, file_depth, 1);  // git diff
  const double make_total =
      app(csrc * (1 + hdr_hits), 0, 0, csrc, csrc, csrc * (probes - hdr_hits),
          csrc_depth, 1);
  m.depth[hdr_depth] += csrc * hdr_hits / make_total / kApps;
  // Depth weights: normalized, floored, normalized again.
  double sum = 0;
  for (size_t d = 1; d <= 10; ++d) {
    sum += m.depth[d];
  }
  double floored = 0;
  for (size_t d = 1; d <= 10; ++d) {
    m.depth[d] = std::max(m.depth[d] / sum, kDepthFloor);
    floored += m.depth[d];
  }
  for (size_t d = 1; d <= 10; ++d) {
    m.depth[d] /= floored;
  }
  return m;
}

struct Stream {
  std::vector<std::string> held;  // held dirfd paths, in open order
  std::vector<Op> ops;
  Mix mix;
};

// The op stream is a function of the seed and the generated tree only.
Stream Generate(const TreeInfo& info, const std::vector<Entry>& entries,
                const std::vector<std::string>& include_dirs, uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  Stream s;
  s.mix = DeriveMix(info, include_dirs);
  const Mix& m = s.mix;
  // Entries by depth, each group in a seeded popularity order.
  std::vector<std::vector<const Entry*>> by_depth(16);
  std::map<std::string, std::vector<const Entry*>> children;
  std::vector<const Entry*> files;
  std::vector<const Entry*> dirs;
  std::vector<const Entry*> csrc;
  std::vector<const Entry*> deep_files;  // depth >= 3, for ".." paths
  for (const Entry& e : entries) {
    by_depth[std::min<size_t>(Depth(e.path), 15)].push_back(&e);
    children[Parent(e.path)].push_back(&e);
    if (e.type == FileType::kDirectory) {
      dirs.push_back(&e);
      continue;
    }
    files.push_back(&e);
    if (IsCSource(e.path)) {
      csrc.push_back(&e);
    }
    if (Depth(e.path) >= 3) {
      deep_files.push_back(&e);
    }
  }
  for (auto& g : by_depth) {
    Shuffle(g, rng);
  }
  Shuffle(files, rng);
  Shuffle(dirs, rng);
  Shuffle(csrc, rng);
  Shuffle(deep_files, rng);
  std::vector<Zipf> zipf_depth;
  for (auto& g : by_depth) {
    zipf_depth.emplace_back(std::max<size_t>(g.size(), 1), 0.99);
  }
  Zipf zipf_files(files.size(), 0.99);
  Zipf zipf_dirs(dirs.size(), 0.99);
  Zipf zipf_csrc(std::max<size_t>(csrc.size(), 1), 0.99);
  Zipf zipf_deep(deep_files.size(), 0.99);

  std::vector<std::string> dirs_with_children;
  for (const std::string& d : info.dirs) {
    if (children.count(d) != 0 && d != "/src") {
      dirs_with_children.push_back(d);
    }
  }
  Shuffle(dirs_with_children, rng);
  for (size_t i = 0; i < kHeldDirs && i < dirs_with_children.size(); ++i) {
    s.held.push_back(dirs_with_children[i]);
  }
  std::vector<std::vector<const Entry*>> held_children;
  for (const std::string& d : s.held) {
    held_children.push_back(children[d]);
    Shuffle(held_children.back(), rng);
  }
  Zipf zipf_held(s.held.size(), 0.99);

  // make's missing headers: every (-I dir, name) pair but the even names
  // of the first dir.
  std::vector<std::string> missing_hdrs;
  for (size_t i = 0; i < include_dirs.size(); ++i) {
    for (size_t h = 0; h < kHeaderNames; ++h) {
      if (i != 0 || h % 2 != 0) {
        missing_hdrs.push_back(include_dirs[i] + "/" + Header(h));
      }
    }
  }
  std::vector<std::string> links = info.symlinks;
  Shuffle(links, rng);
  Zipf zipf_links(std::max<size_t>(links.size(), 1), 0.99);

  const double derived = 1 - kSymlinkShare - kDotDotShare - kEnotdirShare;
  double cum[9];
  const double share[9] = {m.stat_abs * derived,   m.fstatat1 * derived,
                           m.open_dir * derived,   m.open_file * derived,
                           m.enoent_obj * derived, m.enoent_hdr * derived,
                           kSymlinkShare,          kDotDotShare,
                           kEnotdirShare};
  double acc = 0;
  for (size_t k = 0; k < 9; ++k) {
    acc += share[k];
    cum[k] = acc;
  }

  s.ops.reserve(kCycle);
  while (s.ops.size() < kCycle) {
    Op op;
    const double u = rng.NextDouble() * acc;
    size_t pick = 0;
    while (pick < 8 && u >= cum[pick]) {
      ++pick;
    }
    if (pick == 0) {
      double v = rng.NextDouble();
      size_t d = 1;
      while (d < 10 && v >= m.depth[d]) {
        v -= m.depth[d];
        ++d;
      }
      while (by_depth[d].empty()) {
        --d;
      }
      const Entry* e = by_depth[d][zipf_depth[d].Sample(rng)];
      op.cls = kStatAbs;
      op.path = e->path;
      op.expect_type = e->type;
    } else if (pick == 1) {
      const size_t h = zipf_held.Sample(rng);
      const auto& kids = held_children[h];
      const Entry* e = kids[rng.Below(kids.size())];
      op.cls = kFstatat1;
      op.dir_idx = static_cast<uint16_t>(h);
      op.path = Leaf(e->path);
      op.abs = e->path;
      op.expect_type = e->type;
    } else if (pick == 2 || pick == 3) {
      const Entry* e = pick == 2 ? dirs[zipf_dirs.Sample(rng)]
                                 : files[zipf_files.Sample(rng)];
      op.cls = kOpenClose;
      op.path = e->path;
      op.expect_type = e->type;
    } else if (pick == 4 && !csrc.empty()) {
      const std::string& c = csrc[zipf_csrc.Sample(rng)]->path;
      op.cls = kEnoent;
      op.path = c.substr(0, c.size() - 2) + ".obj";
      op.expect = -static_cast<int32_t>(Errno::kENOENT);
    } else if (pick <= 5) {
      op.cls = kEnoent;
      op.path = missing_hdrs[rng.Below(missing_hdrs.size())];
      op.expect = -static_cast<int32_t>(Errno::kENOENT);
    } else if (pick == 6 && !links.empty()) {
      op.cls = kSymlink;
      op.path = links[zipf_links.Sample(rng)];
    } else if (pick <= 7) {
      const std::string& f = deep_files[zipf_deep.Sample(rng)]->path;
      const std::string dir = Parent(f);
      op.cls = kDotDot;
      op.path = dir + "/../" + Leaf(dir) + "/" + Leaf(f);
    } else {
      op.cls = kEnotdir;
      op.path = files[zipf_files.Sample(rng)]->path + "/x";
      op.expect = -static_cast<int32_t>(Errno::kENOTDIR);
    }
    if (op.abs.empty()) {
      op.abs = op.path;
    }
    op.depth = static_cast<uint8_t>(Depth(op.abs));
    s.ops.push_back(std::move(op));
  }
  return s;
}

// One kernel with the tree built, the dirfds held and the cycle warm.
struct World {
  Env env;
  std::vector<FdNum> held_fds;
  FdNum open_fd = -1;  // what every kOpenClose open returns
};

Outcome Exec(Task& t, const Op& op, const World& w) {
  using server::Cqe;
  using server::Sqe;
  Stat st;
  Cqe c;
  Outcome o;
  if (op.cls == kOpenClose) {
    const int flags = op.expect_type == FileType::kDirectory
                          ? kORead | kODirectory
                          : kORead;
    Sqe s = Sqe::Open(kAtFdCwd, op.path, flags);
    t.SubmitBatch(&s, 1, &c);
    o.res = c.res;
    if (c.res >= 0) {
      Sqe cl = Sqe::Close(c.res);
      Cqe c2;
      t.SubmitBatch(&cl, 1, &c2);
      if (c2.res < 0) {
        o.res = c2.res;
      }
    }
    return o;
  }
  Sqe s = op.cls == kFstatat1
              ? Sqe::Statx(w.held_fds[op.dir_idx], op.path,
                           kAtSymlinkNoFollow, &st)
              : Sqe::Statx(kAtFdCwd, op.path, 0, &st);
  t.SubmitBatch(&s, 1, &c);
  o.res = c.res;
  if (c.res == 0) {
    o.ino = st.ino;
    o.type = st.type;
  }
  return o;
}

// Checks `o` against the recorded outcome of op `i`; a mismatch reports
// the result code when that differs, the inode number otherwise.
void CheckSame(Checker& check, const Outcome& o, const Outcome& want,
               size_t i, const char* what) {
  const bool same =
      o.res == want.res && o.ino == want.ino && o.type == want.type;
  if (o.res != want.res || same) {
    check.Expect(same, i, what, o.res, want.res);
  } else {
    check.Expect(false, i, what, static_cast<int64_t>(o.ino),
                 static_cast<int64_t>(want.ino));
  }
}

// Builds a world and runs one checked pass of the cycle, which warms the
// cache and either records the reference outcomes (checked against the
// generator's expectations) or compares every outcome with them.
std::unique_ptr<World> BuildWorld(const CacheConfig& cfg,
                                  const ObsConfig& obs, uint64_t seed,
                                  Stream* stream,
                                  std::vector<Outcome>* record,
                                  bool recording, Checker* check) {
  auto wp = std::make_unique<World>();
  World& w = *wp;
  DiskFsOptions disk;
  disk.num_blocks = 1 << 18;
  disk.max_inodes = 1 << 17;
  w.env = MakeEnv(cfg, obs, disk);
  Task& t = *w.env.task;
  std::vector<Entry> entries;
  std::vector<std::string> include_dirs;
  const TreeInfo info = BuildTree(t, seed, &entries, &include_dirs);
  if (stream->ops.empty()) {
    *stream = Generate(info, entries, include_dirs, seed);
  }
  for (const std::string& d : stream->held) {
    auto fd = t.Open(d, kORead | kODirectory);
    if (!fd.ok()) {
      std::fprintf(stderr, "warm-lookup: cannot hold %s\n", d.c_str());
      std::exit(2);
    }
    w.held_fds.push_back(*fd);
  }
  // The lowest free descriptor: with the held dirfds open and every open
  // closed right away, each kOpenClose open must return exactly this fd.
  w.open_fd = static_cast<FdNum>(w.held_fds.size());
  for (size_t i = 0; i < stream->ops.size(); ++i) {
    Op& op = stream->ops[i];
    if (op.cls == kOpenClose) {
      op.expect = w.open_fd;
    }
    Outcome o = Exec(t, op, w);
    if (!recording) {
      CheckSame(*check, o, (*record)[i], i,
                "differs from the optimized kernel");
      continue;
    }
    // A stat that succeeds must also report the expected file type.
    const bool type_ok =
        o.res != 0 || op.cls == kOpenClose || o.type == op.expect_type;
    check->Expect(o.res == op.expect && type_ok, i, op.path.c_str(), o.res,
                  op.expect);
    (*record)[i] = o;
  }
  return wp;
}

// Wall time of one unchecked pass over the cycle, ns per op.
double CycleNsPerOp(const World& w, const Stream& s) {
  Task& t = *w.env.task;
  const uint64_t t0 = NowNanos();
  for (const Op& op : s.ops) {
    (void)Exec(t, op, w);
  }
  return static_cast<double>(NowNanos() - t0) / static_cast<double>(kCycle);
}

}  // namespace

Result RunWarmLookup(const Options& opt) {
  Result r;
  Checker check("warm-lookup");
  Stream stream;
  std::vector<Outcome> record(kCycle);

  // Set-up: tree build + held dirfds + one checked warm-up pass, repeated;
  // the last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<World> wp;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    wp.reset();  // free the previous kernel before building the next
    const uint64_t t0 = NowNanos();
    wp = BuildWorld(CacheConfig::Optimized(), ObsConfig{}, opt.seed, &stream,
                    &record, true, &check);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
  }
  const World& w = *wp;
  Task& t = *w.env.task;
  const Mix& m = stream.mix;
  std::printf("mix    derived x%.2f: stat_abs=%.4f fstatat1=%.4f "
              "open_dir=%.4f open_file=%.4f enoent_obj=%.4f "
              "enoent_hdr=%.4f; fixed: symlink=%.2f dotdot=%.2f "
              "enotdir=%.2f\n",
              1 - kSymlinkShare - kDotDotShare - kEnotdirShare, m.stat_abs,
              m.fstatat1, m.open_dir, m.open_file, m.enoent_obj, m.enoent_hdr,
              kSymlinkShare, kDotDotShare, kEnotdirShare);
  std::printf("mix    statx depth 1-10:");
  for (size_t d = 1; d <= 10; ++d) {
    std::printf(" %.4f", m.depth[d]);
  }
  std::printf("\n");

  // Measured rounds: cycle through the ops, check each outcome against the
  // recorded one, time each op.
  const size_t rounds = Rounds(opt);
  const uint64_t round_ns =
      static_cast<uint64_t>(opt.seconds * 1e9 / static_cast<double>(rounds));
  std::vector<double> p50s, p99s, rates;
  std::vector<Samples> by_class(kClassCount);
  Samples depth1, depth8;
  MemoryPeak mem;
  mem.Sample(*w.env.kernel);
  const Counts c0 = TakeCounts(*w.env.kernel, w.env.fs.get(), nullptr);
  uint64_t measured = 0;
  size_t i = 0;
  for (size_t round = 0; round < rounds; ++round) {
    Samples lat;
    lat.Reserve(1 << 22);
    uint64_t n = 0;
    const uint64_t start = NowNanos();
    uint64_t now = start;
    while (opt.ops != 0 ? n < opt.ops : now - start < round_ns) {
      const Op& op = stream.ops[i];
      const uint64_t t0 = NowNanos();
      const Outcome o = Exec(t, op, w);
      now = NowNanos();
      const uint64_t ns = now - t0;
      lat.Add(ns);
      if (opt.trace && by_class[op.cls].size() < kClassSamples) {
        by_class[op.cls].Add(ns);
        if (op.cls == kStatAbs && op.depth == 1) {
          depth1.Add(ns);
        } else if (op.cls == kStatAbs && op.depth >= 8) {
          depth8.Add(ns);
        }
      }
      CheckSame(check, o, record[i], i, op.path.c_str());
      ++n;
      i = (i + 1) % kCycle;
    }
    rates.push_back(static_cast<double>(n) * 1e9 /
                    static_cast<double>(now - start));
    p50s.push_back(lat.Pct(0.50));
    p99s.push_back(lat.Pct(0.99));
    std::printf("round  %zu p50_ns=%.0f p99_ns=%.0f ops_per_s=%.0f\n", round,
                p50s.back(), p99s.back(), rates.back());
    measured += n;
    mem.Sample(*w.env.kernel);
  }
  const Counts delta =
      TakeCounts(*w.env.kernel, w.env.fs.get(), nullptr).Minus(c0);

  // The same cycle on a Baseline() kernel: identical outcomes required;
  // alternating timed passes give the in-process reference ratio.
  double opt_ns = 0;
  double base_ns = 0;
  {
    std::unique_ptr<World> base =
        BuildWorld(CacheConfig::Baseline(), ObsConfig{}, opt.seed, &stream,
                   &record, false, &check);
    std::vector<double> o_ns, b_ns;
    for (int k = 0; k < 3; ++k) {
      o_ns.push_back(CycleNsPerOp(w, stream));
      b_ns.push_back(CycleNsPerOp(*base, stream));
    }
    opt_ns = Median(o_ns);
    base_ns = Median(b_ns);
    r.audit_clean = AuditClean(*base->env.kernel, "warm-lookup baseline") &&
                    r.audit_clean;
  }

  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("lat_p50_ns", Median(p50s), "ns");
  r.E2e("cache_mb", static_cast<double>(mem.peak()) / 1e6, "MB");
  r.E2e("ops_per_s", Median(rates), "1/s");
  r.Extra("lat_p99_ns", Median(p99s), "ns");

  AddCounterMetrics(delta, measured, 0, &r);
  r.Layer("task.fstatat1_p50_ns", by_class[kFstatat1].Pct(0.5));
  r.Layer("task.open_close_p50_ns", by_class[kOpenClose].Pct(0.5));
  r.Layer("task.enoent_p50_ns", by_class[kEnoent].Pct(0.5));
  r.Layer("walk.depth1_p50_ns", depth1.Pct(0.5));
  r.Layer("walk.depth8plus_p50_ns", depth8.Pct(0.5));
  r.Layer("dcache.dentries",
          static_cast<double>(w.env.kernel->Observe().memory.dentry_count));
  r.Layer("ref.baseline_speedup", opt_ns == 0 ? 0 : base_ns / opt_ns,
          "baseline_ns_per_op=" + std::to_string(base_ns) +
              " / optimized_ns_per_op=" + std::to_string(opt_ns));
  r.ledger.emplace_back("cycle_ops", kCycle);
  StreamHash hash;
  for (const Op& op : stream.ops) {
    server::Sqe s;
    s.op = op.cls == kOpenClose ? server::OpCode::kOpen
                                : server::OpCode::kStatx;
    s.fd = op.cls == kFstatat1 ? op.dir_idx : kAtFdCwd;
    s.path = op.path;
    hash.Add(s, op.expect);
  }
  r.ledger.emplace_back("stream_hash", hash.value());

  if (opt.trace) {
    // Obs-on cost: the same cycle on a kernel built with
    // ObsConfig::Enabled(), against the obs-off kernel, alternating.
    {
      std::unique_ptr<World> on =
          BuildWorld(CacheConfig::Optimized(), ObsConfig::Enabled(), opt.seed,
                     &stream, &record, false, &check);
        std::vector<double> off_ns, on_ns;
      for (int k = 0; k < 3; ++k) {
        off_ns.push_back(CycleNsPerOp(w, stream));
        on_ns.push_back(CycleNsPerOp(*on, stream));
      }
      const double off = Median(off_ns);
      const double onv = Median(on_ns);
      r.Layer("obs.enabled_cost_ratio", off == 0 ? 0 : onv / off,
              "obs_on_ns_per_op=" + std::to_string(onv) +
                  " / obs_off_ns_per_op=" + std::to_string(off));
    }
    // Traced pass: one cycle with a request span per op, a submit span
    // around the SubmitBatch calls, and the sign/DLHT probes on the op's
    // own path. The untraced reference is a pass right before it.
    const double untraced = CycleNsPerOp(w, stream);
    SpanLog log;
    Prober probe(*w.env.kernel, w.env.task->ns());
    const uint64_t t0 = NowNanos();
    for (size_t k = 0; k < kCycle; ++k) {
      const Op& op = stream.ops[k];
      const uint32_t req = log.Begin(kSpanRequest, kNoParent, k);
      const uint32_t sub = log.Begin(kSpanSubmit, req, k);
      const Outcome o = Exec(t, op, w);
      log.End(sub);
      probe.Probe(op.abs, log, req, k);
      log.End(req);
      CheckSame(check, o, record[k], k, op.path.c_str());
    }
    const double traced =
        static_cast<double>(NowNanos() - t0) / static_cast<double>(kCycle);
    r.Layer("trace.overhead_ratio", untraced == 0 ? 0 : traced / untraced,
            "traced_ns_per_op=" + std::to_string(traced) +
                " / untraced_ns_per_op=" + std::to_string(untraced));
    AddSpanMetrics(log, probe, opt, &r);
  }

  r.audit_clean = AuditClean(*w.env.kernel, "warm-lookup") && r.audit_clean;
  r.attempted = check.attempted();
  r.failed = check.failed();
  return r;
}

}  // namespace perfbench
}  // namespace dircache
