// Property-based equivalence: the paper's optimizations must be fully
// transparent to applications. A randomized operation trace runs against a
// baseline kernel and several optimized configurations in lockstep; every
// observable result (errno, inode identity modulo numbering, sizes,
// permission outcomes, directory listings) must match exactly.
#include <map>
#include <set>
#include <sstream>

#include "src/core/dlht.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

// One simulated world (kernel + a root and two user tasks).
struct World {
  explicit World(const CacheConfig& cfg) : world(cfg) {
    tasks.push_back(world.root);
    tasks.push_back(world.UserTask(1000, 1000));
    tasks.push_back(world.UserTask(1001, 1001, {1000}));
  }
  TestWorld world;
  std::vector<TaskPtr> tasks;
};

// Deterministic path vocabulary: a small closed set of names and depths so
// traces collide with themselves often (that's where cache bugs live).
class PathPool {
 public:
  explicit PathPool(Rng* rng) : rng_(rng) {}

  std::string Component() {
    static const char* kNames[] = {"a", "b",    "c",   "dir",  "file",
                                   "x", "data", "tmp", "link", "deep"};
    return kNames[rng_->Below(std::size(kNames))];
  }

  std::string Path() {
    std::string p;
    size_t comps = 1 + rng_->Below(4);
    for (size_t i = 0; i < comps; ++i) {
      p += "/";
      if (rng_->Chance(0.05)) {
        p += rng_->Chance(0.5) ? "." : "..";
      } else {
        p += Component();
      }
    }
    return p;
  }

 private:
  Rng* rng_;
};

// Canonical rendering of one operation's observable outcome.
std::string Observe(World& w, Rng& rng, PathPool& pool, int op_kind) {
  std::ostringstream out;
  Task& task = *w.tasks[rng.Below(w.tasks.size())];
  auto err = [&](auto&& r) { return std::string(ErrnoName(r.error())); };
  switch (op_kind) {
    case 0: {  // stat
      std::string p = pool.Path();
      auto r = task.Statx(kAtFdCwd, p, 0);
      out << "stat " << p << " -> ";
      if (r.ok()) {
        out << "type=" << static_cast<int>(r->type) << " size=" << r->size
            << " mode=" << r->mode << " uid=" << r->uid
            << " nlink=" << r->nlink;
      } else {
        out << err(r);
      }
      break;
    }
    case 1: {  // lstat
      std::string p = pool.Path();
      auto r = task.Statx(kAtFdCwd, p, kAtSymlinkNoFollow);
      out << "lstat " << p << " -> "
          << (r.ok() ? std::to_string(static_cast<int>(r->type)) : err(r));
      break;
    }
    case 2: {  // mkdir
      std::string p = pool.Path();
      auto r = task.Mkdir(p, rng.Chance(0.3) ? 0700 : 0755);
      out << "mkdir " << p << " -> " << ErrnoName(r.error());
      break;
    }
    case 3: {  // create + write
      std::string p = pool.Path();
      auto fd = task.Open(p, kOCreat | kOWrite, 0644);
      out << "create " << p << " -> ";
      if (fd.ok()) {
        auto wr = task.WriteFd(*fd, "0123456789");
        out << "ok write=" << (wr.ok() ? *wr : 0);
        (void)task.Close(*fd);
      } else {
        out << err(fd);
      }
      break;
    }
    case 4: {  // unlink
      std::string p = pool.Path();
      auto r = task.Unlink(p);
      out << "unlink " << p << " -> " << ErrnoName(r.error());
      break;
    }
    case 5: {  // rmdir
      std::string p = pool.Path();
      auto r = task.Rmdir(p);
      out << "rmdir " << p << " -> " << ErrnoName(r.error());
      break;
    }
    case 6: {  // rename
      std::string a = pool.Path();
      std::string b = pool.Path();
      auto r = task.Rename(a, b);
      out << "rename " << a << " " << b << " -> " << ErrnoName(r.error());
      break;
    }
    case 7: {  // chmod (root only to keep outcomes deterministic)
      std::string p = pool.Path();
      uint16_t mode = rng.Chance(0.5) ? 0755 : 0700;
      auto r = w.tasks[0]->Chmod(p, mode);
      out << "chmod " << p << " " << mode << " -> " << ErrnoName(r.error());
      break;
    }
    case 8: {  // symlink
      std::string t = pool.Path();
      std::string l = pool.Path();
      auto r = task.Symlink(t, l);
      out << "symlink " << t << " " << l << " -> " << ErrnoName(r.error());
      break;
    }
    case 9: {  // readdir (sorted set)
      std::string p = pool.Path();
      auto dfd = task.Open(p, kORead | kODirectory);
      out << "ls " << p << " -> ";
      if (!dfd.ok()) {
        out << err(dfd);
        break;
      }
      std::set<std::string> names;
      while (true) {
        auto b = task.ReadDirFd(*dfd, 7);
        if (!b.ok() || b->empty()) {
          break;
        }
        for (auto& e : *b) {
          names.insert(e.name + ":" + std::to_string(static_cast<int>(e.type)));
        }
      }
      (void)task.Close(*dfd);
      for (const auto& n : names) {
        out << n << ",";
      }
      break;
    }
    case 10: {  // read through open fd
      std::string p = pool.Path();
      auto fd = task.Open(p, kORead);
      out << "read " << p << " -> ";
      if (!fd.ok()) {
        out << err(fd);
        break;
      }
      std::string buf;
      auto r = task.ReadFd(*fd, 32, &buf);
      out << (r.ok() ? buf : err(r));
      (void)task.Close(*fd);
      break;
    }
    case 11: {  // access
      std::string p = pool.Path();
      int mask = static_cast<int>(rng.Below(8));
      auto r = task.Access(p, mask);
      out << "access " << p << " " << mask << " -> "
          << ErrnoName(r.error());
      break;
    }
    case 12: {  // chown (root)
      std::string p = pool.Path();
      Uid uid = rng.Chance(0.5) ? 1000 : 1001;
      auto r = w.tasks[0]->Chown(p, uid, uid);
      out << "chown " << p << " " << uid << " -> " << ErrnoName(r.error());
      break;
    }
    case 13: {  // link
      std::string a = pool.Path();
      std::string b = pool.Path();
      auto r = task.Link(a, b);
      out << "link " << a << " " << b << " -> " << ErrnoName(r.error());
      break;
    }
    case 15: {  // mount a fresh pseudo FS (root only)
      std::string p = pool.Path();
      auto r = w.tasks[0]->Mount(p, std::make_shared<MemFs>());
      out << "mount " << p << " -> " << ErrnoName(r.error());
      break;
    }
    case 16: {  // umount (root only)
      std::string p = pool.Path();
      auto r = w.tasks[0]->Umount(p);
      out << "umount " << p << " -> " << ErrnoName(r.error());
      break;
    }
    case 17: {  // bind mount (root only)
      std::string a = pool.Path();
      std::string b = pool.Path();
      auto r = w.tasks[0]->BindMount(a, b);
      out << "bind " << a << " " << b << " -> " << ErrnoName(r.error());
      break;
    }
    case 14: {  // chdir + relative stat
      std::string p = pool.Path();
      auto r = task.Chdir(p);
      out << "chdir " << p << " -> " << ErrnoName(r.error());
      if (r.ok()) {
        std::string rel = pool.Component();
        auto st = task.Statx(kAtFdCwd, rel, 0);
        out << " ; rstat " << rel << " -> "
            << (st.ok() ? std::to_string(static_cast<int>(st->type))
                        : err(st));
        (void)task.Chdir("/");
      }
      break;
    }
    default:
      break;
  }
  return out.str();
}

class EquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceTest, RandomTraceMatchesBaseline) {
  const uint64_t seed = GetParam();
  CacheConfig lexless = CacheConfig::Optimized();
  CacheConfig fastpath_only;
  fastpath_only.fastpath = true;
  CacheConfig features_only = CacheConfig::Optimized();
  features_only.fastpath = false;
  // Optimized() carries the miss-shortcut; run its exact complement too so
  // a divergence pins on the shortcut itself, not some other optimization.
  CacheConfig no_shortcut = CacheConfig::Optimized();
  no_shortcut.shortcut = false;
  // A deliberately tiny elastic table that the trace below keeps almost
  // permanently mid-resize: equivalence through perpetual migration is the
  // transparency proof for the elastic DLHT (DESIGN.md §15).
  CacheConfig elastic = CacheConfig::Optimized();
  elastic.dlht_buckets = 1 << 5;
  elastic.dlht_min_buckets = 1 << 4;
  elastic.dlht_resize_step = 4;
  // A 16-entry PCC: a large share of fast hits (a tenth to a half, by
  // seed) find their own memo evicted and are proven by the ancestor climb
  // (DESIGN.md deviation 4).
  CacheConfig tiny_pcc = CacheConfig::Optimized();
  tiny_pcc.pcc_bytes = 256;

  World baseline(CacheConfig::Baseline());
  World optimized(lexless);
  World fastpath(fastpath_only);
  World features(features_only);
  World noshortcut(no_shortcut);
  World resizechurn(elastic);
  World tinypcc(tiny_pcc);
  World* worlds[] = {&baseline,   &optimized,   &fastpath, &features,
                     &noshortcut, &resizechurn, &tinypcc};
  const char* labels[] = {"baseline",      "optimized",   "fastpath-only",
                          "features-only", "no-shortcut", "resize-churn",
                          "tiny-pcc"};

  // Each world gets an identical RNG so tasks/paths/ops line up exactly.
  for (int step = 0; step < 1500; ++step) {
    std::string expected;
    for (size_t w = 0; w < std::size(worlds); ++w) {
      Rng rng(seed * 1000003 + static_cast<uint64_t>(step));
      PathPool pool(&rng);
      int op = static_cast<int>(rng.Below(18));
      std::string got = Observe(*worlds[w], rng, pool, op);
      if (w == 0) {
        expected = got;
      } else {
        ASSERT_EQ(got, expected)
            << "divergence at step " << step << " in " << labels[w];
      }
    }
    // Keep the resize-churn world's tables (every namespace — mounts get
    // their own DLHT) migrating: a few buckets move after each step, and a
    // table that goes stable is immediately sent back the other way.
    {
      Kernel& k = *resizechurn.world.kernel;
      for (const auto& ns : k.AllNamespaces()) {
        Dlht& t = ns->dlht();
        if (t.resize_in_flight()) {
          t.MigrateStep(4, &k.stats());
        } else if (step % 3 == 0) {
          size_t target = t.bucket_count() <= (1u << 5)
                              ? t.bucket_count() * 2
                              : t.bucket_count() / 2;
          (void)t.BeginResize(target, &k.stats());
        }
      }
    }
    // Periodic memory pressure on the optimized worlds only: eviction must
    // never change observable behaviour.
    if (step % 400 == 399) {
      for (size_t w = 1; w < std::size(worlds); ++w) {
        std::unique_lock<std::shared_mutex> tree(
            worlds[w]->world.kernel->tree_lock());
        worlds[w]->world.kernel->dcache().Shrink(64);
      }
    }
    // And periodically drop ALL caches everywhere: cold-path
    // reconstruction (stubs, negatives, DLHT repopulation) must converge
    // to the same observable state.
    if (step % 700 == 699) {
      for (World* world : worlds) {
        world->world.kernel->DropCaches();
      }
    }
  }
  // The tiny-PCC world must actually have exercised the climb.
  const CacheStats& tiny = tinypcc.world.kernel->stats();
  EXPECT_GT(tiny.pcc_climbs.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dircache
