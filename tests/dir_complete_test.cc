// Directory-completeness caching (§5.1): when DIR_COMPLETE is set, when it
// must NOT be set, miss elision, readdir-from-cache coherence, stub
// dentry materialization, and the cached readdir over the listed side of
// each child array.
#include <map>
#include <set>
#include <vector>

#include "src/server/batch.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

class DirCompleteTest : public ::testing::Test {
 protected:
  DirCompleteTest() : world_(CacheConfig::Optimized()) {}

  Task& T() { return *world_.root; }
  DentryCache& dc() { return world_.kernel->dcache(); }

  Dentry* DirDentry(const std::string& name) {
    Dentry* d = dc().LookupRef(world_.root->root().dentry(), name);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) {
      dc().Dput(d);  // return unreferenced; tests only read flags
    }
    return d;
  }

  void ListAll(const std::string& dir, size_t batch = 7,
               std::set<std::string>* out = nullptr) {
    auto dfd = T().Open(dir, kORead | kODirectory);
    ASSERT_OK(dfd);
    while (true) {
      auto b = T().ReadDirFd(*dfd, batch);
      ASSERT_OK(b);
      if (b->empty()) {
        break;
      }
      if (out != nullptr) {
        for (auto& e : *b) {
          out->insert(e.name);
        }
      }
    }
    ASSERT_OK(T().Close(*dfd));
  }

  void Touch(const std::string& path) {
    auto fd = T().Open(path, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  }

  // Reads `fd` to EOF in batches of `batch`, in stream order.
  std::vector<std::string> Drain(FdNum fd, size_t batch) {
    std::vector<std::string> names;
    while (true) {
      auto b = T().ReadDirFd(fd, batch);
      EXPECT_OK(b);
      if (!b.ok() || b->empty()) {
        return names;
      }
      EXPECT_LE(b->size(), batch);
      for (auto& e : *b) {
        names.push_back(e.name);
      }
    }
  }

  // The dentry's children, listed side then tail, as (name, is negative
  // or alias).
  std::vector<std::pair<std::string, bool>> ChildOrder(Dentry* dir) {
    std::vector<std::pair<std::string, bool>> order;
    SpinGuard guard(dir->lock);
    if (const ChildArray* kids = dir->children()) {
      kids->ForEach([&](Dentry* child) {
        order.emplace_back(child->name(),
                           child->TestFlags(kDentNegative | kDentAlias));
      });
    }
    return order;
  }

  TestWorld world_;
};

TEST_F(DirCompleteTest, MkdirStartsComplete) {
  ASSERT_OK(T().Mkdir("/fresh"));
  EXPECT_TRUE(DirDentry("fresh")->TestFlags(kDentDirComplete));
  // A miss inside it never consults the FS (§5.1 file-creation case).
  uint64_t misses = world_.kernel->stats().dcache_misses.value();
  uint64_t elided = world_.kernel->stats().dir_complete_hits.value();
  EXPECT_ERR(T().Statx(kAtFdCwd, "/fresh/nothing", 0), Errno::kENOENT);
  EXPECT_EQ(world_.kernel->stats().dir_complete_hits.value(), elided + 1);
  (void)misses;
}

TEST_F(DirCompleteTest, FullScanSetsCompleteness) {
  // Build a directory through the FS directly so the dcache has no entries.
  ASSERT_OK(T().Mkdir("/scan"));
  for (int i = 0; i < 20; ++i) {
    auto fd = T().Open("/scan/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  }
  // Drop the cache so /scan's children are unknown; re-instantiate the
  // directory dentry itself with a stat.
  world_.kernel->DropCaches();
  ASSERT_OK(T().Statx(kAtFdCwd, "/scan", 0));
  Dentry* scan = DirDentry("scan");
  EXPECT_FALSE(scan->TestFlags(kDentDirComplete));
  ListAll("/scan");
  EXPECT_TRUE(scan->TestFlags(kDentDirComplete));
  // Second scan is served from the cache.
  uint64_t cached = world_.kernel->stats().readdir_cached.value();
  std::set<std::string> names;
  ListAll("/scan", 7, &names);
  EXPECT_GT(world_.kernel->stats().readdir_cached.value(), cached);
  EXPECT_EQ(names.size(), 20u);
}

TEST_F(DirCompleteTest, SeekInterruptsCompletenessScan) {
  ASSERT_OK(T().Mkdir("/seeky"));
  for (int i = 0; i < 10; ++i) {
    auto fd = T().Open("/seeky/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  }
  world_.kernel->DropCaches();
  ASSERT_OK(T().Statx(kAtFdCwd, "/seeky", 0));
  Dentry* dir = DirDentry("seeky");
  auto dfd = T().Open("/seeky", kORead | kODirectory);
  ASSERT_OK(dfd);
  auto b = T().ReadDirFd(*dfd, 4);
  ASSERT_OK(b);
  // A seek into the middle of the stream disqualifies this scan (§5.1).
  ASSERT_OK(T().Lseek(*dfd, b->empty() ? 1 : 5));
  while (true) {
    auto more = T().ReadDirFd(*dfd, 64);
    ASSERT_OK(more);
    if (more->empty()) {
      break;
    }
  }
  ASSERT_OK(T().Close(*dfd));
  EXPECT_FALSE(dir->TestFlags(kDentDirComplete));
}

TEST_F(DirCompleteTest, ReaddirStubsMaterializeOnStat) {
  ASSERT_OK(T().Mkdir("/stubs"));
  for (int i = 0; i < 5; ++i) {
    auto fd = T().Open("/stubs/s" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().WriteFd(*fd, "content!"));
    ASSERT_OK(T().Close(*fd));
  }
  world_.kernel->DropCaches();
  // A listing creates inode-less stub dentries (§5.1).
  ListAll("/stubs");
  Dentry* dir = DirDentry("stubs");
  Dentry* stub = dc().LookupRef(dir, "s3");
  ASSERT_NE(stub, nullptr);
  EXPECT_TRUE(stub->IsStub());
  EXPECT_EQ(stub->inode(), nullptr);
  dc().Dput(stub);
  // Stat materializes the inode from the stub's inode number.
  auto st = T().Statx(kAtFdCwd, "/stubs/s3", 0);
  ASSERT_OK(st);
  EXPECT_EQ(st->size, 8u);
  Dentry* real = dc().LookupRef(dir, "s3");
  ASSERT_NE(real, nullptr);
  EXPECT_FALSE(real->IsStub());
  EXPECT_NE(real->inode(), nullptr);
  dc().Dput(real);
}

TEST_F(DirCompleteTest, CreateAndUnlinkKeepCompleteness) {
  ASSERT_OK(T().Mkdir("/mix"));
  Dentry* dir = DirDentry("mix");
  EXPECT_TRUE(dir->TestFlags(kDentDirComplete));
  auto fd = T().Open("/mix/a", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(T().Close(*fd));
  EXPECT_TRUE(dir->TestFlags(kDentDirComplete));  // coherent insert
  ASSERT_OK(T().Unlink("/mix/a"));
  EXPECT_TRUE(dir->TestFlags(kDentDirComplete));  // coherent removal
  // And listings reflect reality throughout.
  std::set<std::string> names;
  ListAll("/mix", 7, &names);
  EXPECT_TRUE(names.empty());
}

TEST_F(DirCompleteTest, CompletenessAcceleratesCreation) {
  // mkstemp-style creation under a complete directory never asks the FS
  // whether the random name exists (§5.1).
  ASSERT_OK(T().Mkdir("/tmpd"));
  uint64_t elided_before = world_.kernel->stats().dir_complete_hits.value();
  for (int i = 0; i < 32; ++i) {
    auto fd = T().Open("/tmpd/rand" + std::to_string(i * 7919),
                       kOCreat | kOExcl | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(T().Close(*fd));
  }
  EXPECT_GE(world_.kernel->stats().dir_complete_hits.value(),
            elided_before + 32);
}

TEST_F(DirCompleteTest, BaselineNeverSetsFlag) {
  TestWorld baseline(CacheConfig::Baseline());
  ASSERT_OK(baseline.root->Mkdir("/plain"));
  Dentry* d = baseline.kernel->dcache().LookupRef(
      baseline.root->root().dentry(), "plain");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->TestFlags(kDentDirComplete));
  baseline.kernel->dcache().Dput(d);
}

TEST_F(DirCompleteTest, CachedReaddirSkipsUnlinkedNames) {
  ASSERT_OK(T().Mkdir("/half"));
  // Creations and unlinks interleave, as in a mailbox: most files are
  // created after earlier ones became negatives.
  std::set<std::string> survivors;
  for (int i = 0; i < 2000; ++i) {
    std::string name = "f" + std::to_string(i);
    Touch("/half/" + name);
    if (i % 2 == 1) {
      ASSERT_OK(T().Unlink("/half/f" + std::to_string(i - 1)));
      survivors.insert(name);
    }
  }
  // The unlinks left 1000 negatives behind, all after the positives.
  auto order = ChildOrder(DirDentry("half"));
  ASSERT_EQ(order.size(), 2000u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].second, i >= 1000) << i << " " << order[i].first;
  }
  uint64_t cached = world_.kernel->stats().readdir_cached.value();
  auto dfd = T().Open("/half", kORead | kODirectory);
  ASSERT_OK(dfd);
  std::vector<std::string> names = Drain(*dfd, 4096);
  ASSERT_OK(T().Close(*dfd));
  EXPECT_EQ(names.size(), 1000u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), survivors);
  EXPECT_EQ(world_.kernel->stats().readdir_cached.value(), cached + 2);
}

TEST_F(DirCompleteTest, SmallBatchesReturnEachPositiveOnce) {
  ASSERT_OK(T().Mkdir("/small"));
  std::set<std::string> expect;
  for (int i = 0; i < 60; ++i) {
    Touch("/small/f" + std::to_string(i));
    expect.insert("f" + std::to_string(i));
  }
  for (int i = 0; i < 60; i += 3) {
    ASSERT_OK(T().Unlink("/small/f" + std::to_string(i)));
    expect.erase("f" + std::to_string(i));
  }
  EXPECT_ERR(T().Statx(kAtFdCwd, "/small/never", 0), Errno::kENOENT);
  auto dfd = T().Open("/small", kORead | kODirectory);
  ASSERT_OK(dfd);
  std::vector<std::string> names = Drain(*dfd, 7);
  EXPECT_EQ(names.size(), expect.size());
  std::multiset<std::string> seen(names.begin(), names.end());
  for (const std::string& n : expect) {
    EXPECT_EQ(seen.count(n), 1u) << n;
  }
  // Past EOF the stream stays at EOF.
  auto more = T().ReadDirFd(*dfd, 7);
  ASSERT_OK(more);
  EXPECT_TRUE(more->empty());
  ASSERT_OK(T().Close(*dfd));
}

TEST_F(DirCompleteTest, SeekOnReturnedAndOverflowedStreams) {
  ASSERT_OK(T().Mkdir("/seek"));
  for (int i = 0; i < 20; ++i) {
    Touch("/seek/f" + std::to_string(i));
  }
  ASSERT_OK(T().Unlink("/seek/f4"));
  ASSERT_TRUE(DirDentry("seek")->TestFlags(kDentDirComplete));
  for (size_t batch : {size_t{4096}, size_t{7}}) {
    SCOPED_TRACE(batch);
    auto dfd = T().Open("/seek", kORead | kODirectory);
    ASSERT_OK(dfd);
    const std::vector<std::string> whole = Drain(*dfd, batch);
    ASSERT_EQ(whole.size(), 19u);
    // Rewind: the stream starts over.
    ASSERT_OK(T().Lseek(*dfd, 0));
    EXPECT_EQ(Drain(*dfd, batch), whole);
    // A mid-stream seek resumes at that index of the listing.
    ASSERT_OK(T().Lseek(*dfd, 5));
    EXPECT_EQ(Drain(*dfd, batch),
              std::vector<std::string>(whole.begin() + 5, whole.end()));
    // Seeking mid-way through a partly read stream.
    ASSERT_OK(T().Lseek(*dfd, 0));
    auto first = T().ReadDirFd(*dfd, batch);
    ASSERT_OK(first);
    ASSERT_OK(T().Lseek(*dfd, 12));
    EXPECT_EQ(Drain(*dfd, batch),
              std::vector<std::string>(whole.begin() + 12, whole.end()));
    // Past the end is EOF.
    ASSERT_OK(T().Lseek(*dfd, 100));
    EXPECT_TRUE(Drain(*dfd, batch).empty());
    ASSERT_OK(T().Close(*dfd));
  }
}

// A seek into a cache-served stream lists the cached children again even
// after an eviction cleared DIR_COMPLETE: the offset indexes the cached
// listing, so the children still cached come back, not an empty EOF.
TEST_F(DirCompleteTest, SeekAfterEvictionListsTheRemainingChildren) {
  ASSERT_OK(T().Mkdir("/ev"));
  std::set<std::string> all;
  for (int i = 0; i < 20; ++i) {
    Touch("/ev/f" + std::to_string(i));
    all.insert("f" + std::to_string(i));
  }
  Dentry* ev = DirDentry("ev");
  ASSERT_TRUE(ev->TestFlags(kDentDirComplete));
  auto dfd = T().Open("/ev", kORead | kODirectory);
  ASSERT_OK(dfd);
  const uint64_t cached = world_.kernel->stats().readdir_cached.value();
  const std::vector<std::string> whole = Drain(*dfd, 4096);
  ASSERT_EQ(std::set<std::string>(whole.begin(), whole.end()), all);
  ASSERT_GT(world_.kernel->stats().readdir_cached.value(), cached);

  // Evict one dentry at a time until a child of /ev goes (the open fd
  // pins /ev itself).
  while (ev->TestFlags(kDentDirComplete)) {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    ASSERT_EQ(dc().Shrink(1), 1u);
  }
  size_t remaining = 0;
  {
    SpinGuard guard(ev->lock);
    ASSERT_NE(ev->children(), nullptr);
    remaining = ev->children()->listed().size();
  }
  ASSERT_GT(remaining, 1u);
  ASSERT_LT(remaining, all.size());

  ASSERT_OK(T().Lseek(*dfd, 1));
  const std::vector<std::string> rest = Drain(*dfd, 7);
  EXPECT_EQ(rest.size(), remaining - 1);
  for (const std::string& n : rest) {
    EXPECT_EQ(all.count(n), 1u) << n;
  }
  EXPECT_EQ(std::set<std::string>(rest.begin(), rest.end()).size(),
            rest.size());
  ASSERT_OK(T().Close(*dfd));

  // A fresh stream no longer trusts the cache and lists every name.
  std::set<std::string> relisted;
  ListAll("/ev", 7, &relisted);
  EXPECT_EQ(relisted, all);
}

TEST_F(DirCompleteTest, CallerVectorKeepsNoStaleTail) {
  ASSERT_OK(T().Mkdir("/long"));
  ASSERT_OK(T().Mkdir("/short"));
  for (int i = 0; i < 100; ++i) {
    Touch("/long/a_rather_long_message_name_" + std::to_string(i));
  }
  for (int i = 0; i < 10; ++i) {
    Touch("/short/s" + std::to_string(i));
  }
  std::vector<DirEntry> ents;
  for (const char* dir : {"/long", "/short", "/long"}) {
    auto dfd = T().Open(dir, kORead | kODirectory);
    ASSERT_OK(dfd);
    server::Sqe sqe = server::Sqe::Readdir(*dfd, &ents, 4096);
    server::Cqe cqe;
    T().SubmitBatch(&sqe, 1, &cqe);
    ASSERT_TRUE(cqe.ok()) << cqe.error_name();
    const size_t want = dir == std::string("/long") ? 100 : 10;
    EXPECT_EQ(static_cast<size_t>(cqe.res), want);
    ASSERT_EQ(ents.size(), want);
    std::set<std::string> names;
    for (const DirEntry& e : ents) {
      names.insert(e.name);
      auto st = T().Statx(kAtFdCwd, std::string(dir) + "/" + e.name, 0);
      ASSERT_OK(st);
      EXPECT_EQ(st->ino, e.ino) << e.name;
    }
    EXPECT_EQ(names.size(), want);
    // The next call reports EOF as an empty vector.
    T().SubmitBatch(&sqe, 1, &cqe);
    EXPECT_EQ(cqe.res, 0);
    EXPECT_TRUE(ents.empty());
    ASSERT_OK(T().Close(*dfd));
    // Refill for the next directory from a full vector.
    ents.resize(100);
    ents.back().name = "stale";
  }
  // A failing call leaves the vector alone.
  server::Sqe bad = server::Sqe::Readdir(12345, &ents, 4096);
  server::Cqe cqe;
  T().SubmitBatch(&bad, 1, &cqe);
  EXPECT_EQ(cqe.error(), Errno::kEBADF);
  EXPECT_EQ(ents.size(), 100u);
}

TEST_F(DirCompleteTest, FlagRenamesAndDeliveriesKeepChildOrder) {
  ASSERT_OK(T().Mkdir("/mb"));
  ASSERT_OK(T().Mkdir("/mb/cur"));
  ASSERT_OK(T().Mkdir("/mb/tmp"));
  std::map<int, bool> flagged;  // message -> carries the S flag
  auto name = [&](int m, bool f) {
    return "m" + std::to_string(m) + (f ? ":2,S" : ":2,");
  };
  for (int m = 0; m < 40; ++m) {
    Touch("/mb/cur/" + name(m, false));
    flagged[m] = false;
  }
  int next = 40;
  for (int round = 0; round < 200; ++round) {
    const int m = (round * 7) % next;
    if (flagged.count(m) != 0) {
      ASSERT_OK(T().Rename("/mb/cur/" + name(m, flagged[m]),
                           "/mb/cur/" + name(m, !flagged[m])));
      flagged[m] = !flagged[m];
    }
    if (round % 7 == 0) {  // an APPEND creates straight into cur/
      Touch("/mb/cur/" + name(next, false));
      flagged[next++] = false;
    }
    if (round % 3 == 0) {
      Touch("/mb/tmp/d" + std::to_string(next));
      ASSERT_OK(T().Rename("/mb/tmp/d" + std::to_string(next),
                           "/mb/cur/" + name(next, false)));
      flagged[next++] = false;
    }
    if (round % 5 == 0 && !flagged.empty()) {
      auto victim = flagged.begin();
      ASSERT_OK(T().Unlink("/mb/cur/" + name(victim->first, victim->second)));
      flagged.erase(victim);
    }
    if (round % 20 == 0) {
      std::set<std::string> names;
      ListAll("/mb/cur", 4096, &names);
      std::set<std::string> expect;
      for (const auto& [msg, f] : flagged) {
        expect.insert(name(msg, f));
      }
      EXPECT_EQ(names, expect) << "round " << round;
    }
  }
  ASSERT_TRUE(DirDentry("mb")->TestFlags(kDentDirComplete));
  obs::AuditReport report = world_.kernel->Audit();
  EXPECT_TRUE(report.clean()) << report.ToText();
}

TEST_F(DirCompleteTest, AuditFlagsCorruptChildSlot) {
  ASSERT_OK(T().Mkdir("/order"));
  Touch("/order/a");
  Touch("/order/b");
  EXPECT_ERR(T().Statx(kAtFdCwd, "/order/gone", 0), Errno::kENOENT);
  Dentry* dir = DirDentry("order");
  ASSERT_TRUE(world_.kernel->Audit().clean());
  Dentry* pos = nullptr;
  Dentry* neg = nullptr;
  {
    SpinGuard guard(dir->lock);
    ASSERT_EQ(dir->children()->listed().size(), 2u);
    ASSERT_EQ(dir->children()->tail().size(), 1u);
    pos = dir->children()->listed()[0];
    neg = dir->children()->tail()[0];
    ASSERT_TRUE(neg->IsNegative());
  }
  // Each corruption by hand must be noticed, and restoring the slot must
  // make the audit clean again.
  const uint32_t pos_slot = pos->child_slot;
  const uint32_t neg_slot = neg->child_slot;
  for (uint32_t bad : {pos_slot ^ 1u, pos_slot | ChildArray::kTailBit,
                       ChildArray::kNoSlot}) {
    pos->child_slot = bad;
    obs::AuditReport report = world_.kernel->Audit();
    ASSERT_FALSE(report.clean()) << bad;
    EXPECT_EQ(report.violations[0].check, obs::AuditCheck::kTreeStructure);
    pos->child_slot = pos_slot;
    EXPECT_TRUE(world_.kernel->Audit().clean());
  }
  neg->child_slot = neg_slot & ~ChildArray::kTailBit;
  obs::AuditReport report = world_.kernel->Audit();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.violations[0].check, obs::AuditCheck::kTreeStructure);
  neg->child_slot = neg_slot;
  EXPECT_TRUE(world_.kernel->Audit().clean());
}

}  // namespace
}  // namespace dircache
