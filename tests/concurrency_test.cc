// Concurrency: lock-free readers racing structural mutations (§3.2).
// Readers must never crash, never see torn state, and never observe a
// result that was not true at some point during the race window.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/util/rng.h"
#include "src/vfs/walk.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

class ConcurrencyTest : public ::testing::TestWithParam<bool> {
 protected:
  ConcurrencyTest()
      : world_(GetParam() ? CacheConfig::Optimized()
                          : CacheConfig::Baseline()) {}

  // Post-condition for every race in this suite: once the threads are
  // joined, the dcache/DLHT/LRU cross-structure invariants must hold
  // (DESIGN.md §10) — a lifecycle race that didn't crash still fails here.
  void TearDown() override {
    obs::AuditReport report = world_.kernel->Audit();
    EXPECT_TRUE(report.clean()) << report.ToText();
  }

  TestWorld world_;
};

TEST_P(ConcurrencyTest, StatsRaceRenames) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/a"));
  ASSERT_OK(t.Mkdir("/a/b"));
  auto fd = t.Open("/a/b/f", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> oks{0};
  std::atomic<uint64_t> enoents{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      TaskPtr task = world_.root->Fork();
      while (!stop.load(std::memory_order_acquire)) {
        for (const char* p : {"/a/b/f", "/a2/b/f"}) {
          auto r = task->Statx(kAtFdCwd, p, 0);
          if (r.ok()) {
            oks.fetch_add(1);
            // Any successful stat must describe the real file.
            EXPECT_TRUE(r->IsRegular());
          } else {
            EXPECT_TRUE(r.error() == Errno::kENOENT ||
                        r.error() == Errno::kENOTDIR)
                << ErrnoName(r.error());
            enoents.fetch_add(1);
          }
        }
      }
    });
  }
  // The mutator bounces the top directory between two names, continuing
  // until the readers have observed both outcomes (a single-CPU scheduler
  // may not run them for the first few thousand renames).
  TaskPtr mut = world_.root->Fork();
  int i = 0;
  for (; i < 200000; ++i) {
    ASSERT_OK(mut->Rename((i & 1) != 0 ? "/a2" : "/a",
                          (i & 1) != 0 ? "/a" : "/a2"));
    if (i >= 600 && oks.load() > 0 && enoents.load() > 0) {
      break;
    }
    if ((i & 255) == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_GT(oks.load(), 0u);
  EXPECT_GT(enoents.load(), 0u);
}

TEST_P(ConcurrencyTest, PermissionRevocationIsNeverLeaked) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/home"));
  ASSERT_OK(t.Mkdir("/home/alice", 0755));
  auto fd = t.Open("/home/alice/secret", kOCreat | kOWrite, 0644);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));

  std::atomic<bool> stop{false};
  // Monotonic phase word (never repeats, so the reader's stable-window
  // check cannot be fooled by a full mutator cycle): low 2 bits encode the
  // state — 0 = open (0755), 1 = closed (0700), 2 = transitioning.
  std::atomic<uint64_t> phase{2};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      TaskPtr alice = world_.UserTask(1000, 1000);
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t before = phase.load(std::memory_order_acquire);
        auto r = alice->Statx(kAtFdCwd, "/home/alice/secret", 0);
        uint64_t after = phase.load(std::memory_order_acquire);
        // Only a definitive claim when the phase word was stable around
        // the op (exact equality: the word never repeats).
        if (before == after) {
          if ((before & 3) == 1 && r.ok()) {
            violations.fetch_add(1);
            ADD_FAILURE() << "stale GRANT after revocation";
          }
          if ((before & 3) == 0 && !r.ok()) {
            violations.fetch_add(1);
            ADD_FAILURE() << "stale DENIAL after restore: "
                          << ErrnoName(r.error());
          }
        }
      }
    });
  }
  for (uint64_t i = 1; i <= 200; ++i) {
    // A stable phase word of state 1 (or 0) implies the corresponding
    // chmod fully completed and no other transition overlapped the window.
    phase.store(i * 16 + 2, std::memory_order_release);
    ASSERT_OK(t.Chmod("/home/alice", 0700));
    phase.store(i * 16 + 1, std::memory_order_release);
    std::this_thread::yield();
    phase.store(i * 16 + 6, std::memory_order_release);
    ASSERT_OK(t.Chmod("/home/alice", 0755));
    phase.store(i * 16 + 4, std::memory_order_release);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(violations.load(), 0u);
}

TEST_P(ConcurrencyTest, CreateUnlinkChurnWithReaders) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/churn"));
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  // Two creator/deleter threads on disjoint names, one readdir thread, one
  // stat thread.
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      TaskPtr task = world_.root->Fork();
      for (int i = 0; i < 300; ++i) {
        std::string p = "/churn/w" + std::to_string(w) + "_" +
                        std::to_string(i % 10);
        auto fd = task->Open(p, kOCreat | kOWrite);
        if (fd.ok()) {
          (void)task->Close(*fd);
        }
        (void)task->Unlink(p);
      }
    });
  }
  workers.emplace_back([&] {
    TaskPtr task = world_.root->Fork();
    while (!stop.load(std::memory_order_acquire)) {
      auto dfd = task->Open("/churn", kORead | kODirectory);
      if (!dfd.ok()) {
        continue;
      }
      while (true) {
        auto b = task->ReadDirFd(*dfd, 16);
        if (!b.ok() || b->empty()) {
          break;
        }
        for (auto& e : *b) {
          EXPECT_TRUE(e.name.rfind("w", 0) == 0) << e.name;
        }
      }
      (void)task->Close(*dfd);
    }
  });
  workers.emplace_back([&] {
    TaskPtr task = world_.root->Fork();
    while (!stop.load(std::memory_order_acquire)) {
      (void)task->Statx(kAtFdCwd, "/churn/w0_3", 0);
      (void)task->Statx(kAtFdCwd, "/churn/w1_7", 0);
      (void)task->Statx(kAtFdCwd, "/churn/none", 0);
    }
  });
  workers[0].join();
  workers[1].join();
  stop.store(true, std::memory_order_release);
  workers[2].join();
  workers[3].join();
}

// Cached readdir (§5.1) racing create, unlink and rename in the listed
// directory. Each name publishes its state through a per-name seqcount: a
// mutator makes it odd, changes the name, records whether the name exists
// and makes it even again. A reader snapshots every name before a one-call
// listing and re-reads the counters after it; a name whose counter did not
// move existed (or did not) for the whole call, so the listing must contain
// (or omit) it.
TEST_P(ConcurrencyTest, CachedReaddirRacesCreateUnlinkRename) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/mb"));
  ASSERT_OK(t.Mkdir("/mb/cur"));
  ASSERT_OK(t.Mkdir("/mb/tmp"));
  struct Name {
    std::string name;
    std::atomic<uint32_t> seq{0};
    std::atomic<bool> exists{false};
  };
  constexpr int kStable = 32;
  constexpr int kPerCreator = 8;
  constexpr int kFlagged = 8;
  constexpr int kDelivered = 8;
  std::vector<Name> names(kStable + 2 * kPerCreator + 2 * kFlagged +
                          kDelivered);
  std::map<std::string, size_t> index;
  size_t next = 0;
  auto add = [&](const std::string& n, bool create) {
    Name& slot = names[next];
    slot.name = n;
    index[n] = next++;
    if (create) {
      auto fd = t.Open("/mb/cur/" + n, kOCreat | kOWrite);
      ASSERT_OK(fd);
      ASSERT_OK(t.Close(*fd));
      slot.exists.store(true);
    }
  };
  for (int i = 0; i < kStable; ++i) {
    add("stable" + std::to_string(i), true);
  }
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < kPerCreator; ++i) {
      add("c" + std::to_string(w) + "_" + std::to_string(i), false);
    }
  }
  for (int i = 0; i < kFlagged; ++i) {
    add("m" + std::to_string(i) + ":2,", true);
    add("m" + std::to_string(i) + ":2,S", false);
  }
  for (int i = 0; i < kDelivered; ++i) {
    add("d" + std::to_string(i), false);
  }
  // Runs `op` with the named entries' counters odd, then records whether
  // each name exists afterwards.
  auto mutate = [&](Task& task, std::initializer_list<Name*> ns,
                    auto&& op) {
    for (Name* n : ns) {
      n->seq.fetch_add(1);
    }
    op();
    for (Name* n : ns) {
      auto st = task.Statx(kAtFdCwd, "/mb/cur/" + n->name, 0);
      n->exists.store(st.ok());
      n->seq.fetch_add(1);
    }
  };
  auto at = [&](const std::string& n) { return &names[index.at(n)]; };

  const uint64_t cached0 = world_.kernel->stats().readdir_cached.value();
  const uint64_t fs0 = world_.kernel->stats().readdir_uncached.value();
  // Mutators start once both readers run, so listings overlap mutations
  // even when the scheduler starts the readers last.
  std::atomic<int> readers_started{0};
  auto await_readers = [&] {
    while (readers_started.load() < 2) {
      std::this_thread::yield();
    }
  };
  std::atomic<int> mutators_left{4};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      TaskPtr task = world_.root->Fork();
      await_readers();
      for (int i = 0; i < 400; ++i) {
        Name* n = at("c" + std::to_string(w) + "_" +
                     std::to_string(i % kPerCreator));
        const std::string path = "/mb/cur/" + n->name;
        mutate(*task, {n}, [&] {
          if (n->exists.load()) {
            EXPECT_OK(task->Unlink(path));
          } else {
            auto fd = task->Open(path, kOCreat | kOWrite);
            EXPECT_OK(fd);
            if (fd.ok()) {
              EXPECT_OK(task->Close(*fd));
            }
          }
        });
      }
      mutators_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {  // flag toggles: rename within cur/
    TaskPtr task = world_.root->Fork();
    await_readers();
    for (int i = 0; i < 400; ++i) {
      const std::string m = "m" + std::to_string(i % kFlagged);
      Name* plain = at(m + ":2,");
      Name* flagged = at(m + ":2,S");
      Name* from = plain->exists.load() ? plain : flagged;
      Name* to = from == plain ? flagged : plain;
      mutate(*task, {from, to}, [&] {
        EXPECT_OK(task->Rename("/mb/cur/" + from->name, "/mb/cur/" + to->name));
      });
    }
    mutators_left.fetch_sub(1);
  });
  threads.emplace_back([&] {  // deliveries tmp/ -> cur/, then expunges
    TaskPtr task = world_.root->Fork();
    await_readers();
    for (int i = 0; i < 400; ++i) {
      Name* n = at("d" + std::to_string(i % kDelivered));
      if (n->exists.load()) {
        mutate(*task, {n},
               [&] { EXPECT_OK(task->Unlink("/mb/cur/" + n->name)); });
        continue;
      }
      auto fd = task->Open("/mb/tmp/" + n->name, kOCreat | kOWrite);
      EXPECT_OK(fd);
      if (!fd.ok()) {
        continue;
      }
      EXPECT_OK(task->Close(*fd));
      mutate(*task, {n}, [&] {
        EXPECT_OK(task->Rename("/mb/tmp/" + n->name, "/mb/cur/" + n->name));
      });
    }
    mutators_left.fetch_sub(1);
  });
  std::atomic<uint64_t> listings{0};
  std::atomic<uint64_t> checked_present{0};
  std::atomic<uint64_t> checked_absent{0};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      TaskPtr task = world_.root->Fork();
      std::vector<uint32_t> before(names.size());
      std::vector<bool> existed(names.size());
      std::vector<int> seen(names.size());
      readers_started.fetch_add(1);
      while (mutators_left.load() > 0) {
        for (size_t i = 0; i < names.size(); ++i) {
          before[i] = names[i].seq.load();
          existed[i] = names[i].exists.load();
        }
        auto dfd = task->Open("/mb/cur", kORead | kODirectory);
        ASSERT_OK(dfd);
        auto batch = task->ReadDirFd(*dfd, 4096);
        ASSERT_OK(batch);
        std::fill(seen.begin(), seen.end(), 0);
        for (const DirEntry& e : *batch) {
          auto it = index.find(e.name);
          ASSERT_NE(it, index.end()) << "listed unknown name " << e.name;
          ++seen[it->second];
        }
        for (size_t i = 0; i < names.size(); ++i) {
          EXPECT_LE(seen[i], 1) << names[i].name << " listed twice";
          const uint32_t after = names[i].seq.load();
          if (after != before[i] || (after & 1) != 0) {
            continue;  // mutated during the call: either answer is right
          }
          EXPECT_EQ(seen[i] == 1, existed[i])
              << names[i].name << (existed[i] ? " missing" : " resurrected");
          (existed[i] ? checked_present : checked_absent).fetch_add(1);
        }
        ASSERT_OK(task->Close(*dfd));
        listings.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_GT(listings.load(), 0u);
  EXPECT_GT(checked_present.load(), 0u);
  EXPECT_GT(checked_absent.load(), 0u);
  if (GetParam()) {
    // The directory stayed DIR_COMPLETE, so every listing came from the
    // dcache's child list.
    EXPECT_GE(world_.kernel->stats().readdir_cached.value() - cached0,
              listings.load());
    EXPECT_EQ(world_.kernel->stats().readdir_uncached.value(), fs0);
  }
}

TEST_P(ConcurrencyTest, EvictionRacesLookups) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/pool"));
  for (int i = 0; i < 200; ++i) {
    auto fd = t.Open("/pool/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      TaskPtr task = world_.root->Fork();
      Rng rng(static_cast<uint64_t>(i) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        std::string p = "/pool/f" + std::to_string(rng.Below(200));
        auto r = task->Statx(kAtFdCwd, p, 0);
        EXPECT_TRUE(r.ok()) << ErrnoName(r.error()) << " for " << p;
      }
    });
  }
  for (int round = 0; round < 100; ++round) {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    world_.kernel->dcache().Shrink(64);
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  // Everything must still resolve afterwards.
  for (int i = 0; i < 200; ++i) {
    EXPECT_OK(t.Statx(kAtFdCwd, "/pool/f" + std::to_string(i), 0));
  }
}

// Regression for a use-after-free in DentryCache::Release: eviction used to
// Iput the inode eagerly while epoch-retiring only the dentry, so an
// optimistic reader that had found the dentry before it was unhashed could
// dereference a freed inode (heap corruption, flaky under ASan). The fix
// defers the Iput into the dentry's epoch deleter. This loops the repro
// body many times with short racing windows — before the fix it tripped
// ASan within a handful of iterations.
TEST_P(ConcurrencyTest, EvictionReleasesInodeAfterGrace) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/evict"));
  constexpr int kFiles = 64;
  for (int i = 0; i < kFiles; ++i) {
    auto fd = t.Open("/evict/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int i = 0; i < 2; ++i) {
      readers.emplace_back([&, i, iter] {
        TaskPtr task = world_.root->Fork();
        Rng rng(static_cast<uint64_t>(iter) * 31 + i + 1);
        while (!stop.load(std::memory_order_acquire)) {
          std::string p = "/evict/f" + std::to_string(rng.Below(kFiles));
          auto r = task->Statx(kAtFdCwd, p, 0);
          EXPECT_TRUE(r.ok()) << ErrnoName(r.error()) << " for " << p;
        }
      });
    }
    for (int round = 0; round < 8; ++round) {
      std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
      world_.kernel->dcache().Shrink(32);
    }
    stop.store(true, std::memory_order_release);
    for (auto& r : readers) {
      r.join();
    }
  }
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_OK(t.Statx(kAtFdCwd, "/evict/f" + std::to_string(i), 0));
  }
}

// Rename of a directory with a large cached subtree must be equivalent to
// an atomic move: once a rename returns (which, in the optimized kernel,
// includes its DEFERRED subtree invalidation pass completing and the
// coherence gate closing), no observer may still resolve the old path or
// fail to resolve the new one. The monotonic phase word gives readers a
// stable window in which to make that definitive claim.
TEST_P(ConcurrencyTest, RenameOfCachedSubtreeLinearizes) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/r"));
  ASSERT_OK(t.Mkdir("/r/d"));
  std::vector<std::string> files;
  for (int i = 0; i < 32; ++i) {
    std::string p = "/r/d/f" + std::to_string(i);
    auto fd = t.Open(p, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
    files.push_back(p);
  }
  // Warm the caches so the rename's invalidation pass has a real subtree.
  for (const std::string& p : files) {
    ASSERT_OK(t.Statx(kAtFdCwd, p, 0));
  }

  std::atomic<bool> stop{false};
  // Monotonic, never-repeating phase word; low 2 bits: 0 = subtree at /r,
  // 1 = at /r2, 2 = rename in flight.
  std::atomic<uint64_t> phase{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      TaskPtr task = world_.root->Fork();
      Rng rng(static_cast<uint64_t>(i) + 99);
      while (!stop.load(std::memory_order_acquire)) {
        std::string leaf = "/d/f" + std::to_string(rng.Below(32));
        uint64_t before = phase.load(std::memory_order_acquire);
        auto at_old = task->Statx(kAtFdCwd, "/r" + leaf, 0);
        auto at_new = task->Statx(kAtFdCwd, "/r2" + leaf, 0);
        uint64_t after = phase.load(std::memory_order_acquire);
        if (before != after) {
          continue;  // a rename overlapped: no definitive claim
        }
        if ((before & 3) == 0) {
          EXPECT_OK(at_old);
          EXPECT_FALSE(at_new.ok()) << "old AND new path both resolved";
        } else if ((before & 3) == 1) {
          EXPECT_FALSE(at_old.ok()) << "old path resolved after rename";
          EXPECT_OK(at_new);
        }
        if (at_old.ok()) {
          EXPECT_TRUE(at_old->IsRegular());
        }
        if (at_new.ok()) {
          EXPECT_TRUE(at_new->IsRegular());
        }
      }
    });
  }
  TaskPtr mut = world_.root->Fork();
  for (uint64_t i = 1; i <= 120; ++i) {
    phase.store(i * 8 + 2, std::memory_order_release);
    ASSERT_OK(mut->Rename("/r", "/r2"));
    phase.store(i * 8 + 1, std::memory_order_release);
    std::this_thread::yield();
    phase.store(i * 8 + 6, std::memory_order_release);
    ASSERT_OK(mut->Rename("/r2", "/r"));
    phase.store(i * 8 + 4, std::memory_order_release);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
}

// The ISSUE's mutator storm: renames of directories with large cached
// subtrees racing stat/open traffic on those same subtrees, with a full
// invariant audit after every phase (build, storm, settle).
TEST_P(ConcurrencyTest, MutatorStormOnLargeCachedSubtrees) {
  Task& t = *world_.root;
  constexpr int kDirs = 8;
  constexpr int kFiles = 24;
  for (int d = 0; d < kDirs; ++d) {
    std::string dir = "/big/d" + std::to_string(d);
    if (d == 0) {
      ASSERT_OK(t.Mkdir("/big"));
    }
    ASSERT_OK(t.Mkdir(dir));
    for (int f = 0; f < kFiles; ++f) {
      auto fd = t.Open(dir + "/f" + std::to_string(f), kOCreat | kOWrite);
      ASSERT_OK(fd);
      ASSERT_OK(t.Close(*fd));
    }
  }
  // Warm every path so the storm's invalidation passes do real work.
  for (int d = 0; d < kDirs; ++d) {
    for (int f = 0; f < kFiles; ++f) {
      ASSERT_OK(t.Statx(kAtFdCwd, "/big/d" + std::to_string(d) + "/f" +
                           std::to_string(f), 0));
    }
  }
  {
    obs::AuditReport built = world_.kernel->Audit();
    ASSERT_TRUE(built.clean()) << built.ToText();
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&, i] {
      TaskPtr task = world_.root->Fork();
      Rng rng(static_cast<uint64_t>(i) * 31 + 7);
      while (!stop.load(std::memory_order_acquire)) {
        std::string leaf = "/d" + std::to_string(rng.Below(kDirs)) + "/f" +
                           std::to_string(rng.Below(kFiles));
        const char* base = rng.Below(2) == 0 ? "/big" : "/big2";
        if (rng.Below(2) == 0) {
          auto r = task->Statx(kAtFdCwd, base + leaf, 0);
          if (r.ok()) {
            hits.fetch_add(1);
            EXPECT_TRUE(r->IsRegular());
          } else {
            misses.fetch_add(1);
            EXPECT_TRUE(r.error() == Errno::kENOENT ||
                        r.error() == Errno::kENOTDIR)
                << ErrnoName(r.error());
          }
        } else {
          auto fd = task->Open(base + leaf, kORead);
          if (fd.ok()) {
            hits.fetch_add(1);
            EXPECT_OK(task->Close(*fd));
          } else {
            misses.fetch_add(1);
          }
        }
      }
    });
  }
  TaskPtr mut = world_.root->Fork();
  int renames = 0;
  for (; renames < 100000; ++renames) {
    ASSERT_OK(mut->Rename((renames & 1) != 0 ? "/big2" : "/big",
                          (renames & 1) != 0 ? "/big" : "/big2"));
    if (renames >= 200 && hits.load() > 0 && misses.load() > 0) {
      break;
    }
    if ((renames & 63) == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  {
    obs::AuditReport stormed = world_.kernel->Audit();
    ASSERT_TRUE(stormed.clean()) << stormed.ToText();
  }
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(misses.load(), 0u);

  // Settle: everything must resolve under the final name.
  const char* base = (renames & 1) == 0 ? "/big2" : "/big";
  for (int d = 0; d < kDirs; ++d) {
    for (int f = 0; f < kFiles; ++f) {
      EXPECT_OK(t.Statx(kAtFdCwd, std::string(base) + "/d" + std::to_string(d) +
                           "/f" + std::to_string(f), 0));
    }
  }
}

// Cached readdir against the two writers of a directory's child array:
// create/unlink (add a positive, swap-remove it, add a negative) and the
// governor's eviction call (Shrink under the tree write lock), which
// swap-removes idle children and drops DIR_COMPLETE until a full FS scan
// restores it. Every swap-remove rewrites a sibling's slot while readers
// list the same array.
TEST_P(ConcurrencyTest, CachedReaddirRacesShrinkAndCreateUnlink) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/spool"));
  constexpr int kStable = 64;
  constexpr int kChurn = 32;
  std::map<std::string, int> index;  // name -> churn slot, or -1 if stable
  for (int i = 0; i < kStable; ++i) {
    const std::string n = "stable" + std::to_string(i);
    index[n] = -1;
    auto fd = t.Open("/spool/" + n, kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
  // Per churn name: a counter that is odd while the name is being
  // changed, and whether it exists when the counter is even.
  std::vector<std::atomic<uint32_t>> seq(kChurn);
  std::vector<std::atomic<bool>> exists(kChurn);
  for (int i = 0; i < kChurn; ++i) {
    index["churn" + std::to_string(i)] = i;
    seq[i].store(0);
    exists[i].store(false);
  }
  const uint64_t cached0 = world_.kernel->stats().readdir_cached.value();
  std::atomic<int> readers_started{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> listings{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // create/unlink in the listed directory
    TaskPtr task = world_.root->Fork();
    while (readers_started.load() < 2) {
      std::this_thread::yield();
    }
    Rng rng(7);
    for (int i = 0; i < 1500; ++i) {
      const int c = static_cast<int>(rng.Below(kChurn));
      const std::string path = "/spool/churn" + std::to_string(c);
      seq[c].fetch_add(1);
      if (exists[c].load()) {
        EXPECT_OK(task->Unlink(path));
        exists[c].store(false);
      } else {
        auto fd = task->Open(path, kOCreat | kOWrite);
        EXPECT_OK(fd);
        if (fd.ok()) {
          EXPECT_OK(task->Close(*fd));
        }
        exists[c].store(true);
      }
      seq[c].fetch_add(1);
    }
    done.store(true);
  });
  threads.emplace_back([&] {  // the governor's eviction call
    while (!done.load()) {
      {
        std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
        world_.kernel->dcache().Shrink(8);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      TaskPtr task = world_.root->Fork();
      std::vector<uint32_t> before(kChurn);
      std::vector<bool> existed(kChurn);
      readers_started.fetch_add(1);
      while (!done.load()) {
        for (int i = 0; i < kChurn; ++i) {
          before[i] = seq[i].load();
          existed[i] = exists[i].load();
        }
        auto dfd = task->Open("/spool", kORead | kODirectory);
        ASSERT_OK(dfd);
        auto batch = task->ReadDirFd(*dfd, 4096);
        ASSERT_OK(batch);
        ASSERT_OK(task->Close(*dfd));
        std::map<std::string, int> seen;
        for (const DirEntry& e : *batch) {
          ASSERT_NE(index.find(e.name), index.end())
              << "listed unknown name " << e.name;
          EXPECT_EQ(++seen[e.name], 1) << e.name << " listed twice";
        }
        for (int i = 0; i < kStable; ++i) {
          EXPECT_EQ(seen.count("stable" + std::to_string(i)), 1u)
              << "stable" << i << " missing";
        }
        for (int i = 0; i < kChurn; ++i) {
          const uint32_t after = seq[i].load();
          if (after != before[i] || (after & 1) != 0) {
            continue;  // changed during the call: either answer is right
          }
          EXPECT_EQ(seen.count("churn" + std::to_string(i)) == 1,
                    existed[i])
              << "churn" << i << (existed[i] ? " missing" : " resurrected");
        }
        listings.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_GT(listings.load(), 0u);
  if (GetParam()) {
    EXPECT_GT(world_.kernel->stats().readdir_cached.value(), cached0);
  }
  // Quiescent: the listing is exact.
  std::set<std::string> expect;
  for (const auto& [name, c] : index) {
    if (c < 0 || exists[c].load()) {
      expect.insert(name);
    }
  }
  auto dfd = t.Open("/spool", kORead | kODirectory);
  ASSERT_OK(dfd);
  auto batch = t.ReadDirFd(*dfd, 4096);
  ASSERT_OK(batch);
  ASSERT_OK(t.Close(*dfd));
  std::set<std::string> got;
  for (const DirEntry& e : *batch) {
    got.insert(e.name);
  }
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(BothKernels, ConcurrencyTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Optimized" : "Baseline";
                         });

// ---------------------------------------------------------------------------
// Ancestor-climb PCC fallback (DESIGN.md deviation 4) under mutation: with a
// 16-entry PCC most warm hits are proven by climbing to a memoized ancestor,
// so a chmod or rename of a directory on the climbed chain must never let
// one through with the old answer.

class AncestorClimbRaceTest : public ::testing::Test {
 protected:
  static CacheConfig TinyPcc() {
    CacheConfig cfg = CacheConfig::Optimized();
    cfg.pcc_bytes = 256;
    return cfg;
  }

  AncestorClimbRaceTest() : world_(TinyPcc()) {}

  void TearDown() override {
    obs::AuditReport report = world_.kernel->Audit();
    EXPECT_TRUE(report.clean()) << report.ToText();
  }

  TestWorld world_;
};

TEST_F(AncestorClimbRaceTest, ChmodAndRenameStormsOnClimbedDirectories) {
  Task& t = *world_.root;
  constexpr int kLeaves = 16;
  for (const char* d : {"/t", "/t/a", "/t/a/b", "/t/a/b/c", "/t/a/b/c/d"}) {
    ASSERT_OK(t.Mkdir(d, 0755));
  }
  for (int i = 0; i < kLeaves; ++i) {
    auto fd = t.Open("/t/a/b/c/d/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
  // One monotonic word per mutator: word >> 2 counts transitions, bit 1 is
  // set while one is in flight, and bit 0 is the settled state (chmod:
  // 1 = /t/a closed to others; rename: 1 = b is named b2).
  std::atomic<uint64_t> chmod_word{0};
  std::atomic<uint64_t> rename_word{0};
  // The states a reader may have raced with: the stable one, or both when
  // the word moved (or was mid-transition) around the op.
  auto states = [](uint64_t before, uint64_t after) {
    if (before == after && (before & 2) == 0) {
      return std::vector<int>{static_cast<int>(before & 1)};
    }
    return std::vector<int>{0, 1};
  };
  auto expected = [](int closed, int renamed, bool via_b2) {
    if (closed != 0) {
      return Errno::kEACCES;
    }
    return (renamed != 0) == via_b2 ? Errno::kOk : Errno::kENOENT;
  };

  const uint64_t climbs0 = world_.kernel->stats().pcc_climbs.value();
  std::atomic<int> readers_started{0};
  std::atomic<int> mutators_left{2};
  std::atomic<uint64_t> definitive{0};
  std::atomic<uint64_t> reads{0};
  constexpr int kReaders = 3;
  auto await_readers = [&] {
    while (readers_started.load() < kReaders) {
      std::this_thread::yield();
    }
  };
  // Lets the readers finish `n` more lookups: a settled window in which the
  // PCC re-warms and hits go back to climbing.
  auto await_reads = [&](uint64_t n) {
    const uint64_t target = reads.load() + n;
    while (reads.load() < target) {
      std::this_thread::yield();
    }
  };
  auto storm = [&](std::atomic<uint64_t>& word, auto&& flip) {
    TaskPtr task = world_.root->Fork();
    await_readers();
    for (uint64_t i = 1; i <= 300; ++i) {
      const uint64_t state = i & 1;
      word.store(((i - 1) << 2) | 2, std::memory_order_release);
      flip(*task, state);
      word.store(i << 2 | state, std::memory_order_release);
      if ((i & 3) < 2) {
        await_reads(2 * kLeaves);  // settles in both states
      }
    }
    mutators_left.fetch_sub(1);
  };
  std::thread chmods([&] {
    storm(chmod_word, [](Task& task, uint64_t closed) {
      EXPECT_OK(task.Chmod("/t/a", closed != 0 ? 0750 : 0755));
    });
  });
  std::thread renames([&] {
    storm(rename_word, [](Task& task, uint64_t renamed) {
      EXPECT_OK(renamed != 0 ? task.Rename("/t/a/b", "/t/a/b2")
                             : task.Rename("/t/a/b2", "/t/a/b"));
    });
  });
  std::vector<std::thread> readers;
  // Reader 0 is root: search permission never stops it, so it keeps the
  // leaves in the DLHT even while /t/a is closed, and alice's lookups then
  // hit there and must be refused by the climb's own search checks.
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const bool is_root = r == 0;
      TaskPtr task =
          is_root ? world_.root->Fork() : world_.UserTask(1000, 1000);
      readers_started.fetch_add(1);
      for (uint64_t n = r; mutators_left.load() > 0; ++n) {
        if (n % 8 == 7) {
          // Keeps /t's memo warm: the ancestor every climb can end at.
          EXPECT_OK(task->Statx(kAtFdCwd, "/t", 0));
          continue;
        }
        const bool via_b2 = (n & 1) != 0;
        const std::string path = std::string(via_b2 ? "/t/a/b2" : "/t/a/b") +
                                 "/c/d/f" + std::to_string(n % kLeaves);
        const uint64_t c0 = chmod_word.load(std::memory_order_acquire);
        const uint64_t r0 = rename_word.load(std::memory_order_acquire);
        auto res = task->Statx(kAtFdCwd, path, 0);
        const uint64_t c1 = chmod_word.load(std::memory_order_acquire);
        const uint64_t r1 = rename_word.load(std::memory_order_acquire);
        const Errno got = res.ok() ? Errno::kOk : res.error();
        bool allowed = false;
        for (int closed : states(c0, c1)) {
          for (int renamed : states(r0, r1)) {
            allowed = allowed ||
                      got == expected(is_root ? 0 : closed, renamed, via_b2);
          }
        }
        EXPECT_TRUE(allowed) << path << " -> " << ErrnoName(got);
        if (res.ok()) {
          EXPECT_TRUE(res->IsRegular());
        }
        if (c0 == c1 && r0 == r1 && (c0 & 2) == 0 && (r0 & 2) == 0) {
          definitive.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  chmods.join();
  renames.join();
  for (std::thread& th : readers) {
    th.join();
  }
  EXPECT_GT(definitive.load(), 0u);
  // Warm the settled tree: the tiny PCC must have been climbing.
  TaskPtr alice = world_.UserTask(1000, 1000);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kLeaves; ++i) {
      EXPECT_OK(alice->Statx(kAtFdCwd, "/t/a/b/c/d/f" + std::to_string(i), 0));
    }
  }
  EXPECT_GT(world_.kernel->stats().pcc_climbs.value(), climbs0);
}

// ---------------------------------------------------------------------------
// Invalidation engine: parallel passes, gate progress, overlapping subtrees.
// Runs on the optimized kernel with a low parallel threshold so the worker
// pool actually engages at test-sized subtrees.

class InvalEngineTest : public ::testing::Test {
 protected:
  static CacheConfig Config() {
    CacheConfig cfg = CacheConfig::Optimized();
    cfg.inval_parallel_threshold = 256;
    cfg.inval_max_workers = 4;
    return cfg;
  }

  InvalEngineTest() : world_(Config()) {}

  void TearDown() override {
    obs::AuditReport report = world_.kernel->Audit();
    EXPECT_TRUE(report.clean()) << report.ToText();
  }

  TestWorld world_;
};

// Acceptance: concurrent lookups make bounded-retry progress while a
// 10k-dentry invalidation is in flight. Deterministic on a single CPU: the
// coherence gate is held open explicitly (exactly the state every walk
// observes mid-pass), lookups are required to complete through the
// slowpath, and the pass itself then runs concurrently with more lookups.
TEST_F(InvalEngineTest, LookupsProgressDuringTenThousandDentryInvalidation) {
  Task& t = *world_.root;
  constexpr int kDirs = 50;
  constexpr int kFiles = 200;  // 50*200 files + 50 dirs + root > 10k dentries
  ASSERT_OK(t.Mkdir("/huge"));
  for (int d = 0; d < kDirs; ++d) {
    std::string dir = "/huge/d" + std::to_string(d);
    ASSERT_OK(t.Mkdir(dir));
    for (int f = 0; f < kFiles; ++f) {
      auto fd = t.Open(dir + "/f" + std::to_string(f), kOCreat | kOWrite);
      ASSERT_OK(fd);
      ASSERT_OK(t.Close(*fd));
    }
  }
  ASSERT_OK(t.Mkdir("/other"));
  auto ofd = t.Open("/other/f", kOCreat | kOWrite);
  ASSERT_OK(ofd);
  ASSERT_OK(t.Close(*ofd));
  ASSERT_OK(t.Statx(kAtFdCwd, "/other/f", 0));  // warm

  PathWalker walker(world_.kernel.get());
  auto huge = walker.Resolve(*world_.root, nullptr, "/huge", 0);
  ASSERT_OK(huge);

  TaskPtr reader = world_.root->Fork();
  {
    CoherenceSection section(&world_.kernel->dcache());
    // Gate open == a deferred pass is in flight somewhere. Every lookup
    // must still complete (falling back to the slowpath), not spin or
    // block on the gate.
    for (int i = 0; i < 200; ++i) {
      ASSERT_OK(reader->Statx(kAtFdCwd, "/other/f", 0));
      ASSERT_OK(reader->Statx(kAtFdCwd, "/huge/d0/f0", 0));
    }
    // Now run the real 10k-dentry pass while lookups keep flowing.
    std::thread inval(
        [&] { section.InvalidateNow(huge->dentry()); });
    for (int i = 0; i < 200; ++i) {
      ASSERT_OK(reader->Statx(kAtFdCwd, "/other/f", 0));
      ASSERT_OK(reader->Statx(kAtFdCwd, "/huge/d1/f1", 0));
    }
    inval.join();
    section.Close();
  }

  InvalPassStats stats = world_.kernel->dcache().last_inval_stats();
  EXPECT_GE(stats.visited, 10000u);
  EXPECT_EQ(stats.workers, 4u);  // threshold 256 << 10k: pool engaged
  EXPECT_GT(stats.dlht_batches, 0u);
  // Everything still resolves after the pass.
  ASSERT_OK(reader->Statx(kAtFdCwd, "/huge/d49/f199", 0));
  ASSERT_OK(reader->Statx(kAtFdCwd, "/other/f", 0));
}

// Overlapping subtree invalidations (chmod on nested directories from many
// threads) racing readers: no sequence number may be reused or skipped in a
// way the auditor's pcc_seq family can detect, and the structures must be
// clean afterwards (TearDown runs the audit; PCC checks included via the
// reader credentials' caches being validated lazily on their next use).
TEST_F(InvalEngineTest, OverlappingSubtreeInvalidationsKeepSeqsCoherent) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/s"));
  ASSERT_OK(t.Mkdir("/s/a"));
  ASSERT_OK(t.Mkdir("/s/a/b"));
  for (int i = 0; i < 300; ++i) {
    std::string dir = i % 3 == 0 ? "/s" : (i % 3 == 1 ? "/s/a" : "/s/a/b");
    auto fd = t.Open(dir + "/f" + std::to_string(i), kOCreat | kOWrite);
    ASSERT_OK(fd);
    ASSERT_OK(t.Close(*fd));
  }
  for (int i = 0; i < 300; ++i) {
    std::string dir = i % 3 == 0 ? "/s" : (i % 3 == 1 ? "/s/a" : "/s/a/b");
    ASSERT_OK(t.Statx(kAtFdCwd, dir + "/f" + std::to_string(i), 0));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      TaskPtr task = world_.root->Fork();
      Rng rng(static_cast<uint64_t>(i) + 17);
      while (!stop.load(std::memory_order_acquire)) {
        int n = static_cast<int>(rng.Below(300));
        std::string dir =
            n % 3 == 0 ? "/s" : (n % 3 == 1 ? "/s/a" : "/s/a/b");
        auto r = task->Statx(kAtFdCwd, dir + "/f" + std::to_string(n), 0);
        EXPECT_OK(r);
      }
    });
  }
  // Three mutators chmodding the three nested roots: their invalidation
  // passes overlap arbitrarily (the engine serializes whole passes, but
  // the coherence sections and counter bumps interleave).
  std::vector<std::thread> mutators;
  for (int m = 0; m < 3; ++m) {
    mutators.emplace_back([&, m] {
      TaskPtr task = world_.root->Fork();
      const char* dir = m == 0 ? "/s" : (m == 1 ? "/s/a" : "/s/a/b");
      for (int i = 0; i < 25; ++i) {
        ASSERT_OK(task->Chmod(dir, (i & 1) != 0 ? 0750 : 0755));
        std::this_thread::yield();
      }
    });
  }
  for (auto& m : mutators) {
    m.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  // Every path still resolves with final modes applied.
  for (int i = 0; i < 300; ++i) {
    std::string dir = i % 3 == 0 ? "/s" : (i % 3 == 1 ? "/s/a" : "/s/a/b");
    EXPECT_OK(t.Statx(kAtFdCwd, dir + "/f" + std::to_string(i), 0));
  }
}

}  // namespace
}  // namespace dircache
