// Fastpath mechanics (§3): DLHT/PCC hits, coherence with chmod/chown/
// rename (§3.2), credential isolation, directory-reference semantics,
// symlink aliases (§4.2), and the Figure 6 test hooks.
#include "src/core/pcc.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

class FastpathTest : public ::testing::Test {
 protected:
  FastpathTest() : world_(CacheConfig::Optimized()) {
    Task& t = *world_.root;
    EXPECT_OK(t.Mkdir("/home"));
    EXPECT_OK(t.Mkdir("/home/alice"));
    EXPECT_OK(t.Mkdir("/home/alice/docs"));
    auto fd = t.Open("/home/alice/docs/file", kOCreat | kOWrite);
    EXPECT_OK(fd);
    EXPECT_OK(t.Close(*fd));
    EXPECT_OK(t.Chmod("/home", 0755));
    EXPECT_OK(t.Chmod("/home/alice", 0755));
    EXPECT_OK(t.Chmod("/home/alice/docs", 0755));
  }

  uint64_t FastHits() { return world_.kernel->stats().fastpath_hits.value(); }

  TestWorld world_;
};

TEST_F(FastpathTest, SecondLookupHitsFastpath) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // slowpath, populates
  uint64_t before = FastHits();
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_EQ(FastHits(), before + 1);
}

TEST_F(FastpathTest, FastpathSurvivesSlowpathForbidden) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  PathWalker::forbid_slowpath = true;
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  PathWalker::forbid_slowpath = false;
}

TEST_F(FastpathTest, ChmodOfAncestorInvalidatesPrefixChecks) {
  TaskPtr alice = world_.UserTask(1000, 1000);
  ASSERT_OK(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  ASSERT_OK(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // fastpath warm
  // Root revokes search permission on an ancestor.
  ASSERT_OK(world_.root->Chmod("/home/alice", 0700));
  // Alice (uid 1000, not the owner — dirs are root-owned here) must now be
  // denied, with NO stale fastpath grant.
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
  // Restore and verify recovery.
  ASSERT_OK(world_.root->Chmod("/home/alice", 0755));
  EXPECT_OK(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_OK(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
}

TEST_F(FastpathTest, ChownOfAncestorInvalidates) {
  TaskPtr bob = world_.UserTask(1001, 1001);
  ASSERT_OK(world_.root->Chmod("/home/alice", 0750));
  ASSERT_OK(world_.root->Chown("/home/alice", 1001, 1001));
  EXPECT_OK(bob->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_OK(bob->Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // warm
  ASSERT_OK(world_.root->Chown("/home/alice", 0, 0));
  EXPECT_ERR(bob->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, RenameInvalidatesOldPath) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  ASSERT_OK(t.Rename("/home/alice/docs", "/home/alice/papers"));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kENOENT);
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/papers/file", 0));
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/papers/file", 0));
}

TEST_F(FastpathTest, CredentialsDoNotShareGrants) {
  TaskPtr alice = world_.UserTask(1000, 1000);
  TaskPtr bob = world_.UserTask(1001, 1001);
  ASSERT_OK(world_.root->Mkdir("/private"));
  ASSERT_OK(world_.root->Chown("/private", 1000, 1000));
  ASSERT_OK(world_.root->Chmod("/private", 0700));
  auto fd = alice->Open("/private/secret", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(alice->Close(*fd));
  // Alice warms her PCC on the path.
  ASSERT_OK(alice->Statx(kAtFdCwd, "/private/secret", 0));
  ASSERT_OK(alice->Statx(kAtFdCwd, "/private/secret", 0));
  // Bob must not ride Alice's memoized prefix checks.
  EXPECT_ERR(bob->Statx(kAtFdCwd, "/private/secret", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, SameCredSharesPcc) {
  TaskPtr a1 = world_.UserTask(1000, 1000);
  TaskPtr a2 = a1->Fork();  // same cred object
  ASSERT_OK(a1->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  uint64_t before = FastHits();
  ASSERT_OK(a2->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_EQ(FastHits(), before + 1);  // a2 benefits from a1's prefix check
  EXPECT_EQ(a1->cred().get(), a2->cred().get());
}

TEST_F(FastpathTest, CommitCredsDedupPreservesPcc) {
  TaskPtr alice = world_.UserTask(1000, 1000);
  const Cred* cred_before = alice->cred().get();
  // Re-applying an identical identity must keep the cred (and its PCC).
  alice->SetCred(MakeCred(1000, 1000));
  EXPECT_EQ(alice->cred().get(), cred_before);
  // A different identity replaces it.
  alice->SetCred(MakeCred(1000, 2000));
  EXPECT_NE(alice->cred().get(), cred_before);
}

TEST_F(FastpathTest, NegativeLookupsHitFastpath) {
  Task& t = *world_.root;
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/docs/nope", 0), Errno::kENOENT);
  uint64_t before = FastHits();
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/docs/nope", 0), Errno::kENOENT);
  EXPECT_EQ(FastHits(), before + 1);
  // Creating the file must kill the negative.
  auto fd = t.Open("/home/alice/docs/nope", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/nope", 0));
}

TEST_F(FastpathTest, DeepNegativesServeFullPaths) {
  Task& t = *world_.root;
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/gone/x/y/z", 0), Errno::kENOENT);
  uint64_t before = FastHits();
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/gone/x/y/z", 0), Errno::kENOENT);
  EXPECT_EQ(FastHits(), before + 1);
  // Creating the intermediate as a file flips the suffix to ENOTDIR.
  auto fd = t.Open("/home/alice/gone", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/home/alice/gone/x/y/z", 0), Errno::kENOTDIR);
}

TEST_F(FastpathTest, EnotdirDeepNegatives) {
  Task& t = *world_.root;
  auto fd = t.Open("/plainfile", kOCreat | kOWrite);
  ASSERT_OK(fd);
  ASSERT_OK(t.Close(*fd));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/plainfile/below", 0), Errno::kENOTDIR);
  uint64_t before = FastHits();
  EXPECT_ERR(t.Statx(kAtFdCwd, "/plainfile/below", 0), Errno::kENOTDIR);
  EXPECT_EQ(FastHits(), before + 1);  // cached ENOTDIR (§5.2)
}

TEST_F(FastpathTest, TrailingSymlinkFollowUsesTargetSignature) {
  Task& t = *world_.root;
  ASSERT_OK(t.Symlink("/home/alice/docs/file", "/shortcut"));
  ASSERT_OK(t.Statx(kAtFdCwd, "/shortcut", 0));  // slowpath: memoizes target sig
  uint64_t before = FastHits();
  ASSERT_OK(t.Statx(kAtFdCwd, "/shortcut", 0));
  EXPECT_EQ(FastHits(), before + 1);
}

TEST_F(FastpathTest, MidPathSymlinkAliasHits) {
  Task& t = *world_.root;
  ASSERT_OK(t.Symlink("/home/alice", "/al"));
  ASSERT_OK(t.Statx(kAtFdCwd, "/al/docs/file", 0));  // builds alias chain
  uint64_t before = FastHits();
  ASSERT_OK(t.Statx(kAtFdCwd, "/al/docs/file", 0));
  EXPECT_EQ(FastHits(), before + 1);
  // Target-side permission changes must invalidate alias-path access too.
  TaskPtr alice = world_.UserTask(1000, 1000);
  ASSERT_OK(alice->Statx(kAtFdCwd, "/al/docs/file", 0));
  ASSERT_OK(alice->Statx(kAtFdCwd, "/al/docs/file", 0));
  ASSERT_OK(world_.root->Chmod("/home/alice/docs", 0700));
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/al/docs/file", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, SymlinkRemovalDropsAliases) {
  Task& t = *world_.root;
  ASSERT_OK(t.Symlink("/home/alice", "/al2"));
  ASSERT_OK(t.Statx(kAtFdCwd, "/al2/docs/file", 0));
  ASSERT_OK(t.Statx(kAtFdCwd, "/al2/docs/file", 0));
  ASSERT_OK(t.Unlink("/al2"));
  EXPECT_ERR(t.Statx(kAtFdCwd, "/al2/docs/file", 0), Errno::kENOENT);
}

TEST_F(FastpathTest, DotDotPathsStayCorrect) {
  Task& t = *world_.root;
  ASSERT_OK(t.Mkdir("/home/alice/music"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/music/../docs/file", 0));
  }
  // Permission change on the dir being exited must be honored.
  TaskPtr alice = world_.UserTask(1000, 1000);
  EXPECT_OK(alice->Statx(kAtFdCwd, "/home/alice/music/../docs/file", 0));
  EXPECT_OK(alice->Statx(kAtFdCwd, "/home/alice/music/../docs/file", 0));
  ASSERT_OK(world_.root->Chmod("/home/alice/music", 0700));
  // POSIX semantics: alice needs search permission on music to pass
  // through it, even though ".." leaves immediately.
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/home/alice/music/../docs/file", 0),
             Errno::kEACCES);
}

TEST_F(FastpathTest, DirectoryReferenceSemantics) {
  // §3.2: a process keeps using its cwd after an ancestor permission
  // revocation, but that must not leak cacheable full-path grants.
  TaskPtr alice = world_.UserTask(1000, 1000);
  ASSERT_OK(world_.root->Chmod("/home/alice", 0755));
  ASSERT_OK(alice->Chdir("/home/alice/docs"));
  EXPECT_OK(alice->Statx(kAtFdCwd, "file", 0));
  ASSERT_OK(world_.root->Chmod("/home/alice", 0700));  // revoke
  // Relative access through the retained cwd still works...
  EXPECT_OK(alice->Statx(kAtFdCwd, "file", 0));
  EXPECT_OK(alice->Statx(kAtFdCwd, "file", 0));
  // ...but absolute access is now denied — including right after the
  // relative lookups above (no PCC laundering).
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, BindAliasWalkGrantsNothingOnThePublishedPath) {
  // /locked/d is reachable through /locked (closed to others) and, bound,
  // through /open/view. Root publishes the plain path first; alice's walks
  // through the bind must not memoize a grant that the plain path's fast
  // lookup then reads as its own.
  Task& root = *world_.root;
  auto build = [](Task& t) {
    EXPECT_OK(t.Mkdir("/locked"));
    EXPECT_OK(t.Mkdir("/locked/d"));
    EXPECT_OK(t.Chmod("/locked/d", 0755));
    auto fd = t.Open("/locked/d/leaf", kOCreat | kOWrite);
    EXPECT_OK(fd);
    EXPECT_OK(t.Close(*fd));
    EXPECT_OK(t.Chmod("/locked", 0700));
    EXPECT_OK(t.Mkdir("/open"));
    EXPECT_OK(t.Chmod("/open", 0755));
    EXPECT_OK(t.Mkdir("/open/view"));
    EXPECT_OK(t.BindMount("/locked/d", "/open/view"));
  };
  build(root);
  ASSERT_OK(root.Statx(kAtFdCwd, "/locked/d/leaf", 0));
  ASSERT_OK(root.Statx(kAtFdCwd, "/locked/d/leaf", 0));
  TaskPtr alice = world_.UserTask(1000, 1000);
  EXPECT_OK(alice->Statx(kAtFdCwd, "/open/view/leaf", 0));
  EXPECT_OK(alice->Statx(kAtFdCwd, "/open/view/leaf", 0));
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/locked/d/leaf", 0), Errno::kEACCES);
  EXPECT_ERR(alice->Statx(kAtFdCwd, "/locked/d/leaf", 0), Errno::kEACCES);

  TestWorld baseline(CacheConfig::Baseline());
  build(*baseline.root);
  TaskPtr balice = baseline.UserTask(1000, 1000);
  EXPECT_OK(balice->Statx(kAtFdCwd, "/open/view/leaf", 0));
  EXPECT_ERR(balice->Statx(kAtFdCwd, "/locked/d/leaf", 0), Errno::kEACCES);
}

TEST_F(FastpathTest, ForcedMissFallsBackCorrectly) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  PathWalker::force_fastpath_miss = true;
  uint64_t before = FastHits();
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_EQ(FastHits(), before);  // fastpath bypassed
  PathWalker::force_fastpath_miss = false;
}

TEST_F(FastpathTest, PrivilegedBypassDisablesAcceleration) {
  // §3.3: "disallowing signature-based lookup acceleration for privileged
  // binaries" — implemented here behind a config flag.
  CacheConfig cfg = CacheConfig::Optimized();
  cfg.fastpath_for_privileged = false;
  TestWorld hardened(cfg);
  Task& root = *hardened.root;
  ASSERT_OK(root.Mkdir("/sys"));
  auto fd = root.Open("/sys/shadow", kOCreat | kOWrite, 0600);
  ASSERT_OK(fd);
  ASSERT_OK(root.Close(*fd));
  ASSERT_OK(root.Statx(kAtFdCwd, "/sys/shadow", 0));
  uint64_t fast_before = hardened.kernel->stats().fastpath_hits.value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(root.Statx(kAtFdCwd, "/sys/shadow", 0));  // root: slowpath only
  }
  EXPECT_EQ(hardened.kernel->stats().fastpath_hits.value(), fast_before);
  // Unprivileged tasks still ride the fastpath.
  ASSERT_OK(root.Chmod("/sys", 0755));
  ASSERT_OK(root.Chmod("/sys/shadow", 0644));
  TaskPtr user = hardened.UserTask(1000, 1000);
  ASSERT_OK(user->Statx(kAtFdCwd, "/sys/shadow", 0));
  ASSERT_OK(user->Statx(kAtFdCwd, "/sys/shadow", 0));
  EXPECT_GT(hardened.kernel->stats().fastpath_hits.value(), fast_before);
}

TEST_F(FastpathTest, PccEpochFlushOnWraparound) {
  Task& t = *world_.root;
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  ASSERT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  // Simulate the version-counter wraparound: bump the global PCC epoch.
  world_.kernel->BumpPccEpoch();
  uint64_t before = FastHits();
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // PCC self-flushed: slow
  EXPECT_EQ(FastHits(), before);
  EXPECT_OK(t.Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // repopulated
  EXPECT_EQ(FastHits(), before + 1);
}

TEST_F(FastpathTest, LabelLsmDecisionsAreMemoizedAndInvalidated) {
  auto lsm = std::make_unique<LabelLsm>();
  LabelLsm* lsm_ptr = lsm.get();
  world_.kernel->security().AddModule(std::move(lsm));
  ASSERT_OK(world_.root->SetSecurityLabel("/home/alice", "alice_home"));
  TaskPtr agent = world_.UserTask(1000, 1000, {}, "agent_t");
  // No rule: (agent_t, alice_home) denied for exec.
  EXPECT_ERR(agent->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
  lsm_ptr->Allow("agent_t", "alice_home", kMayRead | kMayExec);
  // Policy changed: caller must invalidate (the LSM contract). Relabeling
  // with the same label reuses the subtree invalidation path.
  ASSERT_OK(world_.root->SetSecurityLabel("/home/alice", "alice_home"));
  EXPECT_OK(agent->Statx(kAtFdCwd, "/home/alice/docs/file", 0));
  EXPECT_OK(agent->Statx(kAtFdCwd, "/home/alice/docs/file", 0));  // memoized
  lsm_ptr->ClearRule("agent_t", "alice_home");
  ASSERT_OK(world_.root->SetSecurityLabel("/home/alice", "alice_home"));
  EXPECT_ERR(agent->Statx(kAtFdCwd, "/home/alice/docs/file", 0), Errno::kEACCES);
}

// Ancestor-climb PCC fallback (DESIGN.md deviation 4): a DLHT hit whose own
// prefix memo is gone is proven from the nearest memoized ancestor plus
// direct search checks on the directories in between.
class AncestorClimbTest : public ::testing::Test {
 protected:
  static constexpr const char* kLeaf = "/d1/d2/d3/d4/d5/leaf";  // depth 6

  AncestorClimbTest() : world_(CacheConfig::Optimized()) {
    BuildTree(world_);
    alice_ = world_.UserTask(1000, 1000);
  }

  // Root-owned 0755 directories d1..d5 and a regular file below them.
  static void BuildTree(TestWorld& w) {
    Task& t = *w.root;
    std::string dir;
    for (const char* c : {"d1", "d2", "d3", "d4", "d5"}) {
      dir += "/";
      dir += c;
      EXPECT_OK(t.Mkdir(dir));
      EXPECT_OK(t.Chmod(dir, 0755));
    }
    auto fd = t.Open(kLeaf, kOCreat | kOWrite);
    EXPECT_OK(fd);
    EXPECT_OK(t.Close(*fd));
  }

  // The cached dentry a literal path names inside the root file system
  // (no symlink following, no mount crossing). Returned unreferenced:
  // nothing in these tests evicts.
  Dentry* Cached(std::string_view path) {
    DentryCache& dc = world_.kernel->dcache();
    Dentry* d = world_.root->root().dentry();
    std::string_view rest = path;
    while (d != nullptr && !rest.empty()) {
      size_t slash = rest.find('/');
      std::string_view comp = rest.substr(0, slash);
      rest = slash == std::string_view::npos ? "" : rest.substr(slash + 1);
      if (comp.empty()) {
        continue;
      }
      Dentry* child = dc.LookupRef(d, comp);
      if (child != nullptr) {
        dc.Dput(child);
      } else {
        // Aliases are invisible to the primary hash (§4.2).
        SpinGuard guard(d->lock);
        if (const ChildArray* kids = d->children()) {
          for (Dentry* c : kids->tail()) {
            if (c->TestFlags(kDentAlias) && c->name() == comp) {
              child = c;
            }
          }
        }
      }
      d = child;
    }
    EXPECT_NE(d, nullptr) << path;
    return d;
  }

  // Leave `task`'s PCC holding pointer memos for exactly `paths`.
  void MemoizeOnly(Task& task, std::initializer_list<const char*> paths) {
    Pcc* pcc = task.cred()->pcc();
    ASSERT_NE(pcc, nullptr);
    pcc->Flush();
    for (const char* p : paths) {
      Dentry* d = Cached(p);
      ASSERT_NE(d, nullptr);
      pcc->Insert(d, d->fast.seq.load(std::memory_order_acquire));
    }
  }

  CacheStats& S() { return world_.kernel->stats(); }

  // Statx with the slowpath forbidden (enforced where asserts are on).
  Result<Stat> FastStatx(Task& t, const char* path) {
    PathWalker::forbid_slowpath = true;
    Result<Stat> r = t.Statx(kAtFdCwd, path, 0);
    PathWalker::forbid_slowpath = false;
    return r;
  }

  TestWorld world_;
  TaskPtr alice_;
};

TEST_F(AncestorClimbTest, GrandparentMemoServesDepthSixLeaf) {
  ASSERT_OK(alice_->Statx(kAtFdCwd, kLeaf, 0));  // slowpath: DLHT + memos
  const uint64_t climbs = S().pcc_climbs.value();
  ASSERT_OK(FastStatx(*alice_, kLeaf));  // the leaf's own memo: no climb
  EXPECT_EQ(S().pcc_climbs.value(), climbs);
  MemoizeOnly(*alice_, {"/d1/d2/d3/d4"});
  const uint64_t hits = S().fastpath_hits.value();
  const uint64_t slow = S().slowpath_walks.value();
  const uint64_t hops = S().pcc_climb_hops.value();
  const uint64_t pcc_hits = S().pcc_hits.value();
  ASSERT_OK(FastStatx(*alice_, kLeaf));
  EXPECT_EQ(S().fastpath_hits.value(), hits + 1);
  EXPECT_EQ(S().slowpath_walks.value(), slow);
  EXPECT_EQ(S().pcc_climbs.value(), climbs + 1);
  EXPECT_EQ(S().pcc_climb_hops.value(), hops + 2);  // d5, then d4's memo
  EXPECT_EQ(S().pcc_hits.value(), pcc_hits);  // ancestor probes uncounted
  // The climb memoizes nothing: the leaf's next lookup climbs again.
  ASSERT_OK(FastStatx(*alice_, kLeaf));
  EXPECT_EQ(S().pcc_climbs.value(), climbs + 2);
}

TEST_F(AncestorClimbTest, SearchDeniedBetweenMemoAndLeafMatchesBaseline) {
  ASSERT_OK(alice_->Statx(kAtFdCwd, kLeaf, 0));
  // Others lose search permission on d5, below the memoized d4. Root (who
  // keeps it through the owner bit) re-publishes the leaf in the DLHT.
  ASSERT_OK(world_.root->Chmod("/d1/d2/d3/d4/d5", 0754));
  ASSERT_OK(world_.root->Statx(kAtFdCwd, kLeaf, 0));
  ASSERT_OK(world_.root->Statx(kAtFdCwd, kLeaf, 0));
  MemoizeOnly(*alice_, {"/d1/d2/d3/d4"});
  const uint64_t hits = S().fastpath_hits.value();
  const uint64_t climbs = S().pcc_climbs.value();
  const uint64_t dlht_hits = S().dlht_hits.value();
  EXPECT_ERR(alice_->Statx(kAtFdCwd, kLeaf, 0), Errno::kEACCES);
  EXPECT_GT(S().dlht_hits.value(), dlht_hits);  // the climb did run
  EXPECT_EQ(S().fastpath_hits.value(), hits);
  EXPECT_EQ(S().pcc_climbs.value(), climbs);

  TestWorld baseline(CacheConfig::Baseline());
  BuildTree(baseline);
  TaskPtr alice = baseline.UserTask(1000, 1000);
  ASSERT_OK(alice->Statx(kAtFdCwd, kLeaf, 0));
  ASSERT_OK(baseline.root->Chmod("/d1/d2/d3/d4/d5", 0754));
  EXPECT_ERR(alice->Statx(kAtFdCwd, kLeaf, 0), Errno::kEACCES);
}

TEST_F(AncestorClimbTest, TrailingSymlinkTargetClimbs) {
  ASSERT_OK(world_.root->Symlink(kLeaf, "/sl"));
  ASSERT_OK(alice_->Statx(kAtFdCwd, "/sl", 0));  // memoizes the target sig
  MemoizeOnly(*alice_, {"/sl", "/d1/d2/d3/d4"});
  const uint64_t hits = S().fastpath_hits.value();
  const uint64_t climbs = S().pcc_climbs.value();
  ASSERT_OK(FastStatx(*alice_, "/sl"));
  EXPECT_EQ(S().fastpath_hits.value(), hits + 1);
  EXPECT_EQ(S().pcc_climbs.value(), climbs + 1);
}

TEST_F(AncestorClimbTest, DotDotProbeClimbs) {
  const char* kDotDot = "/d1/d2/d3/d4/d5/../d5/leaf";
  ASSERT_OK(alice_->Statx(kAtFdCwd, kDotDot, 0));
  ASSERT_OK(alice_->Statx(kAtFdCwd, kLeaf, 0));
  MemoizeOnly(*alice_, {"/d1/d2/d3"});
  const uint64_t hits = S().fastpath_hits.value();
  const uint64_t climbs = S().pcc_climbs.value();
  ASSERT_OK(FastStatx(*alice_, kDotDot));
  EXPECT_EQ(S().fastpath_hits.value(), hits + 1);
  EXPECT_EQ(S().pcc_climbs.value(), climbs + 2);  // d5 on "..", then leaf
}

TEST_F(AncestorClimbTest, AliasStopsTheClimbButItsTargetMayClimb) {
  ASSERT_OK(world_.root->Symlink("/d1/d2/d3", "/al"));
  const char* kAlias = "/al/d4/d5/leaf";
  ASSERT_OK(alice_->Statx(kAtFdCwd, kAlias, 0));  // builds the alias chain
  ASSERT_TRUE(Cached(kAlias)->TestFlags(kDentAlias));
  // The alias's own memo is gone; its parent alias and its target keep
  // theirs. Alias paths are never climbed: slowpath.
  MemoizeOnly(*alice_, {"/al/d4/d5", kLeaf});
  uint64_t hits = S().fastpath_hits.value();
  const uint64_t climbs = S().pcc_climbs.value();
  EXPECT_OK(alice_->Statx(kAtFdCwd, kAlias, 0));
  EXPECT_EQ(S().fastpath_hits.value(), hits);
  EXPECT_EQ(S().pcc_climbs.value(), climbs);
  // With the alias's memo, the target's evicted memo is proven by a climb.
  MemoizeOnly(*alice_, {kAlias, "/d1/d2/d3/d4"});
  hits = S().fastpath_hits.value();
  ASSERT_OK(FastStatx(*alice_, kAlias));
  EXPECT_EQ(S().fastpath_hits.value(), hits + 1);
  EXPECT_EQ(S().pcc_climbs.value(), climbs + 1);
}

TEST_F(AncestorClimbTest, ClimbStopsAtTheRootOfTheLeafsMount) {
  Task& root = *world_.root;
  // /d1/d2 bound at /locked/view: the bound tree's paths need search
  // permission on /locked, which alice lacks, and never pass through d1.
  ASSERT_OK(root.Mkdir("/locked"));
  ASSERT_OK(root.Chmod("/locked", 0700));
  ASSERT_OK(root.Mkdir("/locked/view"));
  ASSERT_OK(root.BindMount("/d1/d2", "/locked/view"));
  const char* kBound = "/locked/view/d3/d4/d5/leaf";
  ASSERT_OK(alice_->Statx(kAtFdCwd, "/d1", 0));
  ASSERT_OK(root.Statx(kAtFdCwd, kBound, 0));  // the leaf's DLHT path
  ASSERT_OK(root.Statx(kAtFdCwd, kBound, 0));
  MemoizeOnly(*alice_, {"/", "/d1"});
  const uint64_t hits = S().fastpath_hits.value();
  const uint64_t climbs = S().pcc_climbs.value();
  EXPECT_ERR(alice_->Statx(kAtFdCwd, kBound, 0), Errno::kEACCES);
  EXPECT_EQ(S().fastpath_hits.value(), hits);
  EXPECT_EQ(S().pcc_climbs.value(), climbs);
  // The plain path is the same dentries and still resolves.
  EXPECT_OK(alice_->Statx(kAtFdCwd, kLeaf, 0));
}

TEST_F(AncestorClimbTest, ClimbStopsAtACoveredMountpoint) {
  Task& root = *world_.root;
  auto dfd = alice_->Open("/d1/d2/d3", kORead | kODirectory);
  ASSERT_OK(dfd);
  ASSERT_OK(root.Mount("/d1/d2/d3", std::make_shared<MemFs>()));
  // Through the descriptor opened before the mount, the covered tree is
  // still reachable (and gets published again under its old path).
  ASSERT_OK(alice_->Statx(*dfd, "d4/d5/leaf", 0));
  ASSERT_OK(alice_->Statx(*dfd, "d4/d5/leaf", 0));
  MemoizeOnly(*alice_, {"/d1/d2"});
  const uint64_t hits = S().fastpath_hits.value();
  const uint64_t climbs = S().pcc_climbs.value();
  EXPECT_ERR(alice_->Statx(kAtFdCwd, kLeaf, 0), Errno::kENOENT);
  EXPECT_EQ(S().fastpath_hits.value(), hits);
  EXPECT_EQ(S().pcc_climbs.value(), climbs);
  ASSERT_OK(alice_->Close(*dfd));
}

TEST_F(AncestorClimbTest, ClimbStopsAtANegativeAncestor) {
  const char* kDeep = "/d1/d2/gone/x/y/z";
  EXPECT_ERR(alice_->Statx(kAtFdCwd, kDeep, 0), Errno::kENOENT);
  ASSERT_TRUE(Cached(kDeep)->IsNegative());
  MemoizeOnly(*alice_, {"/d1/d2"});
  const uint64_t hits = S().fastpath_hits.value();
  const uint64_t climbs = S().pcc_climbs.value();
  EXPECT_ERR(alice_->Statx(kAtFdCwd, kDeep, 0), Errno::kENOENT);
  EXPECT_EQ(S().fastpath_hits.value(), hits);
  EXPECT_EQ(S().pcc_climbs.value(), climbs);
}

TEST_F(AncestorClimbTest, ClimbStopsAtADeadAncestor) {
  ASSERT_OK(alice_->Statx(kAtFdCwd, kLeaf, 0));
  MemoizeOnly(*alice_, {"/d1/d2/d3/d4"});
  // Kill d5 alone, as an eviction would (d4 stops being complete): its
  // cached child stays in the DLHT with an unchanged seq, the state a
  // lookup racing the teardown of the tree can observe.
  DentryCache& dc = world_.kernel->dcache();
  Dentry* d5 = Cached("/d1/d2/d3/d4/d5");
  Cached("/d1/d2/d3/d4")->ClearFlags(kDentDirComplete);
  dc.Kill(d5);
  const uint64_t hits = S().fastpath_hits.value();
  const uint64_t climbs = S().pcc_climbs.value();
  EXPECT_OK(alice_->Statx(kAtFdCwd, kLeaf, 0));  // slowpath re-reads d5
  EXPECT_EQ(S().fastpath_hits.value(), hits);
  EXPECT_EQ(S().pcc_climbs.value(), climbs);
  dc.KillCachedChildren(d5);  // releases the orphaned leaf, then d5
}

}  // namespace
}  // namespace dircache
