// Dentry cache internals: primary-hash lookup, instantiation, lifecycle
// (lockref protocol), LRU eviction, invalidation, d_move.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/core/dlht.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace dircache {
namespace {

class DcacheTest : public ::testing::Test {
 protected:
  DcacheTest() : world_(CacheConfig::Optimized()) {}

  DentryCache& dc() { return world_.kernel->dcache(); }
  Dentry* Root() { return world_.root->root().dentry(); }

  // Create a file via the syscall layer and return its dentry, referenced,
  // by walking the primary hash table component-by-component.
  Dentry* MakeFile(const std::string& path) {
    auto fd = world_.root->Open(path, kOCreat | kOWrite);
    EXPECT_TRUE(fd.ok());
    if (fd.ok()) {
      EXPECT_TRUE(world_.root->Close(*fd).ok());
    }
    Dentry* cur = Root();
    cur->DgetHeld();
    size_t pos = 1;
    while (pos <= path.size()) {
      size_t slash = path.find('/', pos);
      std::string name = path.substr(
          pos, slash == std::string::npos ? std::string::npos : slash - pos);
      Dentry* next = dc().LookupRef(cur, name);
      dc().Dput(cur);
      EXPECT_NE(next, nullptr) << "component " << name;
      if (next == nullptr) {
        return nullptr;
      }
      cur = next;
      if (slash == std::string::npos) {
        break;
      }
      pos = slash + 1;
    }
    return cur;
  }

  TestWorld world_;
};

TEST_F(DcacheTest, LookupFindsHashedChild) {
  Dentry* d = MakeFile("/alpha");
  EXPECT_EQ(d->name(), "alpha");
  EXPECT_EQ(d->parent(), Root());
  EXPECT_TRUE(d->IsPositive());
  // Lock-free probe sees it too.
  EpochDomain::ReadGuard guard(EpochDomain::Global());
  EXPECT_EQ(dc().LookupRcu(Root(), "alpha"), d);
  EXPECT_EQ(dc().LookupRcu(Root(), "beta"), nullptr);
  dc().Dput(d);
}

TEST_F(DcacheTest, AddChildDeduplicatesConcurrentInsert) {
  Dentry* a = MakeFile("/dup");
  // A second AddChild with the same name returns the existing dentry.
  auto again = dc().AddChild(Root(), "dup", nullptr, kDentNegative, 0);
  ASSERT_OK(again);
  EXPECT_EQ(*again, a);
  EXPECT_TRUE((*again)->IsPositive());  // kept the existing positive
  dc().Dput(*again);
  dc().Dput(a);
}

TEST_F(DcacheTest, RefcountLockrefProtocol) {
  Dentry* d = MakeFile("/ref");
  EXPECT_GE(d->ref_count(), 1u);
  EXPECT_TRUE(d->DgetLive());
  dc().Dput(d);
  dc().Dput(d);  // back to cached-unreferenced
  EXPECT_EQ(d->ref_count(), 0u);
  // Still in the cache and revivable.
  Dentry* again = dc().LookupRef(Root(), "ref");
  EXPECT_EQ(again, d);
  dc().Dput(again);
}

TEST_F(DcacheTest, KillMakesDentryUnfindable) {
  Dentry* d = MakeFile("/victim");
  dc().Kill(d);
  EXPECT_TRUE(d->IsDead());
  EXPECT_FALSE(d->DgetLive());  // no new refs on dead dentries
  EXPECT_EQ(dc().LookupRef(Root(), "victim"), nullptr);
  dc().Dput(d);  // final reference frees it (deferred via epochs)
}

TEST_F(DcacheTest, ShrinkEvictsOnlyUnreferencedLeaves) {
  size_t before = dc().dentry_count();
  Dentry* held = MakeFile("/held");
  Dentry* loose = MakeFile("/loose");
  dc().Dput(loose);  // now unreferenced, parked on the LRU
  std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
  dc().ShrinkAll();
  tree.unlock();
  // `held` survives (referenced), `loose` is gone.
  EXPECT_EQ(dc().LookupRef(Root(), "loose"), nullptr);
  Dentry* still = dc().LookupRef(Root(), "held");
  EXPECT_EQ(still, held);
  dc().Dput(still);
  dc().Dput(held);
  EXPECT_LE(dc().dentry_count(), before + 2);
}

TEST_F(DcacheTest, ShrinkGivesReferencedDentriesASecondChance) {
  Dentry* a = MakeFile("/sc_a");
  Dentry* b = MakeFile("/sc_b");
  {
    // Drain the LRU of everything this fixture created so the list below
    // contains exactly a and b. Both are referenced here, so the drain
    // detaches them from the list without evicting them.
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    dc().ShrinkAll();
  }
  // Park b first (older), then a (younger). Plain LRU would evict b first;
  // the clock gives b a second chance because its reference bit is armed
  // (MakeFile's LookupRef touched it), while a's we clear by hand to model
  // an entry no lookup has touched since it was parked.
  dc().Dput(b);
  dc().Dput(a);
  a->lru_referenced.store(false, std::memory_order_relaxed);
  {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    EXPECT_EQ(dc().Shrink(1), 1u);
  }
  // The untouched (younger!) a was evicted; the referenced (older) b was
  // rotated to the young end and survives.
  EXPECT_EQ(dc().LookupRef(Root(), "sc_a"), nullptr);
  Dentry* still = dc().LookupRef(Root(), "sc_b");
  ASSERT_EQ(still, b);  // the lookup also re-arms b's reference bit
  dc().Dput(still);
  // Termination: the rotation budget is one pass, so a lone referenced
  // entry still gets evicted by the next call — the clock degrades to LRU
  // once every bit has been spent, it never spins.
  {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    EXPECT_EQ(dc().Shrink(1), 1u);
  }
  EXPECT_EQ(dc().LookupRef(Root(), "sc_b"), nullptr);
}

TEST_F(DcacheTest, EvictionClearsParentCompleteness) {
  ASSERT_OK(world_.root->Mkdir("/dir"));
  Dentry* dir = dc().LookupRef(Root(), "dir");
  ASSERT_NE(dir, nullptr);
  EXPECT_TRUE(dir->TestFlags(kDentDirComplete));  // fresh mkdir (§5.1)
  Dentry* child = MakeFile("/dir/child");
  ASSERT_NE(child, nullptr);
  dc().Dput(child);  // unreferenced: eligible for eviction
  uint64_t gen = dir->child_evict_gen.load();
  std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
  dc().ShrinkAll();
  tree.unlock();
  EXPECT_FALSE(dir->TestFlags(kDentDirComplete));
  EXPECT_GT(dir->child_evict_gen.load(), gen);
  dc().Dput(dir);
}

TEST_F(DcacheTest, InvalidateSubtreeBumpsAllVersions) {
  ASSERT_OK(world_.root->Mkdir("/top"));
  ASSERT_OK(world_.root->Mkdir("/top/mid"));
  dc().Dput(MakeFile("/top/mid/leaf"));
  ASSERT_OK(world_.root->Statx(kAtFdCwd, "/top/mid/leaf", 0));  // publish to DLHT
  Dentry* top = dc().LookupRef(Root(), "top");
  ASSERT_NE(top, nullptr);
  EpochDomain::ReadGuard guard(EpochDomain::Global());
  Dentry* mid = dc().LookupRcu(top, "mid");
  ASSERT_NE(mid, nullptr);
  Dentry* leaf = dc().LookupRcu(mid, "leaf");
  ASSERT_NE(leaf, nullptr);
  uint32_t top_seq = top->fast.seq.load();
  uint32_t leaf_seq = leaf->fast.seq.load();
  uint64_t inval = dc().invalidation_counter();
  {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    dc().InvalidateSubtree(top);
  }
  EXPECT_NE(top->fast.seq.load(), top_seq);
  EXPECT_NE(leaf->fast.seq.load(), leaf_seq);
  EXPECT_GT(dc().invalidation_counter(), inval);
  EXPECT_EQ(leaf->fast.on_dlht.load(), nullptr);  // evicted from the DLHT
  dc().Dput(top);
}

TEST_F(DcacheTest, MoveDentryRehashes) {
  ASSERT_OK(world_.root->Mkdir("/from"));
  ASSERT_OK(world_.root->Mkdir("/to"));
  dc().Dput(MakeFile("/from/thing"));
  Dentry* from = dc().LookupRef(Root(), "from");
  Dentry* to = dc().LookupRef(Root(), "to");
  Dentry* thing = dc().LookupRef(from, "thing");
  ASSERT_NE(thing, nullptr);
  {
    std::unique_lock<std::shared_mutex> tree(world_.kernel->tree_lock());
    world_.kernel->rename_seq().WriteBegin();
    dc().MoveDentry(thing, to, "renamed");
    world_.kernel->rename_seq().WriteEnd();
  }
  EXPECT_EQ(thing->parent(), to);
  EXPECT_EQ(thing->name(), "renamed");
  EXPECT_EQ(dc().LookupRef(from, "thing"), nullptr);
  Dentry* found = dc().LookupRef(to, "renamed");
  EXPECT_EQ(found, thing);
  dc().Dput(found);
  dc().Dput(thing);
  dc().Dput(from);
  dc().Dput(to);
}

TEST_F(DcacheTest, VersionCounterWraparoundFlushesPccEpoch) {
  uint64_t epoch_before = world_.kernel->pcc_epoch();
  // Drive the 32-bit counter close to wraparound, then across it.
  // (NewVersion is cheap; but 2^32 calls are not — so this test pokes the
  // epoch path directly through BumpPccEpoch, plus checks monotonicity.)
  uint32_t v1 = dc().NewVersion();
  uint32_t v2 = dc().NewVersion();
  EXPECT_NE(v1, v2);
  world_.kernel->BumpPccEpoch();
  EXPECT_GT(world_.kernel->pcc_epoch(), epoch_before);
}

TEST_F(DcacheTest, ChainHistogramCountsBuckets) {
  for (int i = 0; i < 50; ++i) {
    dc().Dput(MakeFile("/hist" + std::to_string(i)));
  }
  auto hist = dc().ChainHistogram(5);
  size_t total = 0;
  for (size_t c : hist) {
    total += c;
  }
  EXPECT_EQ(total, dc().bucket_count());
  EXPECT_GT(hist[0], 0u);  // most buckets empty
}

// ---------------------------------------------------------------------------
// ChildArray (DESIGN.md §16): slot-indexed child arrays with swap-remove.

// Every member's slot names its own index and side, its side matches its
// flags, and the arrays hold exactly `members`.
void ExpectSlotsConsistent(const ChildArray& kids,
                           const std::set<Dentry*>& members) {
  std::set<Dentry*> seen;
  for (bool tail : {false, true}) {
    const std::vector<Dentry*>& side = tail ? kids.tail() : kids.listed();
    for (size_t i = 0; i < side.size(); ++i) {
      Dentry* d = side[i];
      EXPECT_EQ(d->child_slot,
                static_cast<uint32_t>(i) | (tail ? ChildArray::kTailBit : 0u))
          << d->name();
      EXPECT_EQ(ChildArray::OnTail(d->flags()), tail) << d->name();
      EXPECT_TRUE(kids.Holds(d)) << d->name();
      EXPECT_TRUE(seen.insert(d).second) << d->name() << " held twice";
    }
  }
  EXPECT_EQ(seen, members);
  EXPECT_EQ(kids.size(), members.size());
}

class ChildArrayTest : public ::testing::Test {
 protected:
  // Standalone dentries (no superblock, parent or inode): the array only
  // reads their flags and writes their slots.
  Dentry* Make(const std::string& name, uint32_t flags) {
    pool_.push_back(
        std::make_unique<Dentry>(nullptr, nullptr, name, nullptr, flags));
    return pool_.back().get();
  }

  std::vector<std::unique_ptr<Dentry>> pool_;
};

TEST_F(ChildArrayTest, RandomAddRemoveKeepsEverySlotPointingHome) {
  const uint32_t kinds[] = {0, kDentStub, kDentNegative,
                            kDentNegative | kDentEnotdir, kDentAlias};
  std::vector<Dentry*> all;
  for (int i = 0; i < 64; ++i) {
    all.push_back(Make("c" + std::to_string(i), kinds[i % 5]));
  }
  ChildArray kids;
  std::set<Dentry*> members;
  Rng rng(14);
  for (int step = 0; step < 4000; ++step) {
    Dentry* d = all[rng.Below(all.size())];
    if (members.count(d) != 0) {
      kids.Remove(d);
      members.erase(d);
      EXPECT_EQ(d->child_slot, ChildArray::kNoSlot);
      EXPECT_FALSE(kids.Holds(d));
    } else {
      kids.Add(d);
      members.insert(d);
    }
    ExpectSlotsConsistent(kids, members);
    if (HasFailure()) {
      FAIL() << "step " << step;
    }
  }
  for (Dentry* d : all) {
    if (members.count(d) != 0) {
      kids.Remove(d);
    }
  }
  EXPECT_EQ(kids.size(), 0u);
}

TEST_F(ChildArrayTest, RemovingTheLastOrOnlyElement) {
  ChildArray kids;
  Dentry* a = Make("a", 0);
  Dentry* b = Make("b", 0);
  Dentry* neg = Make("neg", kDentNegative);
  kids.Add(a);
  kids.Add(b);
  kids.Add(neg);
  kids.Remove(b);  // the last listed element: nothing moves
  ExpectSlotsConsistent(kids, {a, neg});
  EXPECT_EQ(a->child_slot, 0u);
  kids.Remove(neg);  // the only tail element
  ExpectSlotsConsistent(kids, {a});
  kids.Remove(a);
  ExpectSlotsConsistent(kids, {});
  kids.Add(b);  // an emptied array takes new children from slot 0
  EXPECT_EQ(b->child_slot, 0u);
  kids.Remove(b);
}

TEST_F(ChildArrayTest, RemoveGivesBackCapacityAMassRemovalLeft) {
  ChildArray kids;
  std::vector<Dentry*> negs;
  for (int i = 0; i < 1000; ++i) {
    negs.push_back(Make("n" + std::to_string(i), kDentNegative));
    kids.Add(negs.back());
  }
  Dentry* keep = Make("keep", 0);
  kids.Add(keep);
  const size_t peak = kids.tail().capacity();
  ASSERT_GE(peak, 1000u);
  std::set<Dentry*> members(negs.begin(), negs.end());
  members.insert(keep);
  for (size_t i = 0; i + 3 < negs.size(); ++i) {
    kids.Remove(negs[i]);
    members.erase(negs[i]);
    // A side never holds more than 4x its size past the floor.
    EXPECT_LE(kids.tail().capacity(),
              std::max(ChildArray::kMinShrinkCapacity,
                       4 * kids.tail().size() + 4));
  }
  EXPECT_LT(kids.tail().capacity(), peak / 8);
  ExpectSlotsConsistent(kids, members);
  for (Dentry* d : members) {
    kids.Remove(d);
  }
  EXPECT_LE(kids.tail().capacity(), ChildArray::kMinShrinkCapacity);
}

TEST_F(DcacheTest, ChildArrayIsAllocatedWithTheFirstChild) {
  ASSERT_OK(world_.root->Mkdir("/lazy"));
  Dentry* dir = dc().LookupRef(Root(), "lazy");
  ASSERT_NE(dir, nullptr);
  EXPECT_EQ(dir->children(), nullptr);
  Dentry* leaf = MakeFile("/lazy/f");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->children(), nullptr);  // leaves never get an array
  {
    SpinGuard guard(dir->lock);
    ASSERT_NE(dir->children(), nullptr);
    EXPECT_EQ(dir->children()->listed().size(), 1u);
    EXPECT_TRUE(dir->children()->Holds(leaf));
  }
  // A positive records its inode's number and type at creation.
  EXPECT_EQ(leaf->d_ino, leaf->inode()->ino());
  EXPECT_EQ(leaf->d_type, FileType::kRegular);
  dc().Dput(leaf);
  dc().Dput(dir);
}

}  // namespace
}  // namespace dircache
