// Dentries: cached (parent, name) -> inode mappings (§2.2).
//
// A dentry is threaded onto the structures Linux uses (§2.2): the primary
// hash chain, a slot in its parent's child array, and the LRU list; plus the
// paper's FastDentry extension (signature, DLHT linkage, PCC version
// counter). Negative dentries have no inode; readdir stubs (§5.1) know
// their inode number and type but have no materialized Inode; alias
// dentries (§4.2) redirect a literal symlink-crossing path to its target.
//
// Reference counting uses a lockref-style packed word: bit 31 is the dead
// bit, set exactly once when the dentry is unhashed for good. Lock-free
// walkers acquire references with a CAS that fails on dead dentries, which
// makes "observed on a hash chain during the grace period" safe. The
// release of the final reference frees the dentry through the epoch domain.
#ifndef DIRCACHE_VFS_DENTRY_H_
#define DIRCACHE_VFS_DENTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/fast_dentry.h"
#include "src/util/hlist.h"
#include "src/util/intrusive_list.h"
#include "src/util/spinlock.h"
#include "src/vfs/inode.h"

namespace dircache {

class Dentry;
struct Mount;

// Dentry state flags (Dentry::flags, atomic).
inline constexpr uint32_t kDentNegative = 1u << 0;     // cached ENOENT
inline constexpr uint32_t kDentEnotdir = 1u << 1;      // cached ENOTDIR (§5.2)
inline constexpr uint32_t kDentStub = 1u << 2;         // readdir stub (§5.1)
inline constexpr uint32_t kDentDirComplete = 1u << 3;  // §5.1
inline constexpr uint32_t kDentOnLru = 1u << 4;
inline constexpr uint32_t kDentAlias = 1u << 5;        // symlink alias (§4.2)
inline constexpr uint32_t kDentMountpoint = 1u << 6;   // mount hangs here
inline constexpr uint32_t kDentRoot = 1u << 7;         // superblock root

// Reference word: bit 31 = dead, low 31 bits = count.
inline constexpr uint32_t kRefDead = 1u << 31;
inline constexpr uint32_t kRefCountMask = kRefDead - 1;

// The cached children of one directory (§5.1, DESIGN.md §16), as two
// unordered arrays of child pointers: `listed` holds the positives and
// stubs a cached readdir returns, `tail` the negatives and aliases it never
// does. Each child records its position in Dentry::child_slot (index plus
// a side bit), so removal is O(1): the last element of that side moves into
// the hole and its slot is rewritten. A child's side is fixed at creation —
// no dentry turns negative or alias later, and a stub materializes in place
// — so the listed/tail split never needs a flag check to stay true.
// Guarded by the owning directory's lock.
class ChildArray {
 public:
  // Dentry::child_slot of a dentry on no array.
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  // Side bit of Dentry::child_slot: set for the tail array.
  static constexpr uint32_t kTailBit = 1u << 31;
  // Remove() shrinks a side only past this capacity.
  static constexpr size_t kMinShrinkCapacity = 16;

  // Which array a dentry with these (creation-time) flags belongs on.
  static bool OnTail(uint32_t flags) {
    return (flags & (kDentNegative | kDentAlias)) != 0;
  }

  const std::vector<Dentry*>& listed() const { return listed_; }
  const std::vector<Dentry*>& tail() const { return tail_; }
  size_t size() const { return listed_.size() + tail_.size(); }

  // Append `d` to its side and record its slot.
  void Add(Dentry* d);
  // Swap-remove `d`, which must be on this array, and clear its slot.
  void Remove(Dentry* d);
  // True when `d`'s slot names a position on this array that holds `d`.
  bool Holds(const Dentry* d) const;

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (Dentry* d : listed_) {
      fn(d);
    }
    for (Dentry* d : tail_) {
      fn(d);
    }
  }

 private:
  std::vector<Dentry*>& Side(uint32_t slot) {
    return (slot & kTailBit) != 0 ? tail_ : listed_;
  }

  std::vector<Dentry*> listed_;
  std::vector<Dentry*> tail_;
};

class Dentry {
 public:
  // Creates a dentry with one reference, holding a reference on `parent`
  // (which may be null for superblock roots) and consuming a reference on
  // `inode` (null for negatives/stubs).
  Dentry(SuperBlock* sb, Dentry* parent, std::string name, Inode* inode,
         uint32_t initial_flags);
  ~Dentry();
  Dentry(const Dentry&) = delete;
  Dentry& operator=(const Dentry&) = delete;

  SuperBlock* sb() const { return sb_; }

  // --- identity (atomic: lock-free readers; writers hold lock + tree lock)
  const std::string& name() const {
    return *name_.load(std::memory_order_acquire);
  }
  Dentry* parent() const { return parent_.load(std::memory_order_acquire); }
  Inode* inode() const { return inode_.load(std::memory_order_acquire); }

  // Writers (rename / unlink / stub materialization); caller holds lock.
  void set_name(std::string n);  // epoch-retires the old string
  void set_parent(Dentry* p) {
    parent_.store(p, std::memory_order_release);
  }
  void set_inode(Inode* i) { inode_.store(i, std::memory_order_release); }

  // --- flags
  uint32_t flags() const { return flags_.load(std::memory_order_acquire); }
  bool TestFlags(uint32_t mask) const { return (flags() & mask) != 0; }
  void SetFlags(uint32_t mask) {
    flags_.fetch_or(mask, std::memory_order_acq_rel);
  }
  void ClearFlags(uint32_t mask) {
    flags_.fetch_and(~mask, std::memory_order_acq_rel);
  }

  bool IsNegative() const { return TestFlags(kDentNegative); }
  bool IsStub() const { return TestFlags(kDentStub); }
  // Positive = has (or can materialize) an inode.
  bool IsPositive() const { return !IsNegative(); }

  // --- reference counting -------------------------------------------------
  // Acquire a reference on a dentry found on a hash chain; fails if dead.
  bool DgetLive() {
    uint32_t v = refs_.load(std::memory_order_seq_cst);
    while (true) {
      if ((v & kRefDead) != 0) {
        return false;
      }
      if (refs_.compare_exchange_weak(v, v + 1, std::memory_order_seq_cst)) {
        return true;
      }
    }
  }

  // Add a reference when the caller already holds one.
  void DgetHeld() {
    uint32_t prev = refs_.fetch_add(1, std::memory_order_relaxed);
    (void)prev;
  }

  // Set the dead bit. Returns true if this caller must release the dentry
  // (the count was already zero); otherwise the final Dput releases it.
  bool MarkDead() {
    uint32_t prev = refs_.fetch_or(kRefDead, std::memory_order_seq_cst);
    if ((prev & kRefDead) != 0) {
      return false;  // someone else killed it first
    }
    return (prev & kRefCountMask) == 0;
  }

  // Drop a reference. Returns true if this was the final reference on a
  // dead dentry and the caller must release it.
  bool DputNeedsRelease() {
    uint32_t prev = refs_.fetch_sub(1, std::memory_order_seq_cst);
    return prev == (kRefDead | 1);
  }

  uint32_t ref_count() const {
    return refs_.load(std::memory_order_relaxed) & kRefCountMask;
  }
  bool IsDead() const {
    return (refs_.load(std::memory_order_seq_cst) & kRefDead) != 0;
  }

  // Freeze an unreferenced, live dentry for eviction: atomically moves
  // count 0 -> dead. Fails if referenced or already dead.
  bool FreezeForEviction() {
    uint32_t expected = 0;
    return refs_.compare_exchange_strong(expected, kRefDead,
                                         std::memory_order_seq_cst);
  }

  // --- cached children (this->lock) ----------------------------------------
  // This directory's children; null until the first one is added, so
  // leaves carry no array.
  ChildArray* children() const { return children_.get(); }
  ChildArray& EnsureChildren() {
    if (children_ == nullptr) {
      children_ = std::make_unique<ChildArray>();
    }
    return *children_;
  }

  // Arm the second-chance reference bit (lru_referenced below). Returns
  // true when this call actually wrote (callers count that write in the
  // shared_writes statistic).
  bool MarkReferenced() {
    if (lru_referenced.load(std::memory_order_relaxed)) {
      return false;
    }
    lru_referenced.store(true, std::memory_order_relaxed);
    return true;
  }

  // Prefetch what a cached readdir reads of this dentry: d_type through
  // d_ino, one line or two depending on the allocation's alignment.
  void PrefetchListingFields() const {
    __builtin_prefetch(&d_type);
    __builtin_prefetch(&d_ino);
  }

  // --- alias payload --------------------------------------------------------
  std::atomic<Dentry*> alias_target{nullptr};  // kDentAlias: holds a ref

  // --- linkage --------------------------------------------------------------
  HNode hash_node;    // primary hash chain (bucket lock)
  uint64_t hash_key = 0;

 private:
  std::unique_ptr<ChildArray> children_;

 public:
  // Bumped when a child is evicted for space; snapshot-compared to decide
  // whether a readdir scan may set kDentDirComplete (§5.1).
  std::atomic<uint64_t> child_evict_gen{0};

  // Credential uid whose activity instantiated this dentry (0 = root /
  // system), for the governor's per-tenant charge counters and
  // proportional shrink (DESIGN.md §15). Written exactly once, before the
  // dentry is published.
  uint32_t tenant = 0;

  SpinLock lock;  // guards children, DLHT moves, stub materialization

  // --- subtree invalidation engine linkage (§3.2, src/vfs/inval.h) ----------
  // Intrusive work-list link + visit-generation stamp: an invalidation pass
  // claims a dentry by exchanging `inval_gen` to the pass's generation
  // (guaranteeing single-queue membership even across mount aliases) and
  // threads it through `inval_next`, so the common small-subtree pass
  // allocates nothing. Only the engine touches these, and the engine-wide
  // pass mutex serializes passes, so the link is never shared.
  std::atomic<Dentry*> inval_next{nullptr};
  std::atomic<uint64_t> inval_gen{0};

  // --- the paper's extension (§3, Fig. 5) -----------------------------------
  FastDentry fast;

 private:
  // Lookup-hot: a fastpath hit reads these right after `fast`'s tail.
  SuperBlock* const sb_;
  std::atomic<Dentry*> parent_;
  std::atomic<Inode*> inode_;
  std::atomic<uint32_t> flags_;
  std::atomic<uint32_t> refs_{1};

 public:
  ListNode lru_node;  // dcache LRU (LRU lock)

  // Second-chance (clock) reference bit: lookup hits arm it instead of
  // taking the LRU lock to reorder the list; Shrink() grants one extra
  // round to entries with the bit set, clearing it as the clock hand
  // passes. The store is conditional, so a warm hit path performs no write
  // at all — the bit is already set. Between refs_ and lru_node, so a warm
  // hit and the clock hand each find it on a line they already read.
  std::atomic<bool> lru_referenced{false};

  // The inode number and type readdir reports for this dentry: recorded at
  // creation for a positive (whose inode never changes) and taken from the
  // directory listing for a stub (whose materialized inode keeps the
  // number). Zero for negatives and aliases. Kept beside name_, so a
  // cached readdir reads as few dentry lines per entry as it can.
  FileType d_type = FileType::kRegular;

  // Position in the parent's ChildArray (parent's lock); kNoSlot when on
  // none (roots, and dentries already killed or evicted).
  uint32_t child_slot = ChildArray::kNoSlot;

 private:
  std::atomic<const std::string*> name_;

 public:
  InodeNum d_ino = 0;  // see d_type
};

// A dentry costs its parent one array slot on top of itself; neither may
// grow past the list-linked layout this array replaced (DESIGN.md §16).
static_assert(sizeof(Dentry) <= 376, "Dentry grew");

inline void ChildArray::Add(Dentry* d) {
  const bool tail = OnTail(d->flags());
  std::vector<Dentry*>& side = tail ? tail_ : listed_;
  d->child_slot =
      static_cast<uint32_t>(side.size()) | (tail ? kTailBit : 0u);
  side.push_back(d);
}

inline void ChildArray::Remove(Dentry* d) {
  std::vector<Dentry*>& side = Side(d->child_slot);
  const uint32_t index = d->child_slot & ~kTailBit;
  Dentry* last = side.back();
  side[index] = last;
  last->child_slot = d->child_slot;
  side.pop_back();
  d->child_slot = kNoSlot;
  // Give back capacity a mass eviction or unlink left behind (a maildir's
  // negatives, say), so a side holds at most 4x its size past a small
  // floor. Shrinking only at a quarter keeps add/remove amortized O(1).
  if (side.capacity() > kMinShrinkCapacity &&
      side.size() < side.capacity() / 4) {
    std::vector<Dentry*>(side).swap(side);
  }
}

inline bool ChildArray::Holds(const Dentry* d) const {
  const uint32_t slot = d->child_slot;
  if (slot == kNoSlot) {
    return false;
  }
  const std::vector<Dentry*>& side =
      (slot & kTailBit) != 0 ? tail_ : listed_;
  const uint32_t index = slot & ~kTailBit;
  return index < side.size() && side[index] == d;
}

// Recover the owning dentry from its embedded FastDentry (the VFS knows the
// layout; the core library treats dentries as opaque). Lives next to the
// `fast` member it depends on so the two cannot drift apart.
//
// Dentry is not standard-layout (it mixes access specifiers), so
// offsetof on it is conditionally-supported; GCC/Clang define it for this
// shape, and the assertions below pin down what the cast actually relies
// on: `fast` is an embedded subobject at a fixed offset in every Dentry.
static_assert(std::is_standard_layout_v<FastDentry>,
              "FastDentry must be standard-layout: DentryFromFast converts "
              "a FastDentry* back to its enclosing Dentry*");
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
inline constexpr size_t kDentryFastOffset = offsetof(Dentry, fast);
#pragma GCC diagnostic pop

inline Dentry* DentryFromFast(FastDentry* fd) {
  return reinterpret_cast<Dentry*>(reinterpret_cast<char*>(fd) -
                                   kDentryFastOffset);
}

inline const Dentry* DentryFromFast(const FastDentry* fd) {
  return reinterpret_cast<const Dentry*>(
      reinterpret_cast<const char*>(fd) - kDentryFastOffset);
}

}  // namespace dircache

#endif  // DIRCACHE_VFS_DENTRY_H_
