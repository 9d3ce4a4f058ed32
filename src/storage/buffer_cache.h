// Write-back buffer cache between DiskFs and the block device.
//
// A dcache miss costs, at best, a reparse of on-disk metadata that is still
// in the buffer cache, and at worst real (simulated) device I/O (§5). The
// buffer cache is what creates that two-level miss cost structure.
#ifndef DIRCACHE_STORAGE_BUFFER_CACHE_H_
#define DIRCACHE_STORAGE_BUFFER_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/storage/block_device.h"
#include "src/util/intrusive_list.h"
#include "src/util/result.h"
#include "src/util/stats.h"

namespace dircache {

class BufferCache;

// A cached block. Pinned (refcount > 0) buffers are never evicted.
struct Buffer {
  uint64_t block_no = 0;
  Block data{};
  bool dirty = false;
  // The block's checksum was verified since it was read from the device
  // (ext4's buffer_verified). Fresh buffers start clear; the file system
  // sets it and reads it under its own lock.
  bool verified = false;
  uint32_t pins = 0;
  ListNode lru;
};

// RAII pin on a cached block.
class BufferRef {
 public:
  BufferRef() = default;
  BufferRef(BufferCache* cache, Buffer* buf) : cache_(cache), buf_(buf) {}
  ~BufferRef();
  BufferRef(BufferRef&& o) noexcept : cache_(o.cache_), buf_(o.buf_) {
    o.cache_ = nullptr;
    o.buf_ = nullptr;
  }
  BufferRef& operator=(BufferRef&& o) noexcept;
  BufferRef(const BufferRef&) = delete;
  BufferRef& operator=(const BufferRef&) = delete;

  explicit operator bool() const { return buf_ != nullptr; }
  uint8_t* data() { return buf_->data.data(); }
  const uint8_t* data() const { return buf_->data.data(); }

  // Mark the block dirty; it will be written back on eviction or Sync().
  void MarkDirty();

  bool verified() const { return buf_->verified; }
  void MarkVerified() { buf_->verified = true; }

 private:
  BufferCache* cache_ = nullptr;
  Buffer* buf_ = nullptr;
};

class BufferCache {
 public:
  BufferCache(BlockDevice* device, size_t capacity_blocks);
  ~BufferCache();

  // Read-through lookup; pins the buffer.
  Result<BufferRef> Get(uint64_t block_no);

  // Like Get but without reading the device (the caller will overwrite the
  // whole block) — avoids a pointless read charge for fresh blocks.
  Result<BufferRef> GetForOverwrite(uint64_t block_no);

  // Write back all dirty blocks.
  Status Sync();

  // Write back, then evict everything unpinned (echoes
  // /proc/sys/vm/drop_caches for cold-cache runs).
  void Drop();

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  size_t cached_blocks() const;

 private:
  friend class BufferRef;

  Result<Buffer*> GetLocked(uint64_t block_no, bool read_device);
  void Unpin(Buffer* buf);
  void EvictIfNeededLocked();
  Status WriteBackLocked(Buffer* buf);

  BlockDevice* const device_;
  const size_t capacity_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<Buffer>> map_;
  IntrusiveList<Buffer, &Buffer::lru> lru_;  // front = most recent

  Counter hits_;
  Counter misses_;
};

}  // namespace dircache

#endif  // DIRCACHE_STORAGE_BUFFER_CACHE_H_
