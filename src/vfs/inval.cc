#include "src/vfs/inval.h"

#include <ctime>

#include "src/core/dlht.h"
#include "src/core/fast_dentry.h"
#include "src/obs/observability.h"
#include "src/util/clock.h"
#include "src/util/epoch.h"
#include "src/util/stats.h"
#include "src/vfs/dcache.h"
#include "src/vfs/dentry.h"
#include "src/vfs/kernel.h"
#include "src/vfs/mount.h"

namespace dircache {

namespace {

// Per-thread CPU time. The benchmarks run on hosts without guaranteed
// parallelism, so the parallel pass is costed by CPU time per participant
// (critical path = max over workers) rather than wall time — the same
// substitution bench/fig8_scalability.cc documents.
uint64_t ThreadCpuNanos() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

InvalidationEngine::InvalidationEngine(Kernel* kernel,
                                       const CacheConfig& config)
    : kernel_(kernel),
      parallel_threshold_(config.inval_parallel_threshold),
      // 0 disables parallelism; a single participant is also pure serial.
      max_workers_(config.inval_max_workers == 0
                       ? 1
                       : (config.inval_max_workers < 64
                              ? config.inval_max_workers
                              : 64)) {}

InvalidationEngine::~InvalidationEngine() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

InvalPassStats InvalidationEngine::last_pass_stats() const {
  std::lock_guard<std::mutex> lk(pass_mu_);
  return last_stats_;
}

void InvalidationEngine::BatchAdd(VisitCtx* ctx, Dlht* table, size_t bucket,
                                  FastDentry* fd) {
  if (ctx->batch.count == BatchBuffer::kCapacity) {
    // Caller holds a dentry lock; dentry-lock -> bucket-lock is the
    // established order (see DentryCache::Kill), so flushing here is safe.
    FlushBatch(&ctx->batch, &ctx->evicted, &ctx->batches);
  }
  ctx->batch.entries[ctx->batch.count++] = {table, bucket, fd};
}

void InvalidationEngine::FlushBatch(BatchBuffer* batch, uint64_t* evicted,
                                    uint64_t* batches) {
  const size_t n = batch->count;
  if (n == 0) {
    return;
  }
  // Insertion sort by (table, bucket): n <= 64 and entries arrive mostly
  // clustered (children of one directory hash to few tables), so this beats
  // anything allocating.
  BatchBuffer::Entry* e = batch->entries.data();
  for (size_t i = 1; i < n; ++i) {
    BatchBuffer::Entry key = e[i];
    size_t j = i;
    while (j > 0 && (e[j - 1].table > key.table ||
                     (e[j - 1].table == key.table &&
                      e[j - 1].bucket > key.bucket))) {
      e[j] = e[j - 1];
      --j;
    }
    e[j] = key;
  }
  // One RemoveBatch (one bucket-lock acquisition) per (table, bucket) run.
  FastDentry* fds[BatchBuffer::kCapacity];
  size_t i = 0;
  while (i < n) {
    Dlht* table = e[i].table;
    const size_t bucket = e[i].bucket;
    size_t run = 0;
    while (i < n && e[i].table == table && e[i].bucket == bucket) {
      fds[run++] = e[i++].fd;
    }
    *evicted += table->RemoveBatch(bucket, fds, run);
    ++*batches;
  }
  batch->count = 0;
}

void InvalidationEngine::PushTo(WorkerSlot* slot, Dentry* d) {
  SpinGuard guard(slot->lock);
  d->inval_next.store(slot->top, std::memory_order_relaxed);
  slot->top = d;
}

Dentry* InvalidationEngine::PopFrom(WorkerSlot* slot) {
  SpinGuard guard(slot->lock);
  Dentry* d = slot->top;
  if (d != nullptr) {
    slot->top = d->inval_next.load(std::memory_order_relaxed);
  }
  return d;
}

void InvalidationEngine::VisitOne(Dentry* d, uint64_t gen, VisitCtx* ctx,
                                  WorkerSlot* slot, Dentry** serial_top) {
  DentryCache& dc = kernel_->dcache();
  {
    SpinGuard guard(d->lock);
    // The §3.2 bump: a fresh version counter lazily invalidates every PCC
    // entry memoizing this dentry; path_valid keeps EnsurePathState honest.
    d->fast.seq.store(dc.NewVersion(), std::memory_order_release);
    d->fast.path_valid.store(false, std::memory_order_release);
    Dlht* table = d->fast.on_dlht.load(std::memory_order_acquire);
    if (table != nullptr) {
      // Signature is stable under d->lock; the batch flush revalidates
      // actual chain membership under the bucket lock, so a concurrent
      // re-insert under a new signature cannot corrupt anything.
      BatchAdd(ctx, table, Dlht::BucketKeyFor(d->fast.signature), &d->fast);
    }
    if (const ChildArray* kids = d->children()) {
      kids->ForEach([&](Dentry* child) {
        // Claim-at-push: the generation exchange guarantees each dentry is
        // queued at most once per pass, even when mount aliases make the
        // traversal graph cyclic.
        if (child->inval_gen.exchange(gen, std::memory_order_acq_rel) !=
            gen) {
          if (slot != nullptr) {
            PushTo(slot, child);
          } else {
            child->inval_next.store(*serial_top, std::memory_order_relaxed);
            *serial_top = child;
          }
        }
      });
    }
  }
  // Prefix checks span mount boundaries: everything cached under a mount
  // whose mountpoint lies in this subtree depends on the changed
  // directory's permissions too (§3.2). MountsOn allocates, but only runs
  // for actual mountpoints — plain subtrees stay allocation-free.
  if (d->TestFlags(kDentMountpoint)) {
    for (Mount* m : kernel_->MountsOn(d)) {
      if (m->root->inval_gen.exchange(gen, std::memory_order_acq_rel) !=
          gen) {
        if (slot != nullptr) {
          PushTo(slot, m->root);
        } else {
          m->root->inval_next.store(*serial_top, std::memory_order_relaxed);
          *serial_top = m->root;
        }
      }
    }
  }
  ++ctx->visited;
  kernel_->stats().invalidated_dentries.Add();
}

void InvalidationEngine::EnsurePool() {
  if (slots_ != nullptr) {
    return;
  }
  slot_count_ = max_workers_;
  slots_ = std::make_unique<WorkerSlot[]>(slot_count_);
  threads_.reserve(slot_count_ - 1);
  for (size_t i = 1; i < slot_count_; ++i) {
    threads_.emplace_back([this, i] { WorkerMain(i); });
  }
}

void InvalidationEngine::WorkerMain(size_t slot_index) {
  std::unique_lock<std::mutex> lk(pool_mu_);
  uint64_t seen_epoch = 0;  // epochs start at 1, so the first pass is seen
  while (true) {
    pool_cv_.wait(lk,
                  [&] { return shutdown_ || start_epoch_ != seen_epoch; });
    if (shutdown_) {
      return;
    }
    seen_epoch = start_epoch_;
    const uint64_t gen = job_gen_;
    lk.unlock();
    {
      // Queued dentries may be killed/evicted concurrently; the epoch guard
      // keeps their memory alive for the duration of this worker's share.
      EpochDomain::ReadGuard epoch(EpochDomain::Global());
      WorkLoop(slot_index, gen);
    }
    lk.lock();
    if (--running_workers_ == 0) {
      done_cv_.notify_all();
    }
  }
}

void InvalidationEngine::WorkLoop(size_t slot_index, uint64_t gen) {
  WorkerSlot& self = slots_[slot_index];
  self.begin_ns = NowNanos();
  const uint64_t cpu0 = ThreadCpuNanos();
  VisitCtx ctx;
  // No stealing: work this participant discovers is pushed back onto its
  // own stack, so an empty stack means this share of the pass is done.
  // (The round-robin deal at spill time is what balances the shares.)
  while (Dentry* d = PopFrom(&self)) {
    VisitOne(d, gen, &ctx, &self, nullptr);
  }
  FlushBatch(&ctx.batch, &ctx.evicted, &ctx.batches);
  self.visited = ctx.visited;
  self.dlht_evicted = ctx.evicted;
  self.dlht_batches = ctx.batches;
  self.cpu_ns = ThreadCpuNanos() - cpu0;
  self.span_ns = NowNanos() - self.begin_ns;
}

InvalPassStats InvalidationEngine::Invalidate(Dentry* root) {
  std::lock_guard<std::mutex> pass_lock(pass_mu_);
  const uint64_t gen = ++generation_;

  kernel_->stats().invalidation_walks.Add();
  const bool obs_on = kernel_->obs().enabled();
  const uint64_t wall0 = NowNanos();
  const uint64_t cpu0 = ThreadCpuNanos();

  // Queued dentries may be killed/evicted while the pass runs (the pass no
  // longer requires the tree lock); the epoch guard keeps them addressable.
  // Visiting a dead dentry is harmless — one wasted version bump.
  EpochDomain::ReadGuard epoch(EpochDomain::Global());

  VisitCtx ctx;
  root->inval_gen.exchange(gen, std::memory_order_acq_rel);
  root->inval_next.store(nullptr, std::memory_order_relaxed);
  Dentry* serial_top = root;

  // Serial intrusive DFS until the threshold proves the subtree is big.
  const bool may_parallelize = max_workers_ > 1;
  while (serial_top != nullptr) {
    Dentry* d = serial_top;
    serial_top = d->inval_next.load(std::memory_order_relaxed);
    VisitOne(d, gen, &ctx, nullptr, &serial_top);
    if (may_parallelize && ctx.visited >= parallel_threshold_ &&
        serial_top != nullptr) {
      break;
    }
  }

  InvalPassStats stats;
  uint64_t prefix_cpu = 0;
  if (serial_top != nullptr) {
    // Spill: shard the remaining work-list across the pool and join it as
    // participant 0.
    prefix_cpu = ThreadCpuNanos() - cpu0;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      EnsurePool();
      for (size_t i = 0; i < slot_count_; ++i) {
        WorkerSlot& s = slots_[i];
        s.top = nullptr;
        s.visited = s.dlht_evicted = s.dlht_batches = 0;
        s.cpu_ns = s.begin_ns = s.span_ns = 0;
      }
      size_t i = 0;
      while (serial_top != nullptr) {
        Dentry* d = serial_top;
        serial_top = d->inval_next.load(std::memory_order_relaxed);
        d->inval_next.store(slots_[i].top, std::memory_order_relaxed);
        slots_[i].top = d;
        i = (i + 1) % slot_count_;
      }
      job_gen_ = gen;
      ++start_epoch_;
      running_workers_ = slot_count_ - 1;
      pool_cv_.notify_all();
    }
    WorkLoop(0, gen);
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      done_cv_.wait(lk, [&] { return running_workers_ == 0; });
    }

    stats.workers = static_cast<uint32_t>(slot_count_);
    uint64_t max_worker_cpu = 0;
    for (size_t i = 0; i < slot_count_; ++i) {
      const WorkerSlot& s = slots_[i];
      stats.visited += s.visited;
      stats.dlht_evicted += s.dlht_evicted;
      stats.dlht_batches += s.dlht_batches;
      stats.total_cpu_ns += s.cpu_ns;
      if (s.cpu_ns > max_worker_cpu) {
        max_worker_cpu = s.cpu_ns;
      }
    }
    // The serial prefix runs before any worker can start, so it is always
    // on the critical path.
    stats.critical_path_ns = prefix_cpu + max_worker_cpu;
    stats.total_cpu_ns += prefix_cpu;
  }

  FlushBatch(&ctx.batch, &ctx.evicted, &ctx.batches);
  stats.visited += ctx.visited;
  stats.dlht_evicted += ctx.evicted;
  stats.dlht_batches += ctx.batches;

  const uint64_t wall1 = NowNanos();
  stats.span_ns = wall1 - wall0;
  if (stats.workers == 0) {
    stats.total_cpu_ns = ThreadCpuNanos() - cpu0;
    stats.critical_path_ns = stats.total_cpu_ns;
  }

  if (obs_on) {
    Observability& ob = kernel_->obs();
    ob.RecordLatency(obs::ObsOp::kInvalidate, stats.span_ns);
    ob.RecordJournal(obs::JournalEvent::kInvalidateSubtree, wall0,
                     stats.span_ns, stats.visited, stats.dlht_evicted,
                     stats.workers, stats.dlht_batches);
    // Child span for traced requests (a traced rename/unlink attributes its
    // subtree pass here; arg0 = dentries visited, arg1 = DLHT evictions).
    obs::TraceAddSpan(obs::SpanKind::kInval, wall0, stats.span_ns,
                      stats.visited, stats.dlht_evicted);
    if (stats.workers != 0) {
      // Worker spans recorded from this (coordinator) thread so they land
      // on the same journal shard as the parent span and nest under it in
      // the Chrome trace.
      for (size_t i = 0; i < slot_count_; ++i) {
        ob.RecordJournal(obs::JournalEvent::kInvalWorker, slots_[i].begin_ns,
                         slots_[i].span_ns, i, slots_[i].visited);
      }
    }
  }

  last_stats_ = stats;
  return stats;
}

}  // namespace dircache
