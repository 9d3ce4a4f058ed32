// mail-serve: an open loop of Poisson arrivals at fixed offered rates, from
// one client thread, through server::Server with 2 shards that share one
// credential (and so one PCC), over a maildir store plus a web docroot.
//
// Why: the only workload with writes beside reads and with concurrent
// readers on one credential's PCC. It loads server (rings, batching),
// vfs.inval (the invalidation engine and the coherence gate, with every
// mailbox at or above inval_parallel_threshold), and the vfs.dcache
// negative and dir-complete paths. About 20% of requests write: flag
// renames, deliveries, expunges (which leave negatives) and rare
// whole-mailbox folder renames. Flags and deliveries follow the repo's
// Dovecot model (src/workload/maildir.cc): a flag rename is followed by a
// rescan of the mailbox, and a delivery creates its file in tmp/ and
// renames it into cur/.
//
// The offered rate and the ladder are constants of the workload, never
// derived from a measured capacity, so two builds are driven at the same
// load. Every request is timed from when it was due. ops_per_s comes from
// separate saturated phases that keep a fixed number of requests in flight,
// so it is the server's throughput, not the offered load. Each mailbox is
// pinned to one shard and a request's entries are submitted back to back,
// so the shard runs them in order with at most one fd open: every open
// must return the shard's lowest free fd, which dcbench learns once at
// set-up.
#include <algorithm>
#include <cmath>
#include <deque>

#include "perfbench/src/common.h"
#include "src/server/server.h"
#include "src/workload/tree_gen.h"

namespace dircache {
namespace perfbench {
namespace {

using server::Cqe;
using server::Sqe;

constexpr uint32_t kShards = 2;
constexpr size_t kMailboxes = 16;
constexpr size_t kMessages = 2000;   // per mailbox, >= inval_parallel_threshold
constexpr size_t kDocrootFiles = 3000;
constexpr double kRate = 2000;  // offered requests/s of the measured rounds
// Requests kept in flight by the saturated phases that give ops_per_s:
// deep enough that one shard's rescans do not leave the other idle (the
// requests split between the shards at random).
constexpr size_t kSaturatedDepth = 512;
// A saturated phase runs a fixed number of requests, not a fixed time, so
// every build applies the same mutations and the store grows the same way
// whatever its speed: this many per second of the round's phase length.
constexpr double kSaturatedRequestsPerS = 16000;
constexpr double kLadder[] = {1000, 2000, 4000, 8000, 16000, 32000};
constexpr double kLadderStepS = 0.5;
// The ladder's p99 limit: above the service time of the heaviest regular
// request (a rescan of 2000 entries plus the negatives a run leaves in the
// mailbox, up to ~5 ms by the ladder), so a miss means queueing.
constexpr double kP99LimitNs = 10e6;
constexpr double kWarmupS = 1.0;
constexpr int kSetupReps = 3;
constexpr size_t kSlots = 1 << 13;   // requests in flight before overload
constexpr size_t kExpungedKept = 64;
constexpr size_t kFlagWindow = 256;  // newest messages a flag rename picks
constexpr uint32_t kMaxEntries = 4096;
constexpr uint32_t kEntryBits = 3;  // entries per request <= 8
constexpr uint32_t kEntryMask = (1u << kEntryBits) - 1;

enum ReqClass : uint8_t {
  kMsgStat,
  kMsgFetch,
  kExpungedStat,
  kWebStat,
  kWebOpen,
  kNop,
  kFlag,
  kDeliver,
  kExpunge,
  kFolder,
  kReqClassCount,
};

// Weights per 10000 requests, in ReqClass order: 80% reads, 20% writes.
// Each flag carries a full rescan, the heaviest request (1.5-3 ms for 2000
// entries): at the offered rate the rescans keep each shard 7-15% busy.
// Deliveries and expunges balance so the mailboxes keep their size.
constexpr int kWeights[kReqClassCount] = {3000, 2000, 800, 1300, 700,
                                          200,  500,  748, 747,  5};

struct Mailbox {
  std::string root;    // /mail/uNN or /mail/uNN.f after a folder rename
  std::string base;    // /mail/uNN
  uint32_t shard = 0;
  std::vector<std::string> msgs;      // names in root/cur
  std::deque<std::string> expunged;  // recently unlinked names
  std::string Cur() const { return root + "/cur"; }
  std::string Tmp() const { return root + "/tmp"; }
};

// One request: up to 8 entries submitted back to back to one shard.
struct Req {
  ReqClass cls = kNop;
  uint32_t shard = 0;
  uint8_t n = 0;           // entries
  uint8_t done = 0;        // entries completed
  uint8_t write_mask = 0;  // bit k: entry k mutates
  bool busy = false;
  uint64_t id = 0;
  uint64_t due = 0;
  uint64_t submit[kEntryMask + 1] = {};
  int32_t expect[kEntryMask + 1] = {};
  // The entries' paths; an Sqe only points at them.
  std::string path, path2, dir;
  Stat st;
  std::vector<DirEntry> ents[2];
  Sqe sqe[kEntryMask + 1];
};

struct World {
  Env env;
  std::vector<Mailbox> boxes;
  std::vector<std::string> web_files;
  std::vector<std::string> web_entries;
  uint64_t next_uid = 1;
  FdNum shard_fd[kShards] = {};
  // Declared last so it is destroyed (stopped and joined) first.
  std::unique_ptr<server::Server> srv;
};

std::string MsgName(uint64_t uid, size_t box) {
  return std::to_string(uid) + ".M" + std::to_string(uid * 7 % 1000003) +
         "P" + std::to_string(box) + ".mx:2,";
}

std::unique_ptr<World> BuildWorld(uint64_t seed) {
  auto w = std::make_unique<World>();
  DiskFsOptions disk;
  disk.num_blocks = 1 << 18;
  disk.max_inodes = 1 << 17;
  w->env = MakeEnv(CacheConfig::Optimized(), ObsConfig{}, disk);
  Task& t = *w->env.task;
  (void)t.Mkdir("/mail");
  for (size_t b = 0; b < kMailboxes; ++b) {
    Mailbox mb;
    mb.base = "/mail/u" + std::to_string(b);
    mb.root = mb.base;
    mb.shard = static_cast<uint32_t>(b % kShards);
    if (!t.Mkdir(mb.root).ok() || !t.Mkdir(mb.Cur()).ok() ||
        !t.Mkdir(mb.root + "/new").ok() || !t.Mkdir(mb.Tmp()).ok()) {
      std::fprintf(stderr, "mail-serve: mkdir failed\n");
      std::exit(2);
    }
    for (size_t m = 0; m < kMessages; ++m) {
      std::string name = MsgName(w->next_uid++, b);
      auto fd = t.Open(mb.Cur() + "/" + name, kOCreat | kOExcl | kOWrite);
      if (!fd.ok()) {
        std::fprintf(stderr, "mail-serve: deliver failed\n");
        std::exit(2);
      }
      (void)t.Close(*fd);
      mb.msgs.push_back(std::move(name));
    }
    w->boxes.push_back(std::move(mb));
  }
  TreeSpec spec;
  spec.seed = seed;
  spec.approx_files = kDocrootFiles;
  spec.max_depth = 4;
  spec.file_content_bytes = 0;
  auto tree = GenerateSourceTree(t, "/www", spec);
  if (!tree.ok()) {
    std::fprintf(stderr, "mail-serve: docroot failed\n");
    std::exit(2);
  }
  w->web_files = tree->files;
  w->web_entries = tree->files;
  w->web_entries.insert(w->web_entries.end(), tree->dirs.begin(),
                        tree->dirs.end());
  server::ServerOptions so;
  so.shards = kShards;
  so.ring_depth = 1024;
  so.max_batch = 64;
  w->srv = std::make_unique<server::Server>(w->env.kernel.get(), w->env.task,
                                            so);
  w->srv->Start();
  // Learn each shard's lowest free fd once.
  for (uint32_t s = 0; s < kShards; ++s) {
    Sqe o = Sqe::Open(kAtFdCwd, "/www", kORead | kODirectory);
    w->srv->SubmitWait(s, o);
    Cqe c;
    while (w->srv->Reap(s, &c, 1) == 0) {
    }
    if (c.res < 0) {
      std::fprintf(stderr, "mail-serve: probe open failed\n");
      std::exit(2);
    }
    w->shard_fd[s] = c.res;
    w->srv->SubmitWait(s, Sqe::Close(c.res));
    while (w->srv->Reap(s, &c, 1) == 0) {
    }
  }
  return w;
}

// Per-phase measurements.
struct Phase {
  // Requests, from due to the completion of their last entry. A request,
  // not a ring entry, is what a mail client waits for; and 80% of requests
  // are reads, so the median lies among them rather than at the edge
  // between fast reads and slow writes, where per-entry samples put it.
  Samples lat;
  Samples write_lat;  // requests with a mutating entry, from due
  Samples leaf_rename;  // flag renames, submit -> completion
  Samples dir_rename;   // folder renames, submit -> completion
  Samples nop_rtt;
  Samples gen_lag;
  uint64_t entries = 0;
  uint64_t mutations = 0;
  uint64_t window_ns = 0;
  size_t max_backlog = 0;  // requests in flight, at the end of generation
  bool overloaded = false;
  // Longest pause between two passes of the client loop, which never
  // blocks: a long one means the client thread itself was descheduled.
  uint64_t max_gap_ns = 0;
};

class Generator {
 public:
  Generator(World& w, uint64_t seed, Checker& check)
      : w_(w), rng_(seed * 0x9e3779b97f4a7c15ULL + 11), check_(check),
        slots_(kSlots), web_zipf_(w.web_entries.size(), 0.9),
        file_zipf_(w.web_files.size(), 0.9) {
    int sum = 0;
    for (int i = 0; i < kReqClassCount; ++i) {
      sum += kWeights[i];
      cum_[i] = sum;
    }
  }

  // Offers `rate` requests/s for `seconds` (or exactly `requests` when
  // nonzero), then waits for every request to complete. With `depth`
  // nonzero the phase is saturated instead: a new request is due whenever
  // fewer than `depth` are in flight, and `rate` is unused.
  Phase Run(double rate, double seconds, uint64_t requests, SpanLog* log,
            Prober* probe, size_t depth = 0) {
    Phase ph;
    log_ = log;
    probe_ = probe;
    const uint64_t start = NowNanos();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    double next_due = static_cast<double>(start);
    uint64_t generated = 0;
    bool generating = true;
    uint64_t last = start;
    while (generating || in_flight_ > 0) {
      const uint64_t now = NowNanos();
      ph.max_gap_ns = std::max(ph.max_gap_ns, now - last);
      last = now;
      if (depth != 0) {
        next_due = in_flight_ < depth ? static_cast<double>(now) : 1e30;
      }
      while (generating && next_due <= static_cast<double>(now)) {
        if (requests != 0 ? generated >= requests
                          : static_cast<uint64_t>(next_due) >= end) {
          generating = false;
          ph.max_backlog = in_flight_;
          break;
        }
        Req& rq = slots_[next_id_ % kSlots];
        if (rq.busy) {
          ph.overloaded = true;  // the backlog outgrew the slot ring
          generating = false;
          break;
        }
        Generate(rq, static_cast<uint64_t>(next_due));
        ++generated;
        if (depth != 0) {
          next_due = in_flight_ < depth ? static_cast<double>(now) : 1e30;
        } else {
          next_due += -std::log(1.0 - rng_.NextDouble()) * 1e9 / rate;
        }
      }
      for (uint32_t s = 0; s < kShards; ++s) {
        while (!pending_[s].empty()) {
          const uint64_t entry = pending_[s].front();
          const size_t slot = (entry >> kEntryBits) % kSlots;
          Req& rq = slots_[slot];
          const uint32_t k = entry & kEntryMask;
          const uint32_t span = log_ != nullptr
                                    ? log_->Begin(kSpanSubmit, rq_span_[slot],
                                                  rq.id)
                                    : kNoParent;
          const bool ok = w_.srv->Submit(s, rq.sqe[k]);
          if (log_ != nullptr) {
            log_->End(span);
          }
          if (!ok) {
            break;
          }
          rq.submit[k] = NowNanos();
          if (k == 0) {
            ph.gen_lag.Add(rq.submit[0] - rq.due);
            if (log_ != nullptr) {
              log_->Add(kSpanGenLag, rq_span_[slot], rq.id, rq.due,
                        rq.submit[0]);
              probe_->Probe(rq.path, *log_, rq_span_[slot], rq.id);
            }
          }
          pending_[s].pop_front();
        }
        Cqe cqes[128];
        const size_t n = w_.srv->Reap(s, cqes, 128);
        const uint64_t t = NowNanos();
        for (size_t i = 0; i < n; ++i) {
          Complete(cqes[i], t, ph);
        }
      }
      if (!generating && NowNanos() > end + 60'000'000'000ULL) {
        std::fprintf(stderr, "mail-serve: requests never completed\n");
        std::exit(2);
      }
    }
    ph.window_ns = NowNanos() - start;
    return ph;
  }

  uint64_t stream_hash() const { return stream_.value(); }

 private:
  ReqClass PickClass() {
    const int u = static_cast<int>(rng_.Below(10000));
    for (int i = 0; i < kReqClassCount; ++i) {
      if (u < cum_[i]) {
        return static_cast<ReqClass>(i);
      }
    }
    return kNop;
  }

  void Add(Req& rq, const Sqe& s, int32_t expect, bool mutates = false) {
    rq.sqe[rq.n] = s;
    rq.sqe[rq.n].user_data = (rq.id << kEntryBits) | rq.n;
    rq.expect[rq.n] = expect;
    if (mutates) {
      rq.write_mask |= static_cast<uint8_t>(1u << rq.n);
    }
    stream_.Add(s, expect);
    pending_[rq.shard].push_back((rq.id << kEntryBits) | rq.n);
    ++rq.n;
  }

  // Dovecot's rescan after a change (MaildirServer::Rescan): open cur/,
  // read every entry, read to EOF, close.
  void AddRescan(Req& rq, const Mailbox& mb, FdNum fd) {
    rq.dir = mb.Cur();
    Add(rq, Sqe::Open(kAtFdCwd, rq.dir, kORead | kODirectory), fd);
    Add(rq, Sqe::Readdir(fd, &rq.ents[0], kMaxEntries),
        static_cast<int32_t>(mb.msgs.size()));
    Add(rq, Sqe::Readdir(fd, &rq.ents[1], kMaxEntries), 0);
    Add(rq, Sqe::Close(fd), 0);
  }

  // Draws the next request from the model and applies its effect to the
  // model, so each entry's expected outcome is known before it is sent.
  void Generate(Req& rq, uint64_t due) {
    rq.cls = PickClass();
    rq.id = next_id_++;
    rq.due = due;
    rq.n = 0;
    rq.done = 0;
    rq.write_mask = 0;
    rq.busy = true;
    ++in_flight_;
    Mailbox& mb = w_.boxes[rng_.Below(w_.boxes.size())];
    if (rq.cls == kExpungedStat && mb.expunged.empty()) {
      rq.cls = kMsgStat;
    }
    if ((rq.cls == kMsgStat || rq.cls == kMsgFetch || rq.cls == kFlag ||
         rq.cls == kExpunge) && mb.msgs.empty()) {
      rq.cls = kDeliver;
    }
    const ReqClass c = rq.cls;
    const bool web = c == kWebStat || c == kWebOpen || c == kNop;
    rq.shard = web ? static_cast<uint32_t>(rq.id % kShards) : mb.shard;
    const FdNum fd = w_.shard_fd[rq.shard];
    const int32_t enoent = -static_cast<int32_t>(Errno::kENOENT);
    size_t mi = mb.msgs.empty() ? 0 : rng_.Below(mb.msgs.size());
    switch (c) {
      case kMsgStat:
      case kMsgFetch:
        rq.path = mb.Cur() + "/" + mb.msgs[mi];
        if (c == kMsgStat) {
          Add(rq, Sqe::Statx(kAtFdCwd, rq.path, 0, &rq.st), 0);
        } else {
          Add(rq, Sqe::Open(kAtFdCwd, rq.path, kORead), fd);
          Add(rq, Sqe::Close(fd), 0);
        }
        break;
      case kExpungedStat:
        rq.path = mb.Cur() + "/" + mb.expunged[rng_.Below(mb.expunged.size())];
        Add(rq, Sqe::Statx(kAtFdCwd, rq.path, 0, &rq.st), enoent);
        break;
      case kWebStat:
        rq.path = w_.web_entries[web_zipf_.Sample(rng_)];
        Add(rq, Sqe::Statx(kAtFdCwd, rq.path, 0, &rq.st), 0);
        break;
      case kWebOpen:
        rq.path = w_.web_files[file_zipf_.Sample(rng_)];
        Add(rq, Sqe::Open(kAtFdCwd, rq.path, kORead), fd);
        Add(rq, Sqe::Close(fd), 0);
        break;
      case kNop:
        rq.path = "/";
        Add(rq, Sqe{}, 0);
        break;
      case kFlag: {
        // Users flag recent mail: the newest kFlagWindow messages. Each
        // toggle leaves the other spelling as a negative dentry, so the
        // window also bounds how many negatives flagging creates. The
        // rename is followed by a rescan, as in MaildirServer::MarkRandom.
        mi = mb.msgs.size() - 1 -
             rng_.Below(std::min(mb.msgs.size(), kFlagWindow));
        std::string& name = mb.msgs[mi];
        std::string next = name.back() == 'S' ? name.substr(0, name.size() - 1)
                                              : name + "S";
        rq.path = mb.Cur() + "/" + name;
        rq.path2 = mb.Cur() + "/" + next;
        name = std::move(next);
        Add(rq, Sqe::Rename(kAtFdCwd, rq.path, kAtFdCwd, rq.path2), 0, true);
        AddRescan(rq, mb, fd);
        break;
      }
      case kDeliver: {
        // MaildirServer::Deliver: create in tmp/, then rename into cur/.
        std::string name =
            MsgName(w_.next_uid++, static_cast<size_t>(&mb - w_.boxes.data()));
        rq.path = mb.Tmp() + "/" + name.substr(0, name.size() - 3);
        rq.path2 = mb.Cur() + "/" + name;
        mb.msgs.push_back(std::move(name));
        Add(rq, Sqe::Open(kAtFdCwd, rq.path, kOCreat | kOExcl | kOWrite), fd,
            true);
        Add(rq, Sqe::Close(fd), 0);
        Add(rq, Sqe::Rename(kAtFdCwd, rq.path, kAtFdCwd, rq.path2), 0, true);
        break;
      }
      case kExpunge: {
        rq.path = mb.Cur() + "/" + mb.msgs[mi];
        mb.expunged.push_back(std::move(mb.msgs[mi]));
        if (mb.expunged.size() > kExpungedKept) {
          mb.expunged.pop_front();
        }
        mb.msgs[mi] = std::move(mb.msgs.back());
        mb.msgs.pop_back();
        Add(rq, Sqe::Unlink(kAtFdCwd, rq.path), 0, true);
        break;
      }
      case kFolder: {
        rq.path = mb.root;
        mb.root = mb.root == mb.base ? mb.base + ".f" : mb.base;
        rq.path2 = mb.root;
        Add(rq, Sqe::Rename(kAtFdCwd, rq.path, kAtFdCwd, rq.path2), 0, true);
        break;
      }
      case kReqClassCount:
        break;
    }
    rq_span_[rq.id % kSlots] =
        log_ != nullptr ? log_->Add(kSpanRequest, kNoParent, rq.id, rq.due, 0)
                        : kNoParent;
  }

  void Complete(const Cqe& c, uint64_t t, Phase& ph) {
    const uint64_t id = c.user_data >> kEntryBits;
    const uint32_t k = c.user_data & kEntryMask;
    Req& rq = slots_[id % kSlots];
    check_.Expect(c.res == rq.expect[k], id, rq.path.c_str(), c.res,
                  rq.expect[k]);
    ++ph.entries;
    if ((rq.write_mask >> k) & 1u) {
      ++ph.mutations;
      if (rq.cls == kFlag || (rq.cls == kDeliver && k != 0)) {
        ph.leaf_rename.Add(t - rq.submit[k]);
      } else if (rq.cls == kFolder) {
        ph.dir_rename.Add(t - rq.submit[k]);
      }
    }
    if (rq.cls == kNop) {
      ph.nop_rtt.Add(t - rq.submit[k]);
    }
    if (++rq.done == rq.n) {
      ph.lat.Add(t - rq.due);
      if (rq.write_mask != 0) {
        ph.write_lat.Add(t - rq.due);
      }
      rq.busy = false;
      --in_flight_;
      if (log_ != nullptr) {
        log_->End(rq_span_[id % kSlots]);
      }
    }
  }

  World& w_;
  Rng rng_;
  Checker& check_;
  std::vector<Req> slots_;
  std::vector<uint32_t> rq_span_ = std::vector<uint32_t>(kSlots, kNoParent);
  std::deque<uint64_t> pending_[kShards];
  Zipf web_zipf_;
  Zipf file_zipf_;
  int cum_[kReqClassCount] = {};
  uint64_t next_id_ = 0;
  size_t in_flight_ = 0;
  StreamHash stream_;
  SpanLog* log_ = nullptr;
  Prober* probe_ = nullptr;
};

}  // namespace

Result RunMailServe(const Options& opt) {
  Result r;
  Checker check("mail-serve");

  // Set-up: store + docroot + server start + a warm-up phase at the fixed
  // rate, repeated; the last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<World> w;
  std::unique_ptr<Generator> d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    w.reset();
    const uint64_t t0 = NowNanos();
    w = BuildWorld(opt.seed);
    d = std::make_unique<Generator>(*w, opt.seed, check);
    (void)d->Run(kRate, kWarmupS, 0, nullptr, nullptr);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
  }
  Kernel& k = *w->env.kernel;

  // Each round is an open-loop phase at the fixed rate (latencies) followed
  // by a saturated phase (throughput).
  const size_t rounds = Rounds(opt);
  const double phase_s = opt.seconds / static_cast<double>(rounds) / 2;
  const uint64_t sat_requests =
      opt.ops != 0 ? opt.ops
                   : static_cast<uint64_t>(phase_s * kSaturatedRequestsPerS);
  std::vector<double> p50s, p99s, wp99s, rates;
  uint64_t latency_samples = 0;
  Phase all;
  MemoryPeak mem;
  mem.Sample(k);
  const Counts c0 = TakeCounts(k, w->env.fs.get(), w->srv.get());
  for (size_t round = 0; round < rounds; ++round) {
    Phase ph = d->Run(kRate, phase_s, opt.ops, nullptr, nullptr);
    Phase sat =
        d->Run(0, 0, sat_requests, nullptr, nullptr, kSaturatedDepth);
    latency_samples += ph.lat.size();
    p50s.push_back(ph.lat.Pct(0.50));
    p99s.push_back(ph.lat.Pct(0.99));
    wp99s.push_back(ph.write_lat.Pct(0.99));
    rates.push_back(static_cast<double>(sat.entries) * 1e9 /
                    static_cast<double>(sat.window_ns));
    std::printf("round  %zu p50_ns=%.0f p99_ns=%.0f entries=%llu "
                "client_gap_us=%.0f saturated_ops_per_s=%.0f\n",
                round, p50s.back(), p99s.back(),
                static_cast<unsigned long long>(ph.entries),
                static_cast<double>(ph.max_gap_ns) / 1e3, rates.back());
    all.leaf_rename.Append(ph.leaf_rename);
    all.dir_rename.Append(ph.dir_rename);
    all.nop_rtt.Append(ph.nop_rtt);
    all.gen_lag.Append(ph.gen_lag);
    all.entries += ph.entries + sat.entries;
    all.mutations += ph.mutations + sat.mutations;
    mem.Sample(k);
  }
  const Counts delta =
      TakeCounts(k, w->env.fs.get(), w->srv.get()).Minus(c0);

  // The ladder: fixed rates, a fixed p99 limit; the highest rate whose p99
  // stays under the limit with no growing backlog.
  double max_rate = 0;
  if (opt.ops == 0) {
    for (double rate : kLadder) {
      Phase ph = d->Run(rate, kLadderStepS, 0, nullptr, nullptr);
      const bool backlog = ph.overloaded ||
                           static_cast<double>(ph.max_backlog) >
                               rate * kP99LimitNs * 1e-9;
      const double p99 = ph.lat.Pct(0.99);
      std::printf("ladder rate=%.0f p99_ns=%.0f backlog=%zu %s\n", rate, p99,
                  ph.max_backlog,
                  p99 <= kP99LimitNs && !backlog ? "ok" : "over");
      if (p99 > kP99LimitNs || backlog) {
        break;
      }
      max_rate = rate;
    }
  }

  r.E2e("setup_s", Median(setup_s), "s");
  r.E2e("lat_p50_ns", Median(p50s), "ns");
  r.E2e("cache_mb", static_cast<double>(mem.peak()) / 1e6, "MB");
  r.E2e("ops_per_s", Median(rates), "1/s");
  r.Extra("lat_p99_ns", Median(p99s), "ns");
  r.Extra("write_lat_p99_ns", Median(wp99s), "ns");
  r.Extra("max_rate_ops_s", max_rate, "1/s");

  AddCounterMetrics(delta, all.entries, all.mutations, &r);
  r.Layer("inval.leaf_rename_p50_ns", all.leaf_rename.Pct(0.5));
  r.Layer("inval.dir_rename_p50_us", all.dir_rename.Pct(0.5) / 1e3);
  r.Layer("server.nop_rtt_p50_ns", all.nop_rtt.Pct(0.5));
  r.Layer("server.nop_rtt_p99_ns", all.nop_rtt.Pct(0.99));
  r.Layer("server.gen_lag_p99_us", all.gen_lag.Pct(0.99) / 1e3);
  r.Layer("dcache.dentries",
          static_cast<double>(k.Observe().memory.dentry_count));
  r.ledger.emplace_back("stream_hash", d->stream_hash());
  r.ledger.emplace_back("offered_rate", static_cast<uint64_t>(kRate));
  r.ledger.emplace_back("saturated_depth", kSaturatedDepth);
  r.ledger.emplace_back("saturated_requests", sat_requests * rounds);
  r.ledger.emplace_back("latency_samples", latency_samples);
  r.ledger.emplace_back("leaf_renames", all.leaf_rename.size());
  r.ledger.emplace_back("dir_renames", all.dir_rename.size());

  if (opt.trace) {
    // A traced phase at the same rate, beside an untraced one.
    const double secs = phase_s;
    Phase plain = d->Run(kRate, secs, opt.ops, nullptr, nullptr);
    SpanLog log;
    Prober probe(k, w->env.task->ns());
    Phase traced = d->Run(kRate, secs, opt.ops, &log, &probe);
    const double a = plain.lat.Pct(0.5);
    const double b = traced.lat.Pct(0.5);
    r.Layer("trace.overhead_ratio", a == 0 ? 0 : b / a,
            "traced_p50_ns=" + std::to_string(b) +
                " / untraced_p50_ns=" + std::to_string(a));
    AddSpanMetrics(log, probe, opt, &r);
  }

  w->srv->Stop();
  r.audit_clean = AuditClean(k, "mail-serve");
  r.attempted = check.attempted();
  r.failed = check.failed();
  return r;
}

}  // namespace perfbench
}  // namespace dircache
