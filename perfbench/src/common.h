// Shared pieces of the dcache benchmark (dcbench): options, latency samples,
// the counter ledger, the in-memory span log, the PathSigner/DLHT probe,
// kernel construction and the result record every workload fills.
//
// dcbench reaches the library only through its public entry points
// (Task::SubmitBatch, server::Server, CacheGovernor, Kernel::Observe/stats/
// Audit, the DiskFs device and buffer-cache counters, PathSigner and
// Dlht::Lookup for the traced probes).
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/obs/obs_config.h"
#include "src/server/batch.h"
#include "src/storage/diskfs.h"
#include "src/util/clock.h"
#include "src/util/rng.h"
#include "src/vfs/kernel.h"
#include "src/vfs/task.h"

namespace dircache {
namespace server {
class Server;
}  // namespace server

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Nonzero: run exactly this many measured ops (one round, no time bound)
  // instead of measuring for `seconds`. The self-test uses it to show that
  // single-threaded counts repeat exactly.
  uint64_t ops = 0;
  // Directory traced runs write their span logs to ("" = do not write).
  std::string out_dir;
};

// Latency samples in nanoseconds.
class Samples {
 public:
  void Add(uint64_t ns) { v_.push_back(ns); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t size() const { return v_.size(); }
  void Clear() { v_.clear(); }
  void Reserve(size_t n) { v_.reserve(n); }
  // Linear-interpolated percentile, q in [0,1]; 0 when empty. Reorders the
  // samples.
  double Pct(double q);

 private:
  std::vector<uint64_t> v_;
};

double Median(std::vector<double> v);

// Measured rounds of about one second each; a workload reports the median
// of its per-round figures, so a stall that spoils a round or two (a
// descheduled vCPU on a shared host) does not move the result. With --ops
// there is one round of exactly that many ops.
size_t Rounds(const Options& opt);

// A metric as printed: name, value, unit, and for ratios the raw counts
// they were built from.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string basis;
};

// What one workload run produced.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool audit_clean = true;
  std::vector<Metric> end_to_end;  // BENCHMARK.json end_to_end, every workload
  std::vector<Metric> extra;       // end-to-end, printed but not gated
  std::map<std::string, Metric> layer;  // per-layer metrics by name
  std::vector<std::pair<std::string, uint64_t>> ledger;  // raw counts

  void E2e(std::string name, double v, std::string unit) {
    end_to_end.push_back({std::move(name), v, std::move(unit), ""});
  }
  void Extra(std::string name, double v, std::string unit) {
    extra.push_back({std::move(name), v, std::move(unit), ""});
  }
  void Layer(const std::string& name, double v, std::string basis = "");
  // num/den with both counts recorded; 0 when den is 0.
  void Ratio(const std::string& name, const char* num_label, uint64_t num,
             const char* den_label, uint64_t den);
};

// The per-layer metric set, in report order: (name, unit). Every traced
// run prints each of them; a layer a workload bypasses reads 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetricTable();

// Checks every op's outcome, once per op; counts the ops checked and the
// mismatches, and prints the first few mismatches to stderr.
class Checker {
 public:
  explicit Checker(const char* workload) : workload_(workload) {}
  // Returns `ok`; a false result counts one failed op.
  bool Expect(bool ok, uint64_t op, const char* what, int64_t got,
              int64_t want);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  const char* workload_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- counter ledger ---------------------------------------------------------

// Every CacheStats counter (by its stable label) plus the DiskFs device and
// buffer-cache counters, the server's completion counters and the
// governor's tick count.
class Counts {
 public:
  uint64_t Get(std::string_view label) const;
  void Set(std::string label, uint64_t v) {
    v_.emplace_back(std::move(label), v);
  }
  const std::vector<std::pair<std::string, uint64_t>>& items() const {
    return v_;
  }
  // this - before, label by label.
  Counts Minus(const Counts& before) const;

 private:
  std::vector<std::pair<std::string, uint64_t>> v_;
};

Counts TakeCounts(Kernel& kernel, DiskFs* fs, const server::Server* srv);

// The per-layer metrics derived from counter deltas alone (every
// workload); `ops` is the number of measured ops.
void AddCounterMetrics(const Counts& d, uint64_t ops, uint64_t mutations,
                       Result* r);

// --- span log ---------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanRequest = 0,  // one op end to end, as the client sees it
  kSpanSubmit,       // the SubmitBatch / Server::Submit call
  kSpanSign,         // probe: PathSigner over the op's path
  kSpanDlht,         // probe: Dlht::Lookup of that signature
  kSpanTick,         // CacheGovernor::Tick
  kSpanGenLag,       // open loop: due time -> submit
  kSpanCount,
};

const char* SpanNameString(SpanName n);

inline constexpr uint32_t kNoParent = UINT32_MAX;

// Spans kept in memory during a traced run and written out at the end.
// Self time of a span = its duration minus what its children cover.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 20); }
  uint32_t Begin(SpanName name, uint32_t parent, uint64_t op) {
    return Add(name, parent, op, NowNanos(), 0);
  }
  void End(uint32_t idx) {
    if (idx != kNoParent) {
      spans_[idx].end = NowNanos();
    }
  }
  // A span whose start and end are already known.
  uint32_t Add(SpanName name, uint32_t parent, uint64_t op, uint64_t start,
               uint64_t end);
  size_t size() const { return spans_.size(); }
  // Self times per span name.
  std::vector<Samples> SelfTimes() const;
  // Durations per span name.
  std::vector<Samples> Durations() const;
  // One line per span: name,parent,op,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    uint64_t start;
    uint64_t end;
    uint64_t op;
    uint32_t parent;
    SpanName name;
  };
  std::vector<Span> spans_;
};

// Probe calls on an op's own path: sign it with the kernel's PathSigner and
// look the signature up in the namespace DLHT, each in its own span. Only
// traced runs probe; counters go to a private CacheStats so the kernel's
// ledger is untouched.
class Prober {
 public:
  Prober(Kernel& kernel, const MountNamespacePtr& ns)
      : kernel_(kernel), ns_(ns) {}
  void Probe(std::string_view abs_path, SpanLog& log, uint32_t parent,
             uint64_t op);
  uint64_t probes() const { return probes_; }
  uint64_t hits() const { return hits_; }

 private:
  Kernel& kernel_;
  MountNamespacePtr ns_;
  CacheStats scratch_;
  uint64_t probes_ = 0;
  uint64_t hits_ = 0;
};

// Per-layer metrics of a traced stretch: the sign and DLHT probe medians
// and every span's p50 self time; also writes the span log to
// <out_dir>/spans-<workload>-<seed>.csv.
void AddSpanMetrics(const SpanLog& log, const Prober& probe,
                    const Options& opt, Result* r);

// --- kernel construction ----------------------------------------------------

struct Env {
  std::unique_ptr<Kernel> kernel;
  std::shared_ptr<DiskFs> fs;
  TaskPtr task;
};

// A fresh kernel with a DiskFs root and an init task (root credential).
Env MakeEnv(const CacheConfig& cfg, const ObsConfig& obs,
            const DiskFsOptions& disk);

// Bounded Zipf(s) over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// FNV-1a over every op's opcode, paths and expected result: two runs
// sent the same op stream exactly when their hashes match.
class StreamHash {
 public:
  void Add(const server::SubmissionQueueEntry& s, int32_t expect) {
    Mix(&s.op, sizeof(s.op));
    Mix(s.path.data(), s.path.size());
    Mix(s.path2.data(), s.path2.size());
    Mix(&expect, sizeof(expect));
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Peak of Observe().memory.total_bytes across calls.
class MemoryPeak {
 public:
  void Sample(Kernel& kernel);
  uint64_t peak() const { return peak_; }

 private:
  uint64_t peak_ = 0;
};

// Runs Kernel::Audit() on a quiesced kernel; false (and a stderr line) when
// it reports violations.
bool AuditClean(Kernel& kernel, const char* workload);

// Number of '/'-separated components.
size_t Depth(std::string_view path);

// --- workloads --------------------------------------------------------------

Result RunWarmLookup(const Options& opt);
Result RunMailServe(const Options& opt);
Result RunColdScan(const Options& opt);

}  // namespace perfbench
}  // namespace dircache

#endif  // PERFBENCH_SRC_COMMON_H_
