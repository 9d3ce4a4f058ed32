#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>

#include "src/server/server.h"
#include "src/util/epoch.h"
#include "src/vfs/governor.h"

namespace dircache {
namespace perfbench {

double Samples::Pct(double q) {
  if (v_.empty()) {
    return 0;
  }
  const double pos = q * static_cast<double>(v_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  std::nth_element(v_.begin(), v_.begin() + lo, v_.end());
  const double a = static_cast<double>(v_[lo]);
  if (lo + 1 >= v_.size()) {
    return a;
  }
  const double b = static_cast<double>(
      *std::min_element(v_.begin() + lo + 1, v_.end()));
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

size_t Rounds(const Options& opt) {
  if (opt.ops != 0) {
    return 1;
  }
  return std::max<size_t>(1, static_cast<size_t>(std::llround(opt.seconds)));
}

void Result::Layer(const std::string& name, double v, std::string basis) {
  layer[name] = Metric{name, v, "", std::move(basis)};
}

void Result::Ratio(const std::string& name, const char* num_label,
                   uint64_t num, const char* den_label, uint64_t den) {
  const double v =
      den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
  Layer(name, v,
        std::string(num_label) + "=" + std::to_string(num) + " / " +
            den_label + "=" + std::to_string(den));
}

const std::vector<std::pair<const char*, const char*>>& LayerMetricTable() {
  static const std::vector<std::pair<const char*, const char*>> kTable = {
      {"task.fstatat1_p50_ns", "ns"},
      {"task.open_close_p50_ns", "ns"},
      {"task.enoent_p50_ns", "ns"},
      {"walk.fast_hit_ratio", "ratio"},
      {"walk.depth1_p50_ns", "ns"},
      {"walk.depth8plus_p50_ns", "ns"},
      {"walk.slow_comps_per_op", "count/op"},
      {"walk.slow_retry_ratio", "ratio"},
      {"walk.sc_resume_ratio", "ratio"},
      {"walk.sc_restart_per_op", "count/op"},
      {"core.sign_ns", "ns"},
      {"core.dlht_lookup_ns", "ns"},
      {"core.dlht_coll_per_lookup", "count/op"},
      {"core.pcc_hit_ratio", "ratio"},
      {"core.pcc_stale_ratio", "ratio"},
      {"core.shared_writes_per_op", "count/op"},
      {"core.locks_per_op", "count/op"},
      {"dcache.hit_ratio", "ratio"},
      {"dcache.neg_hits_per_op", "count/op"},
      {"dcache.dir_complete_per_op", "count/op"},
      {"dcache.readdir_cached_ratio", "ratio"},
      {"dcache.dentries", "count"},
      {"inval.dentries_per_mutation", "count/op"},
      {"inval.leaf_rename_p50_ns", "ns"},
      {"inval.dir_rename_p50_us", "us"},
      {"server.batch_depth_mean", "count"},
      {"server.nop_rtt_p50_ns", "ns"},
      {"server.nop_rtt_p99_ns", "ns"},
      {"server.gen_lag_p99_us", "us"},
      {"governor.tick_p50_us", "us"},
      {"governor.tick_p99_us", "us"},
      {"governor.shrinks_per_tick", "count/op"},
      {"governor.peak_usage_over_budget", "ratio"},
      {"governor.dlht_resizes", "count"},
      {"governor.dlht_migrated", "count"},
      {"storage.block_reads_per_op", "count/op"},
      {"storage.block_writes_per_op", "count/op"},
      {"storage.bufcache_hit_ratio", "ratio"},
      {"obs.enabled_cost_ratio", "ratio"},
      {"ref.baseline_speedup", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"self.request_ns", "ns"},
      {"self.submit_ns", "ns"},
      {"self.sign_ns", "ns"},
      {"self.dlht_ns", "ns"},
      {"self.tick_ns", "ns"},
      {"self.gen_lag_ns", "ns"},
  };
  return kTable;
}

bool Checker::Expect(bool ok, uint64_t op, const char* what, int64_t got,
                     int64_t want) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 10) {
      std::fprintf(stderr, "%s: op %llu %s: got %lld, want %lld\n", workload_,
                   static_cast<unsigned long long>(op), what,
                   static_cast<long long>(got), static_cast<long long>(want));
    }
    ++failed_;
  }
  return ok;
}

uint64_t Counts::Get(std::string_view label) const {
  for (const auto& [k, v] : v_) {
    if (k == label) {
      return v;
    }
  }
  return 0;
}

Counts Counts::Minus(const Counts& before) const {
  Counts d;
  for (const auto& [k, v] : v_) {
    d.Set(k, v - before.Get(k));
  }
  return d;
}

Counts TakeCounts(Kernel& kernel, DiskFs* fs, const server::Server* srv) {
  Counts c;
  kernel.stats().ForEachCounter(
      [&](const char* label, const ShardedCounter& v) {
        c.Set(label, v.value());
      });
  if (fs != nullptr) {
    c.Set("dev.reads", fs->device().reads());
    c.Set("dev.writes", fs->device().writes());
    c.Set("dev.io_ns", fs->device().total_io_nanos());
    c.Set("bc.hits", fs->buffer_cache().hits());
    c.Set("bc.misses", fs->buffer_cache().misses());
  }
  c.Set("srv.ops", srv == nullptr ? 0 : srv->ops_completed());
  c.Set("srv.batches", srv == nullptr ? 0 : srv->batches());
  c.Set("gov.ticks",
        kernel.governor() == nullptr ? 0 : kernel.governor()->ticks());
  return c;
}

void AddCounterMetrics(const Counts& d, uint64_t ops, uint64_t mutations,
                       Result* r) {
  auto g = [&](const char* l) { return d.Get(l); };
  r->Ratio("walk.fast_hit_ratio", "fast_hit", g("fast_hit"), "lookups",
           g("lookups"));
  r->Ratio("walk.slow_comps_per_op", "slow_comps", g("slow_comps"), "ops", ops);
  r->Ratio("walk.slow_retry_ratio", "slow_retry", g("slow_retry"), "slow",
           g("slow"));
  r->Ratio("walk.sc_resume_ratio", "sc_resume", g("sc_resume"), "fast_miss",
           g("fast_miss"));
  r->Ratio("walk.sc_restart_per_op", "sc_restart", g("sc_restart"), "ops",
           ops);
  r->Ratio("core.dlht_coll_per_lookup", "dlht_coll", g("dlht_coll"),
           "dlht_hit+dlht_miss", g("dlht_hit") + g("dlht_miss"));
  r->Ratio("core.pcc_hit_ratio", "pcc_hit", g("pcc_hit"), "pcc_hit+pcc_miss",
           g("pcc_hit") + g("pcc_miss"));
  r->Ratio("core.pcc_stale_ratio", "pcc_stale", g("pcc_stale"),
           "pcc_hit+pcc_miss", g("pcc_hit") + g("pcc_miss"));
  r->Ratio("core.shared_writes_per_op", "shared_writes", g("shared_writes"),
           "ops", ops);
  r->Ratio("core.locks_per_op", "locks", g("locks"), "ops", ops);
  r->Ratio("dcache.hit_ratio", "dc_hit", g("dc_hit"), "dc_hit+dc_miss",
           g("dc_hit") + g("dc_miss"));
  r->Ratio("dcache.neg_hits_per_op", "neg", g("neg"), "ops", ops);
  r->Ratio("dcache.dir_complete_per_op", "dir_complete", g("dir_complete"),
           "ops", ops);
  r->Ratio("dcache.readdir_cached_ratio", "readdir_cached",
           g("readdir_cached"), "readdir_cached+readdir_fs",
           g("readdir_cached") + g("readdir_fs"));
  r->Ratio("inval.dentries_per_mutation", "inval_dentries",
           g("inval_dentries"), "mutations", mutations);
  r->Ratio("server.batch_depth_mean", "srv.ops", g("srv.ops"), "srv.batches",
           g("srv.batches"));
  r->Ratio("governor.shrinks_per_tick", "gov_shrinks", g("gov_shrinks"),
           "gov.ticks", g("gov.ticks"));
  r->Layer("governor.dlht_resizes", static_cast<double>(g("dlht_resizes")));
  r->Layer("governor.dlht_migrated", static_cast<double>(g("dlht_migrated")));
  r->Ratio("storage.block_reads_per_op", "dev.reads", g("dev.reads"), "ops",
           ops);
  r->Ratio("storage.block_writes_per_op", "dev.writes", g("dev.writes"), "ops",
           ops);
  r->Ratio("storage.bufcache_hit_ratio", "bc.hits", g("bc.hits"),
           "bc.hits+bc.misses", g("bc.hits") + g("bc.misses"));
  for (const auto& [k, v] : d.items()) {
    r->ledger.emplace_back(k, v);
  }
  r->ledger.emplace_back("ops", ops);
  r->ledger.emplace_back("mutations", mutations);
}

const char* SpanNameString(SpanName n) {
  switch (n) {
    case kSpanRequest:
      return "request";
    case kSpanSubmit:
      return "submit";
    case kSpanSign:
      return "sign";
    case kSpanDlht:
      return "dlht";
    case kSpanTick:
      return "tick";
    case kSpanGenLag:
      return "gen_lag";
    case kSpanCount:
      break;
  }
  return "?";
}

uint32_t SpanLog::Add(SpanName name, uint32_t parent, uint64_t op,
                      uint64_t start, uint64_t end) {
  spans_.push_back(Span{start, end, op, parent, name});
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::vector<Samples> SpanLog::Durations() const {
  std::vector<Samples> out(kSpanCount);
  for (const Span& s : spans_) {
    out[s.name].Add(s.end - s.start);
  }
  return out;
}

std::vector<Samples> SpanLog::SelfTimes() const {
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      covered[s.parent] += s.end - s.start;
    }
  }
  std::vector<Samples> out(kSpanCount);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t dur = spans_[i].end - spans_[i].start;
    out[spans_[i].name].Add(dur > covered[i] ? dur - covered[i] : 0);
  }
  return out;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name,parent,op,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%llu,%llu,%llu\n", SpanNameString(s.name),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end));
  }
  return std::fclose(f) == 0;
}

void AddSpanMetrics(const SpanLog& log, const Prober& probe,
                    const Options& opt, Result* r) {
  std::vector<Samples> dur = log.Durations();
  std::vector<Samples> self = log.SelfTimes();
  r->Layer("core.sign_ns", dur[kSpanSign].Pct(0.5));
  r->Layer("core.dlht_lookup_ns", dur[kSpanDlht].Pct(0.5));
  for (int n = 0; n < kSpanCount; ++n) {
    r->Layer(std::string("self.") + SpanNameString(static_cast<SpanName>(n)) +
                 "_ns",
             self[n].Pct(0.5));
  }
  r->ledger.emplace_back("spans", log.size());
  r->ledger.emplace_back("probe.lookups", probe.probes());
  r->ledger.emplace_back("probe.dlht_hits", probe.hits());
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".csv";
    if (!log.WriteCsv(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
}

void Prober::Probe(std::string_view abs_path, SpanLog& log, uint32_t parent,
                   uint64_t op) {
  const PathSigner& signer = kernel_.signer();
  uint32_t s = log.Begin(kSpanSign, parent, op);
  HashState st = signer.RootState();
  size_t i = 0;
  while (i < abs_path.size()) {
    while (i < abs_path.size() && abs_path[i] == '/') {
      ++i;
    }
    size_t end = i;
    while (end < abs_path.size() && abs_path[end] != '/') {
      ++end;
    }
    if (end > i) {
      signer.AppendComponent(st, abs_path.substr(i, end - i));
    }
    i = end;
  }
  const Signature sig = signer.Finalize(st);
  log.End(s);
  s = log.Begin(kSpanDlht, parent, op);
  bool hit;
  {
    EpochDomain::ReadGuard guard(EpochDomain::Global());
    hit = ns_->dlht().Lookup(sig, &scratch_) != nullptr;
  }
  log.End(s);
  ++probes_;
  hits_ += hit ? 1 : 0;
}

Env MakeEnv(const CacheConfig& cfg, const ObsConfig& obs,
            const DiskFsOptions& disk) {
  Env env;
  KernelConfig kc;
  kc.cache = cfg;
  kc.obs = obs;
  // Fixed key: identical signatures (and so identical DLHT chains) on every
  // run of a seed.
  kc.signature_seed = 0x9e3779b97f4a7c15ULL;
  env.kernel = std::make_unique<Kernel>(kc);
  env.fs = std::make_shared<DiskFs>(disk);
  if (!env.kernel->MountRootFs(env.fs).ok()) {
    std::fprintf(stderr, "mounting the root file system failed\n");
    std::exit(2);
  }
  env.task = env.kernel->CreateInitTask(MakeCred(0, 0));
  return env;
}

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return i < cdf_.size() ? i : cdf_.size() - 1;
}

void MemoryPeak::Sample(Kernel& kernel) {
  peak_ = std::max<uint64_t>(peak_, kernel.Observe().memory.total_bytes);
}

bool AuditClean(Kernel& kernel, const char* workload) {
  std::vector<std::shared_ptr<Pcc>> live = kernel.LivePccs();
  std::vector<const Pcc*> pccs;
  for (const auto& p : live) {
    pccs.push_back(p.get());
  }
  obs::AuditReport rep = kernel.Audit(pccs);
  if (!rep.clean()) {
    std::fprintf(stderr, "%s: %s\n", workload, rep.ToText().c_str());
  }
  return rep.clean();
}

size_t Depth(std::string_view path) {
  size_t n = 0;
  bool in = false;
  for (char c : path) {
    if (c == '/') {
      in = false;
    } else if (!in) {
      in = true;
      ++n;
    }
  }
  return n;
}

}  // namespace perfbench
}  // namespace dircache
