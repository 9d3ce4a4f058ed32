// dcbench: the seeded dcache benchmark.
//
//   dcbench --workload <warm-lookup|mail-serve|cold-scan> --seed <n>
//           --seconds <s> --trace <0|1> [--ops <n>] [--out-dir <dir>]
//
// Prints a host fingerprint, every metric by name and unit (ratios with
// their raw counts), the counter ledger, and as its last line one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any op
// returned something other than its expected outcome or the post-run audit
// found a violation.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sys/personality.h>
#include <thread>
#include <unistd.h>

#include "perfbench/src/common.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace dircache {
namespace perfbench {
namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext < 0x80000004) {
    return "unknown";
  }
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  while (!s.empty() && s.front() == ' ') {
    s.erase(s.begin());
  }
  return s;
#else
  return "unknown";
#endif
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "dcbench: %s\nusage: dcbench --workload "
               "<warm-lookup|mail-serve|cold-scan> --seed <n> --seconds <s> "
               "--trace <0|1> [--ops <n>] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + a).c_str());
    }
    std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v != "0";
    } else if (a == "--ops") {
      o.ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      Usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(o.seconds > 0) || o.seconds > 600) {
    Usage("--seconds must be in (0, 600]");
  }
  return o;
}

double Finite(double v) { return std::isfinite(v) ? v : 0; }

void PrintMetric(const char* kind, const Metric& m, const char* unit) {
  std::printf("%-6s %-34s %16.6f %-8s %s\n", kind, m.name.c_str(),
              Finite(m.value), unit, m.basis.c_str());
}

}  // namespace
}  // namespace perfbench
}  // namespace dircache

int main(int argc, char** argv) {
  using namespace dircache::perfbench;
  // The PCC and other tables hash dentry addresses, so with address-space
  // randomization a single-threaded run's counts would differ from run to
  // run. Re-exec once with randomization off; if that is refused, run on
  // (only exact count repetition is lost).
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1) {
    execvp(argv[0], argv);
  }
  Options opt = Parse(argc, argv);

#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf("host   nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              compiler, DCBENCH_BUILD_TYPE);
  std::printf("run    workload=%s seed=%llu seconds=%g trace=%d ops=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              static_cast<unsigned long long>(opt.ops));
  std::fflush(stdout);

  Result r;
  if (opt.workload == "warm-lookup") {
    r = RunWarmLookup(opt);
  } else if (opt.workload == "mail-serve") {
    r = RunMailServe(opt);
  } else if (opt.workload == "cold-scan") {
    r = RunColdScan(opt);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }

  for (const Metric& m : r.end_to_end) {
    PrintMetric("e2e", m, m.unit.c_str());
  }
  for (const Metric& m : r.extra) {
    PrintMetric("e2e", m, m.unit.c_str());
  }
  const double error_rate =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("e2e    %-34s %16.6f %-8s failed=%llu / attempted=%llu\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("audit  %s\n", r.audit_clean ? "clean" : "VIOLATIONS");
  if (opt.trace) {
    for (const auto& [name, unit] : LayerMetricTable()) {
      auto it = r.layer.find(name);
      Metric m = it == r.layer.end() ? Metric{name, 0, "", "(not loaded)"}
                                     : it->second;
      PrintMetric("layer", m, unit);
    }
  }
  for (const auto& [label, v] : r.ledger) {
    std::printf("ledger %-34s %llu\n", label.c_str(),
                static_cast<unsigned long long>(v));
  }

  const bool correct = r.failed == 0 && r.audit_clean && r.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double v, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", Finite(v));
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
  };
  if (opt.trace) {
    for (const auto& [name, unit] : LayerMetricTable()) {
      auto it = r.layer.find(name);
      emit(name, it == r.layer.end() ? 0 : it->second.value, unit);
    }
  } else {
    for (const Metric& m : r.end_to_end) {
      emit(m.name, m.value, m.unit);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
