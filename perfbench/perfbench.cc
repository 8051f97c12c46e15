// The benchmark binary behind BENCHMARK.json (run through perfbench/run.py).
//
//   cagra_perfbench --workload batch_deep|online_pq|churn --seed N
//                   --seconds S --trace 0|1 [--git-sha SHA]
//                   [--trace-out PATH]
//
// Prints a provenance line, informational lines, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics": {name:
// value}}: the end-to-end metrics, plus the per-layer ones when traced.
// Exits 1 when an output check fails, 2 on bad arguments, and 3 when the
// build is unoptimized or sanitized (its numbers would mean nothing).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "distance/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

/// JSON string escape for the few free-form strings printed here.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Metrics(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); i++) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", kv[i].second);
    out += (i == 0 ? "" : ", ") + Quote(kv[i].first) + ": " + num;
  }
  return out + "}";
}

int Usage(const char* msg) {
  std::fprintf(stderr, "cagra_perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string git_sha = "unknown";
  std::string trace_out;
  bool trace = false;
  bool have_seed = false;
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::strcmp(val, "1") == 0;
    } else if (key == "--git-sha") {
      git_sha = val;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || opt.seconds <= 0) {
    return Usage("need --workload, --seed and --seconds > 0");
  }
  if (!OptimizedBuild() || SanitizedBuild()) {
    std::fprintf(stderr,
                 "cagra_perfbench: refusing to report numbers: the build is %s "
                 "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 SanitizedBuild() ? "sanitized" : "unoptimized",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const char* force_scalar = std::getenv("CAGRA_FORCE_SCALAR");
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"simd\": %s, "
      "\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"CAGRA_FORCE_SCALAR\": %s, \"git_sha\": %s, \"traced\": %s}}\n",
      Quote(workload).c_str(), static_cast<unsigned long long>(opt.seed),
      Quote(cagra::SimdLevelName(cagra::ActiveSimdLevel())).c_str(),
      std::thread::hardware_concurrency(), Quote(__VERSION__).c_str(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(force_scalar == nullptr ? "" : force_scalar).c_str(),
      Quote(git_sha).c_str(), trace ? "true" : "false");
  std::fflush(stdout);

  perfbench::Tracer tracer(trace);
  perfbench::Report report;
  if (workload == "batch_deep") {
    report = perfbench::RunBatchDeep(opt, &tracer);
  } else if (workload == "online_pq") {
    report = perfbench::RunOnlinePq(opt, &tracer);
  } else if (workload == "churn") {
    report = perfbench::RunChurn(opt, &tracer);
  } else {
    return Usage(("unknown workload " + workload).c_str());
  }

  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& f : report.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  if (trace) {
    // The traced run's own end-to-end numbers; run.py sets them against
    // the untraced run's to print the tracing overhead.
    std::printf("{\"traced_end_to_end\": %s}\n",
                Metrics(report.end_to_end).c_str());
    if (!trace_out.empty() && !tracer.WriteChromeTrace(trace_out)) {
      std::printf("# could not write %s\n", trace_out.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              Metrics(trace ? report.per_layer : report.end_to_end).c_str());
  return report.correct() ? 0 : 1;
}
