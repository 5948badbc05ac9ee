/// \file main.cpp
/// Entry point of the wall-clock benchmark:
///
///   parfft_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                    [--reference <file>] [--trace-out <file>] [--tiny]
///                    [--digest-only]
///
/// Untraced runs print the end-to-end metrics of one workload; traced runs
/// print the per-layer suite plus the workload's trace overhead and its
/// self-time accounting. The last line of stdout is one JSON object.

#include <malloc.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Workload {
  PassStats (*run)(const Options&, double, Outcome&, Tracer*);
  void (*reference)(const Options&, Outcome&);  ///< null: none needed
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> w = {
      {"scale_sweep", {run_scale_sweep, nullptr}},
      {"serve_steady", {run_serve_steady, reference_serve_steady}},
      {"serve_churn", {run_serve_churn, reference_serve_churn}},
      {"fft_exec", {run_fft_exec, reference_fft_exec}},
  };
  return w;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "parfft_perfbench: %s\nusage: parfft_perfbench --workload "
               "<scale_sweep|serve_steady|serve_churn|fft_exec> --seed <n> "
               "--seconds <s> --trace <0|1> [--reference <file>] "
               "[--trace-out <file>] [--tiny] [--digest-only]\n",
               why);
  return 2;
}

void print_json(const Outcome& out, const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += out.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const auto& [name, v] : m.items()) {
    const double value = std::isfinite(v.first) ? v.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    s += (first ? "" : ", ") + std::string("\"") + name +
         "\": {\"value\": " + buf + ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void print_table(const Metrics& m) {
  for (const auto& [name, v] : m.items())
    std::printf("  %-36s %14s %s\n", name.c_str(), fmt(v.first, 6).c_str(),
                v.second.c_str());
}

/// Self time per layer of the traced pass, as a share of its primary
/// calls' wall time.
void print_accounting(const Tracer& t, double untraced_op_s,
                      std::uint64_t untraced_ops, const PassStats& traced) {
  const double root = t.root_total();
  std::printf("self-time accounting of the traced pass (%.4g s in primary "
              "calls; untraced %.4g s per op, traced %.4g s per op):\n",
              root, untraced_op_s / static_cast<double>(untraced_ops),
              traced.op_seconds / static_cast<double>(traced.ops));
  for (const auto& [layer, self] : t.self_by_layer())
    std::printf("  %-16s %10.4f s  %6.2f%%\n", layer.c_str(), self,
                root > 0 ? 100 * self / root : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays in the heap instead of going back to the kernel, so
  // repeated operations reuse warm pages. By default glibc maps every large
  // block afresh: a 3072-rank pricing then spends 40% of its time in page
  // faults, whose cost swings with the host's other tenants.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--digest-only") {
      o.digest_only = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
      have_seconds = o.seconds >= 0;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
      have_trace = true;
    } else if (a == "--reference") {
      o.reference_path = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const auto it = workloads().find(o.workload);
  if (it == workloads().end()) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");
  const auto run = it->second.run;
  // The untimed reference round, after every timed pass (so it does not
  // count in peak_rss_mb).
  auto reference_round = [&](Outcome& out) {
    if (it->second.reference != nullptr) it->second.reference(o, out);
  };

  Reference ref;
  if (!o.reference_path.empty() && !ref.load(o.reference_path))
    return usage(("cannot read reference " + o.reference_path).c_str());

  Outcome out;
  try {
    if (o.digest_only) {
      run(o, 0, out, nullptr);
      reference_round(out);
      for (const auto& [key, hex] : out.digests)
        std::printf("REF %s %s %s\n", o.workload.c_str(), key.c_str(),
                    hex.c_str());
      return out.failed == 0 ? 0 : 1;
    }
    if (!o.trace) {
      run(o, o.seconds, out, nullptr);
      out.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MB");
      reference_round(out);
      ref.check(o.workload, out);
    } else {
      sweep_layer_suite(o, out);
      serve_layer_suite(o, out);
      fft_layer_suite(o, out);
      // Untraced and traced passes alternate, one round each, while two
      // thirds of the budget last; the overhead is the ratio of their
      // median per-operation times.
      Outcome untraced;
      Tracer tracer;
      std::vector<double> u_op, t_op;
      PassStats u, t;
      const double t0 = now_s();
      do {
        const PassStats pu = run(o, 0, untraced, nullptr);
        const PassStats pt = run(o, 0, out, &tracer);
        u_op.push_back(pu.op_seconds / static_cast<double>(pu.ops));
        t_op.push_back(pt.op_seconds / static_cast<double>(pt.ops));
        u.op_seconds += pu.op_seconds;
        u.ops += pu.ops;
        t.op_seconds += pt.op_seconds;
        t.ops += pt.ops;
      } while ((now_s() - t0) * (1.0 + 1.0 / static_cast<double>(u_op.size())) <
               2.0 * o.seconds / 3.0);
      if (out.digests != untraced.digests ||
          out.pass_digests != untraced.pass_digests) {
        ++out.mismatches;
        out.fail("traced passes digest differently from untraced passes");
      }
      out.attempted += untraced.attempted;
      out.failed += untraced.failed;
      out.mismatches += untraced.mismatches;
      for (const std::string& l : untraced.lines) out.note(l);
      reference_round(out);
      ref.check(o.workload, out);
      out.per_layer.set("bench.trace_overhead_ratio",
                        median(t_op) / median(u_op), "ratio");
      out.per_layer.set("model.mismatches", static_cast<double>(out.mismatches),
                        "count");
      print_accounting(tracer, u.op_seconds, u.ops, t);
      if (!o.trace_out.empty() && !tracer.write_chrome(o.trace_out))
        out.note("cannot write spans to " + o.trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parfft_perfbench: %s\n", e.what());
    return 1;
  }

  // Repeated passes repeat their notes; print each once.
  std::vector<std::string> printed;
  for (const std::string& l : out.lines)
    if (std::find(printed.begin(), printed.end(), l) == printed.end()) {
      std::printf("%s\n", l.c_str());
      printed.push_back(l);
    }
  std::printf("workload %s, seed %llu, error_rate %.6g (%llu failed of %llu)\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  const Metrics& m = o.trace ? out.per_layer : out.end_to_end;
  print_table(m);
  print_json(out, m);
  return out.failed == 0 ? 0 : 1;
}
