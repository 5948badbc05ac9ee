/// \file perfdiff.cpp
/// Compares two BENCH_parfft.json files (bench/perf_baseline output) and
/// exits nonzero when the current file regresses against the baseline.
///
/// Usage:
///   perfdiff <baseline.json> <current.json> [--tol=0.05] [--only=a,b]
///            [--skip=a,b]
///
/// Every metric carries a "dir" tag saying which direction is better;
/// a move the *wrong* way by more than the relative tolerance is a
/// regression. The global --tol applies unless the baseline metric
/// carries its own "tol" (e.g. the wall-clock-derived
/// obs.trace_overhead_ratio, whose noise floor is wider than the
/// virtual-time metrics'). --only=name,name restricts the comparison to
/// the named metrics -- the smoke path checks a partial run against the
/// full committed baseline without every absent metric counting as
/// deleted. --skip=name,name is its mirror: the named metrics are
/// neither compared nor reported, even when the current file lacks them
/// -- tier-1 skips the wall-clock rows a loaded test machine cannot
/// reproduce, while a dedicated job still gates them with --only.
/// Metrics missing from the current file are regressions
/// (a deleted guard is a silent regression); new metrics are reported
/// but never fail. Exit codes: 0 ok, 1 regression, 2 usage/parse error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mini_json.hpp"

namespace {

using parfft::tools::JsonParser;
using parfft::tools::JValue;

struct Metric {
  double v = 0;
  std::string dir = "lower";
  double tol = -1;  ///< per-metric override; < 0 = use the global
};

bool load_metrics(const char* path, std::map<std::string, Metric>& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfdiff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  JValue root;
  if (!JsonParser(text).parse(root) || !root.is_obj()) {
    std::fprintf(stderr, "perfdiff: %s is not valid JSON\n", path);
    return false;
  }
  const JValue* metrics = root.get("metrics");
  if (!metrics || !metrics->is_obj()) {
    std::fprintf(stderr, "perfdiff: %s has no \"metrics\" object\n", path);
    return false;
  }
  for (const auto& [name, val] : metrics->obj) {
    if (!val.is_obj()) continue;
    const JValue* v = val.get("v");
    if (!v || v->kind != JValue::Kind::Number) continue;
    Metric m;
    m.v = v->num;
    m.dir = val.str_or("dir", "lower");
    m.tol = val.num_or("tol", -1.0);
    out.emplace(name, std::move(m));
  }
  return true;
}

/// Adds the comma-separated names in `list` to `out`.
void add_names(const std::string& list, std::set<std::string>& out) {
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!name.empty()) out.insert(name);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  double tol = 0.05;
  std::set<std::string> only, skip;
  std::vector<const char*> files;
  const char* usage =
      "usage: perfdiff <baseline.json> <current.json> [--tol=0.05] "
      "[--only=metric,metric] [--skip=metric,metric]\n";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tol=", 6) == 0) {
      tol = std::strtod(argv[i] + 6, nullptr);
    } else if (std::strncmp(argv[i], "--only=", 7) == 0) {
      add_names(argv[i] + 7, only);
    } else if (std::strncmp(argv[i], "--skip=", 7) == 0) {
      add_names(argv[i] + 7, skip);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s", usage);
      return 0;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2 || tol < 0) {
    std::fprintf(stderr, "%s", usage);
    return 2;
  }

  std::map<std::string, Metric> base, cur;
  if (!load_metrics(files[0], base) || !load_metrics(files[1], cur)) return 2;
  // A misspelt name would silently select (or skip) nothing.
  for (const auto& [flag, names] : {std::pair{"--only", &only},
                                    std::pair{"--skip", &skip}})
    for (const std::string& name : *names)
      if (base.find(name) == base.end()) {
        std::fprintf(stderr, "perfdiff: %s metric %s not in baseline\n",
                     flag, name.c_str());
        return 2;
      }

  int regressions = 0, improvements = 0;
  std::size_t name_w = 6;
  for (const auto& [name, m] : base) name_w = std::max(name_w, name.size());
  std::printf("%-*s %14s %14s %9s  status\n", static_cast<int>(name_w),
              "metric", "baseline", "current", "delta");
  for (const auto& [name, b] : base) {
    if (!only.empty() && only.find(name) == only.end()) continue;
    if (skip.count(name) != 0) continue;
    const auto it = cur.find(name);
    if (it == cur.end()) {
      std::printf("%-*s %14.6g %14s %9s  REGRESSION (missing)\n",
                  static_cast<int>(name_w), name.c_str(), b.v, "-", "-");
      ++regressions;
      continue;
    }
    const Metric& c = it->second;
    const double denom = b.v != 0 ? b.v : 1.0;
    const double rel = (c.v - b.v) / denom;
    // Positive `bad` means the metric moved the wrong way.
    const double bad = b.dir == "higher" ? -rel : rel;
    const double limit = b.tol >= 0 ? b.tol : tol;
    const char* status = "ok";
    if (bad > limit) {
      status = "REGRESSION";
      ++regressions;
    } else if (bad < -limit) {
      status = "improved";
      ++improvements;
    }
    std::printf("%-*s %14.6g %14.6g %+8.2f%%  %s\n",
                static_cast<int>(name_w), name.c_str(), b.v, c.v, 100 * rel,
                status);
  }
  if (only.empty())
    for (const auto& [name, c] : cur)
      if (base.find(name) == base.end())
        std::printf("%-*s %14s %14.6g %9s  new\n", static_cast<int>(name_w),
                    name.c_str(), "-", c.v, "-");

  std::printf("\n%d regression(s), %d improvement(s), %zu skipped, "
              "tolerance %.1f%%\n",
              regressions, improvements, skip.size(), 100 * tol);
  return regressions > 0 ? 1 : 0;
}
