/// \file parfft_lint.cpp
/// Driver of the ParFFT whole-program analyzer.
///
/// Every performance number in this repository is a deterministic
/// virtual-time estimate and the repo's architecture rests on two
/// invariants the compiler cannot see: the strict module layer order
/// (tools/lint/layers.def) and the accounting discipline behind the
/// ServeReport/ClusterReport/PlanCache conservation identities
/// (tools/lint/accounting.def). This tool makes violations of either --
/// plus the classic determinism hazards -- a build failure.
///
/// Passes (see lint.hpp for the pipeline layout; docs/static-analysis.md
/// for the full rule reference):
///   per-file   wall-clock, unordered-iter, float-eq, include-hygiene,
///              span-pairing, alert-transitions, pointer-key, accounting
///   whole-tree layering (include graph vs layers.def: upward edges,
///              same-layer cross-includes, unknown modules, cycles),
///              unused-decl (src/ header functions nothing names)
///
/// Allowlist mechanism: a line (or the line above it) containing
///   // parfft-lint: allow(<rule>)
/// suppresses findings of <rule> on that line. Files under src/common/
/// are exempt from wall-clock (the blessed Rng lives there); float-eq,
/// alert-transitions, pointer-key and accounting are scoped to src/
/// (explicit file arguments are always in scope, which is how the
/// fixture tests drive the tool). Files under a `names` tree of the
/// layer spec (perfbench) run no rule: they only count as callers for
/// unused-decl.
///
/// Usage: parfft_lint [options] <file-or-dir>...
///   --layers=FILE    layer spec; enables the layering pass
///   --counters=FILE  accounting spec; enables the accounting pass
///   --baseline=FILE  suppress grandfathered findings listed in FILE
///   --sarif=FILE     write a SARIF 2.1.0 log of the findings
///   --expect=r[,r]   negative-fixture mode: exit 0 iff every listed
///                    rule fired at least once (unknown rule names are a
///                    usage error -- the list is validated against the
///                    rule registry)
///
/// Directories are scanned recursively for .cpp/.hpp, skipping build/
/// and lint_fixtures/. Findings are sorted by (file, line, rule) before
/// printing, so output is byte-stable across traversal orders. Exit 0
/// clean, 1 findings, 2 usage error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "lint.hpp"

namespace {

namespace fs = std::filesystem;

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

void collect(const fs::path& root,
             std::vector<std::pair<fs::path, bool>>& out) {
  if (fs::is_regular_file(root)) {
    out.push_back({root, /*explicit_file=*/true});
    return;
  }
  if (!fs::is_directory(root)) {
    std::cerr << "parfft_lint: no such file or directory: " << root << "\n";
    std::exit(2);
  }
  std::vector<fs::path> files;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    const std::string name = it->path().filename().string();
    if (it->is_directory() && (name == "build" || name == "lint_fixtures" ||
                               name == ".git")) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && scannable(it->path()))
      files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& p : files) out.push_back({p, false});
}

std::string file_contents(const fs::path& p, bool& ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ok = true;
  return buf.str();
}

void usage(std::ostream& os) {
  os << "usage: parfft_lint [options] <file-or-dir>...\n"
        "options:\n"
        "  --layers=FILE    layer spec (enables the layering pass)\n"
        "  --counters=FILE  accounting spec (enables the accounting pass)\n"
        "  --baseline=FILE  baseline suppressions "
        "(rule<TAB>path<TAB>line)\n"
        "  --sarif=FILE     write SARIF 2.1.0 output\n"
        "  --expect=r[,r]   negative-fixture mode (exit 0 iff each rule "
        "fired)\n"
        "rules:\n";
  for (const lint::Rule& r : lint::registry()) {
    const std::string name = r.name;
    os << "  " << name << std::string(name.size() < 18 ? 18 - name.size() : 1, ' ')
       << r.summary << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> expect;
  std::vector<std::pair<fs::path, bool>> files;
  std::string layers_path, counters_path, baseline_path, sarif_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) {
      return arg.substr(std::string(flag).size());
    };
    if (arg.rfind("--expect=", 0) == 0) {
      std::stringstream ss(value("--expect="));
      std::string r;
      while (std::getline(ss, r, ',')) expect.push_back(r);
    } else if (arg.rfind("--layers=", 0) == 0) {
      layers_path = value("--layers=");
    } else if (arg.rfind("--counters=", 0) == 0) {
      counters_path = value("--counters=");
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline=");
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = value("--sarif=");
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "parfft_lint: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      collect(arg, files);
    }
  }
  // --expect names are validated against the registry: a typo'd or
  // removed rule must be a hard error, not a fixture that silently
  // stops testing anything.
  for (const std::string& r : expect) {
    if (!lint::known_rule(r)) {
      std::cerr << "parfft_lint: --expect names unknown rule '" << r
                << "'; known rules:";
      for (const lint::Rule& known : lint::registry())
        std::cerr << ' ' << known.name;
      std::cerr << "\n";
      return 2;
    }
  }
  if (files.empty()) {
    std::cerr << "parfft_lint: no inputs\n";
    return 2;
  }

  std::string err;
  lint::LayerSpec layers;
  if (!layers_path.empty() &&
      !lint::parse_layer_spec(layers_path, layers, err)) {
    std::cerr << "parfft_lint: " << err << "\n";
    return 2;
  }
  lint::CounterSpec counters;
  if (!counters_path.empty() &&
      !lint::parse_counter_spec(counters_path, counters, err)) {
    std::cerr << "parfft_lint: " << err << "\n";
    return 2;
  }
  lint::Baseline baseline;
  if (!baseline_path.empty() &&
      !lint::load_baseline(baseline_path, baseline, err)) {
    std::cerr << "parfft_lint: " << err << "\n";
    return 2;
  }

  // Per-file analysis. Every FileText is kept for the unused-decl pass
  // and every FileReport for the layering pass.
  std::vector<lint::FileText> texts(files.size());
  std::vector<std::pair<std::string, lint::FileReport>> reports;
  reports.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    lint::FileText& f = texts[i];
    f.path = files[i].first.generic_string();
    f.explicit_file = files[i].second;
    bool ok = false;
    const std::string content = file_contents(files[i].first, ok);
    if (!ok) {
      std::cerr << "parfft_lint: cannot read " << f.path << "\n";
      return 2;
    }
    lint::build_file_text(f, content);
    f.names_only = lint::classify_path(f.path, layers).names;
    if (f.names_only) continue;
    lint::FileReport rep;
    lint::run_file_rules(f, rep);
    if (counters.loaded()) lint::check_accounting(f, counters, rep.findings);
    reports.emplace_back(f.path, std::move(rep));
  }

  std::vector<lint::Finding> findings;
  for (const auto& [path, rep] : reports) {
    (void)path;
    findings.insert(findings.end(), rep.findings.begin(), rep.findings.end());
  }
  if (layers.loaded()) lint::check_layering(reports, layers, findings);
  lint::check_unused_decls(texts, findings);

  lint::sort_findings(findings);
  std::vector<std::string> stale;
  const std::size_t suppressed =
      lint::apply_baseline(findings, baseline, stale);
  for (const std::string& key : stale) {
    std::string shown = key;
    for (char& c : shown)
      if (c == '\t') c = ' ';
    std::cerr << "parfft_lint: note: stale baseline entry (" << shown
              << ") -- the finding no longer exists; prune it\n";
  }

  for (const lint::Finding& v : findings)
    std::cerr << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";

  if (!sarif_path.empty() && !lint::write_sarif(sarif_path, findings)) {
    std::cerr << "parfft_lint: cannot write SARIF to " << sarif_path << "\n";
    return 2;
  }
  std::cerr << "parfft_lint: " << findings.size() << " finding(s)"
            << (suppressed ? " (+" + std::to_string(suppressed) +
                                 " baselined)"
                           : "")
            << " in " << files.size() << " file(s)\n";

  if (!expect.empty()) {
    // Negative-fixture mode: succeed iff every expected rule fired.
    bool ok = true;
    for (const std::string& r : expect) {
      const bool hit =
          std::any_of(findings.begin(), findings.end(),
                      [&](const lint::Finding& v) { return v.rule == r; });
      if (!hit) {
        std::cerr << "parfft_lint: expected a '" << r
                  << "' violation but none was found\n";
        ok = false;
      }
    }
    return ok ? 0 : 1;
  }
  return findings.empty() ? 0 : 1;
}
