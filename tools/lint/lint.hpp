/// \file lint.hpp
/// Shared types of the parfft_lint whole-program analyzer.
///
/// The tool is organised as a small multi-pass pipeline:
///
///   source.cpp      loading, comment/string stripping, allow directives,
///                   token helpers
///   rules_file.cpp  the per-file determinism rules (wall-clock,
///                   unordered-iter, float-eq, include-hygiene,
///                   span-pairing, alert-transitions, pointer-key)
///   layering.cpp    layers.def parsing + the whole-program include-graph
///                   pass (upward edges, same-layer cross-includes,
///                   cycles)
///   accounting.cpp  accounting.def parsing, counter-field extraction
///                   from the report/cache headers, and the cross-TU
///                   direct-write pass
///   unused.cpp      the whole-program unused-decl pass (src/ header
///                   functions no scanned file names)
///   output.cpp      deterministic ordering, text report, SARIF 2.1.0,
///                   baseline suppressions
///   parfft_lint.cpp the driver
///
/// Per-file passes produce a FileReport (findings + include facts); the
/// whole-program passes then run over every file: layering over the
/// include facts, unused-decl over the identifiers of every scanned
/// file, names-only trees included.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace lint {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// One quoted #include, recorded as a fact for the layering pass.
struct IncludeRef {
  std::size_t line = 0;
  std::string target;  ///< the include path as written, e.g. "serve/server.hpp"
  bool allow = false;  ///< carried a 'parfft-lint: allow(layering)' directive
};

/// Everything the per-file passes extract from one file; its include
/// facts feed the whole-program layering pass.
struct FileReport {
  std::vector<Finding> findings;
  std::vector<IncludeRef> includes;
};

struct FileText {
  std::string path;           ///< generic (forward-slash) form
  bool explicit_file = false; ///< named on the command line, not found by recursion
  bool names_only = false;    ///< under a `names` tree: read for identifiers only
  std::vector<std::string> raw;   ///< original lines (allow-directive scan)
  std::vector<std::string> code;  ///< comments and literal contents blanked
  std::set<std::pair<std::size_t, std::string>> allows;  ///< (1-based line, rule)
};

// ----------------------------------------------------------- source.cpp

/// Splits `content` into lines, strips comments/strings and collects
/// allow directives.
void build_file_text(FileText& f, const std::string& content);

bool allowed(const FileText& f, std::size_t line1, const std::string& rule);
bool ident_char(char c);
/// Position of `token` in `s` at identifier boundaries, from `from`.
std::size_t find_word(const std::string& s, const std::string& token,
                      std::size_t from = 0);
bool path_contains(const std::string& path, const std::string& dir);

// ----------------------------------------------------------- registry

struct Rule {
  const char* name;
  const char* summary;  ///< one line, shown by --help and in SARIF rule metadata
};

/// Every rule the analyzer can emit, in documentation order. --help and
/// --expect validation are both generated from this table, so the two
/// can never drift.
const std::vector<Rule>& registry();
bool known_rule(const std::string& name);

// ------------------------------------------------------- rules_file.cpp

/// Runs every per-file rule over `f`, appending findings and include
/// facts to `rep`.
void run_file_rules(const FileText& f, FileReport& rep);

// --------------------------------------------------------- layering.cpp

/// The checked-in layer spec (tools/lint/layers.def): an ordered list of
/// layers, each holding one or more src/ modules, the "open" trees
/// (bench, tests, tools, examples) that may include any module, and the
/// "names" trees (perfbench) whose files no rule checks but whose
/// identifiers count as uses for the unused-decl pass.
struct LayerSpec {
  std::string path;                 ///< spec file, for messages
  std::map<std::string, int> level; ///< module -> 0-based layer index
  std::vector<std::vector<std::string>> layers;  ///< modules per level
  std::set<std::string> open;       ///< trees free to include anything
  std::set<std::string> names;      ///< trees read for names only

  bool loaded() const { return !layers.empty(); }
};

/// Parses `path`; returns false and sets `err` on malformed input.
bool parse_layer_spec(const std::string& path, LayerSpec& spec, std::string& err);

/// Module classification of a scanned file: the component following a
/// "src" path component when it names a spec module ("core", ...);
/// otherwise "" with `open` or `names` set by the innermost open or
/// names tree the path runs through.
struct ModuleOf {
  std::string module;  ///< empty when not a module file
  bool open = false;
  bool names = false;
  std::string unknown; ///< src/<dir> not present in the spec (a finding)
};
ModuleOf classify_path(const std::string& path, const LayerSpec& spec);

/// The whole-program pass: builds the module dependency graph from every
/// file's include facts and reports upward edges, same-layer
/// cross-module edges, spec-unknown src modules and include cycles.
void check_layering(const std::vector<std::pair<std::string, FileReport>>& files,
                    const LayerSpec& spec, std::vector<Finding>& out);

// ------------------------------------------------------- accounting.cpp

/// One counter-bearing type from accounting.def: the header its fields
/// are extracted from and the sanctioned accessor files allowed to
/// mutate them.
struct CounterType {
  std::string name;    ///< e.g. "ServeReport"
  std::string header;  ///< repo-relative header the fields come from
  std::set<std::string> fields;      ///< arithmetic data members indexed
  std::vector<std::string> writers;  ///< sanctioned file path suffixes
};

struct CounterSpec {
  std::string path;  ///< spec file, for messages
  std::vector<CounterType> types;
  /// field -> indices into `types` (a name may belong to several types).
  std::map<std::string, std::vector<std::size_t>> by_field;

  bool loaded() const { return !types.empty(); }
};

/// Parses `path` and extracts each type's counter fields from its
/// header (resolved against the spec file's repo root). Returns false
/// and sets `err` when the spec or a header cannot be read or a type's
/// definition is not found.
bool parse_counter_spec(const std::string& path, CounterSpec& spec, std::string& err);

/// The cross-TU accounting pass for one file: direct writes (=, +=, ++,
/// ...) to an indexed counter outside the sanctioned accessor files.
void check_accounting(const FileText& f, const CounterSpec& spec,
                      std::vector<Finding>& out);

// ----------------------------------------------------------- unused.cpp

/// The whole-program unused-decl pass: every function declared at
/// namespace or class scope of a src/ header (or an explicit .hpp
/// argument) whose name no scanned file mentions outside declarations
/// and definitions.
void check_unused_decls(const std::vector<FileText>& files,
                        std::vector<Finding>& out);

// ----------------------------------------------------------- output.cpp

/// Sorts by (file, line, rule, message): byte-stable output regardless
/// of filesystem traversal order.
void sort_findings(std::vector<Finding>& findings);

/// Repo-relative form of a finding path (from the first src/ bench/
/// tests/ tools/ examples/ component) for SARIF URIs and baseline
/// matching; falls back to the path unchanged.
std::string rel_path(const std::string& path);

/// Baseline suppression file: '<rule>\t<rel-path>\t<line>' lines,
/// '#' comments. Returns false + err when the file cannot be read.
struct Baseline {
  std::set<std::string> keys;  ///< "rule\tpath\tline"
  bool loaded = false;
};
bool load_baseline(const std::string& path, Baseline& b, std::string& err);

/// Removes findings present in the baseline; returns the suppressed
/// count and reports stale (unmatched) baseline entries via `stale`.
std::size_t apply_baseline(std::vector<Finding>& findings, const Baseline& b,
                           std::vector<std::string>& stale);

/// Writes a SARIF 2.1.0 log of `findings` (rule metadata from the
/// registry). Returns false when the file cannot be written.
bool write_sarif(const std::string& path, const std::vector<Finding>& findings);

}  // namespace lint
