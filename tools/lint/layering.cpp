/// \file layering.cpp
/// The whole-program architecture pass: parses the checked-in layer
/// spec (tools/lint/layers.def), classifies every scanned file into a
/// src/ module or an open tree, builds the module dependency graph from
/// the per-file include facts, and reports
///
///   - upward edges (a module including a higher layer),
///   - same-layer cross-module edges (two modules of one layer may not
///     know each other; promoting one is an explicit layers.def change),
///   - src/ modules missing from the spec (the spec must be amended
///     deliberately, never grown by accident), and
///   - include cycles (always implied by one of the above when every
///     module is specced, but reported explicitly so a broken or partial
///     spec still fails closed).
///
/// Files under a "names" tree (perfbench) carry no include facts: only
/// the unused-decl pass reads them.

#include <fstream>
#include <sstream>

#include "lint.hpp"

namespace lint {

bool parse_layer_spec(const std::string& path, LayerSpec& spec,
                      std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot read layer spec " + path;
    return false;
  }
  spec.path = path;
  std::string line;
  std::size_t ln = 0;
  while (std::getline(in, line)) {
    ++ln;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::stringstream ss(line);
    std::string kw;
    if (!(ss >> kw)) continue;
    std::string mod;
    if (kw == "layer") {
      std::vector<std::string> mods;
      while (ss >> mod) {
        if (spec.level.count(mod)) {
          err = path + ":" + std::to_string(ln) + ": module '" + mod +
                "' listed twice";
          return false;
        }
        spec.level[mod] = static_cast<int>(spec.layers.size());
        mods.push_back(mod);
      }
      if (mods.empty()) {
        err = path + ":" + std::to_string(ln) + ": empty layer";
        return false;
      }
      spec.layers.push_back(std::move(mods));
    } else if (kw == "open") {
      while (ss >> mod) spec.open.insert(mod);
    } else if (kw == "names") {
      while (ss >> mod) spec.names.insert(mod);
    } else {
      err = path + ":" + std::to_string(ln) + ": unknown keyword '" + kw +
            "' (expected 'layer', 'open' or 'names')";
      return false;
    }
  }
  if (spec.layers.empty()) {
    err = path + ": no layers defined";
    return false;
  }
  return true;
}

ModuleOf classify_path(const std::string& path, const LayerSpec& spec) {
  ModuleOf out;
  // Split into components; a "src" component followed by a module
  // directory wins over an enclosing open tree, so fixture trees like
  // tests/lint_fixtures/layering_tree/src/core/x.cpp classify as core.
  std::vector<std::string> comps;
  std::stringstream ss(path);
  std::string c;
  while (std::getline(ss, c, '/'))
    if (!c.empty()) comps.push_back(c);
  for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
    if (comps[i] != "src") continue;
    const std::string& next = comps[i + 1];
    if (spec.level.count(next)) {
      out.module = next;
      return out;
    }
    // A directory (not the file itself) under src/ that the spec does
    // not know: report it so layers.def is amended deliberately.
    if (i + 2 < comps.size()) {
      out.unknown = next;
      return out;
    }
  }
  // The innermost tree decides, so a checkout inside a directory that
  // happens to share a tree's name classifies by its own trees.
  for (auto it = comps.rbegin(); it != comps.rend(); ++it) {
    out.open = spec.open.count(*it) > 0;
    out.names = spec.names.count(*it) > 0;
    if (out.open || out.names) return out;
  }
  return out;
}

namespace {

/// First path component of an include target, when it names a module.
std::string include_module(const std::string& target, const LayerSpec& spec) {
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return {};  // sibling include, no module
  const std::string head = target.substr(0, slash);
  return spec.level.count(head) ? head : std::string();
}

struct Edge {
  std::string file;  ///< representative include site
  std::size_t line = 0;
  std::string target;  ///< include text, for the message
};

}  // namespace

void check_layering(
    const std::vector<std::pair<std::string, FileReport>>& files,
    const LayerSpec& spec, std::vector<Finding>& out) {
  // module -> module -> representative include site (first in file order;
  // the caller sorts findings, so determinism does not depend on it).
  std::map<std::string, std::map<std::string, Edge>> graph;
  std::set<std::string> unknown_reported;
  for (const auto& [path, rep] : files) {
    const ModuleOf mod = classify_path(path, spec);
    if (!mod.unknown.empty() && unknown_reported.insert(mod.unknown).second) {
      out.push_back(
          {path, 1, "layering",
           "module 'src/" + mod.unknown + "' is not listed in " + spec.path +
               "; add it to the layer it belongs to (every src/ module "
               "must have an explicit place in the layer order)"});
    }
    if (mod.open || mod.module.empty()) continue;  // open trees include freely
    const int from = spec.level.at(mod.module);
    for (const IncludeRef& inc : rep.includes) {
      const std::string to_mod = include_module(inc.target, spec);
      if (to_mod.empty() || to_mod == mod.module) continue;
      const int to = spec.level.at(to_mod);
      graph[mod.module].emplace(to_mod, Edge{path, inc.line, inc.target});
      if (inc.allow) continue;
      if (to > from) {
        out.push_back(
            {path, inc.line, "layering",
             "upward include: module '" + mod.module + "' (layer " +
                 std::to_string(from) + ") includes \"" + inc.target +
                 "\" from '" + to_mod + "' (layer " + std::to_string(to) +
                 "); the layer order in " + spec.path +
                 " only permits downward dependencies -- invert the "
                 "dependency or amend layers.def deliberately"});
      } else if (to == from) {
        out.push_back(
            {path, inc.line, "layering",
             "cross-include within a layer: '" + mod.module + "' and '" +
                 to_mod + "' share layer " + std::to_string(from) + " in " +
                 spec.path +
                 " and must stay independent; move one module to its own "
                 "layer if the dependency is intended"});
      }
    }
  }

  // Cycle detection over the module graph. With a complete spec any
  // cycle contains an upward or lateral edge reported above; this keeps
  // the guarantee even if the spec degenerates (e.g. everything in one
  // layer).
  std::set<std::string> done;
  for (const auto& [start, _] : graph) {
    (void)_;
    if (done.count(start)) continue;
    std::vector<std::string> stack;
    std::set<std::string> on_stack;
    // Iterative DFS keeping the path for the cycle message.
    struct Frame {
      std::string node;
      std::map<std::string, Edge>::const_iterator it, end;
    };
    std::vector<Frame> frames;
    auto push = [&](const std::string& n) {
      static const std::map<std::string, Edge> kEmpty;
      const auto g = graph.find(n);
      const auto& succ = g == graph.end() ? kEmpty : g->second;
      frames.push_back({n, succ.begin(), succ.end()});
      stack.push_back(n);
      on_stack.insert(n);
    };
    push(start);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.it == f.end) {
        done.insert(f.node);
        on_stack.erase(f.node);
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string next = f.it->first;
      const Edge edge = f.it->second;
      ++f.it;
      if (on_stack.count(next)) {
        // Cycle: render stack from `next` onwards, closing on itself.
        std::string cyc = next;
        bool in = false;
        for (const std::string& n : stack) {
          if (n == next) in = true;
          if (in && n != next) cyc += " -> " + n;
        }
        cyc += " -> " + next;
        out.push_back({edge.file, edge.line, "layering",
                       "include cycle between modules: " + cyc +
                           "; break the cycle -- layered modules must form "
                           "a DAG"});
        continue;
      }
      if (!done.count(next)) push(next);
    }
  }
}

}  // namespace lint
