/// \file source.cpp
/// Source-text layer of parfft_lint: line splitting, comment/string
/// stripping (preserving line structure so findings keep their line
/// numbers), allow-directive collection and token helpers.

#include <algorithm>
#include <cctype>
#include <sstream>

#include "lint.hpp"

namespace lint {

bool path_contains(const std::string& path, const std::string& dir) {
  return path.find(dir) != std::string::npos;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::size_t find_word(const std::string& s, const std::string& token,
                      std::size_t from) {
  for (std::size_t p = s.find(token, from); p != std::string::npos;
       p = s.find(token, p + 1)) {
    const bool lb = p == 0 || !ident_char(s[p - 1]);
    const std::size_t e = p + token.size();
    const bool rb = e >= s.size() || !ident_char(s[e]);
    if (lb && rb) return p;
  }
  return std::string::npos;
}

bool allowed(const FileText& f, std::size_t line1, const std::string& rule) {
  return f.allows.count({line1, rule}) > 0 ||
         f.allows.count({line1, "all"}) > 0;
}

namespace {

/// Blanks comments and string/char literal contents. The allow
/// directives are collected from comment text before it is erased.
void strip(FileText& f) {
  enum class St { Code, Line, Block, Str, Chr };
  St st = St::Code;
  f.code.reserve(f.raw.size());
  for (std::size_t ln = 0; ln < f.raw.size(); ++ln) {
    const std::string& in = f.raw[ln];
    // Allow directives live in comments; scan the raw line.
    const std::string tag = "parfft-lint: allow(";
    for (std::size_t at = in.find(tag); at != std::string::npos;
         at = in.find(tag, at + 1)) {
      std::size_t b = at + tag.size();
      const std::size_t e = in.find(')', b);
      if (e == std::string::npos) break;
      std::stringstream rules(in.substr(b, e - b));
      std::string r;
      while (std::getline(rules, r, ',')) {
        r.erase(std::remove_if(r.begin(), r.end(), ::isspace), r.end());
        // The directive suppresses its own line and the next one, so it
        // can sit above the offending statement.
        f.allows.insert({ln + 1, r});
        f.allows.insert({ln + 2, r});
      }
    }
    std::string out;
    out.reserve(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char n = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (st) {
        case St::Code:
          if (c == '/' && n == '/') {
            st = St::Line;
            i = in.size();  // rest of line is comment
          } else if (c == '/' && n == '*') {
            st = St::Block;
            out += "  ";
            ++i;
          } else if (c == '"') {
            st = St::Str;
            out += '"';
          } else if (c == '\'') {
            st = St::Chr;
            out += '\'';
          } else {
            out += c;
          }
          break;
        case St::Block:
          if (c == '*' && n == '/') {
            st = St::Code;
            out += "  ";
            ++i;
          } else {
            out += ' ';
          }
          break;
        case St::Str:
          if (c == '\\') {
            out += "  ";
            ++i;
          } else if (c == '"') {
            st = St::Code;
            out += '"';
          } else {
            out += ' ';
          }
          break;
        case St::Chr:
          if (c == '\\') {
            out += "  ";
            ++i;
          } else if (c == '\'') {
            st = St::Code;
            out += '\'';
          } else {
            out += ' ';
          }
          break;
        case St::Line:
          break;
      }
    }
    if (st == St::Line) st = St::Code;  // // comments end with the line
    f.code.push_back(std::move(out));
  }
}

}  // namespace

void build_file_text(FileText& f, const std::string& content) {
  std::size_t b = 0;
  while (b <= content.size()) {
    std::size_t e = content.find('\n', b);
    if (e == std::string::npos) {
      if (b < content.size()) f.raw.push_back(content.substr(b));
      break;
    }
    std::string line = content.substr(b, e - b);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    f.raw.push_back(std::move(line));
    b = e + 1;
  }
  strip(f);
}

const std::vector<Rule>& registry() {
  static const std::vector<Rule> kRules = {
      {"wall-clock",
       "wall-clock or entropy read outside src/common; use virtual time "
       "and parfft::Rng"},
      {"unordered-iter",
       "effectful iteration over an unordered container; order is not "
       "deterministic across stdlibs"},
      {"float-eq",
       "exact ==/!= against a floating-point literal in src/; use a "
       "tolerance or annotate a sentinel"},
      {"include-hygiene",
       "header uses a std:: component without including its header"},
      {"span-pairing",
       "unbalanced tracer begin()/end(); a leaked parent span corrupts "
       "attribution"},
      {"alert-transitions",
       "direct write to survival state; transitions must flow through "
       "set_state()/set_stage()"},
      {"pointer-key",
       "pointer-keyed map/set or address-based hashing; iteration and "
       "hash order follow allocation addresses, not the seed"},
      {"accounting",
       "direct write to a report/cache counter outside its sanctioned "
       "accessor file; verify() identities could drift"},
      {"layering",
       "include edge violates the layer order in layers.def (upward, "
       "same-layer cross-module, unknown module, or cycle)"},
      {"unused-decl",
       "function declared in a src/ header that no scanned file names "
       "outside its declaration and definition; delete it"},
  };
  return kRules;
}

bool known_rule(const std::string& name) {
  for (const Rule& r : registry())
    if (name == r.name) return true;
  return false;
}

}  // namespace lint
