/// \file unused.cpp
/// The whole-program unused-decl pass: a function or method declared in
/// a src/ header is dead when its name appears in no scanned file except
/// where it is declared or defined. The check is by name, not by
/// overload or scope, so it never reports a function that is called, and
/// misses one whose name another entity shares.
///
/// Every file is split into identifier and punctuation tokens (comments,
/// literal contents and preprocessor lines excluded). A declaration is a
/// statement at namespace or class scope -- ended by ';' or by the '{'
/// of its body -- whose first '(' outside template brackets follows an
/// identifier that is not a constructor, destructor, operator, keyword or
/// macro. Function bodies and braced initializers are skipped whole.
/// Files under a names tree (layers.def) only contribute identifiers.

#include <algorithm>
#include <cctype>

#include "lint.hpp"

namespace lint {
namespace {

struct Tok {
  std::string s;
  std::size_t line = 0;  ///< 1-based
};

bool is_ident(const std::string& s) {
  return !s.empty() && (std::isalpha(static_cast<unsigned char>(s[0])) ||
                        s[0] == '_');
}

/// The tokens of `f` outside preprocessor directives. Every identifier,
/// macro bodies included, also counts once in `names`.
std::vector<Tok> tokenize(const FileText& f,
                          std::map<std::string, long>& names) {
  std::vector<Tok> toks;
  bool continued = false;  // inside a multi-line preprocessor directive
  for (std::size_t ln = 0; ln < f.code.size(); ++ln) {
    const std::string& s = f.code[ln];
    const std::size_t first = s.find_first_not_of(" \t");
    const bool directive =
        continued || (first != std::string::npos && s[first] == '#');
    continued = directive && !s.empty() && s.back() == '\\';
    for (std::size_t i = 0, e = 1; i < s.size(); i = e, e = i + 1) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      if (ident_char(c)) {
        while (e < s.size() && ident_char(s[e])) ++e;
      } else if (c == ':' && e < s.size() && s[e] == ':') {
        ++e;
      }
      Tok tok{s.substr(i, e - i), ln + 1};
      if (is_ident(tok.s)) ++names[tok.s];
      if (!directive) toks.push_back(std::move(tok));
    }
  }
  return toks;
}

/// Index past a leading `template <...>` clause at `b`, or `b`.
std::size_t skip_template(const std::vector<Tok>& t, std::size_t b,
                          std::size_t e) {
  if (b + 1 >= e || t[b].s != "template" || t[b + 1].s != "<") return b;
  int depth = 0;
  for (std::size_t i = b + 1; i < e; ++i) {
    if (t[i].s == "<") ++depth;
    if (t[i].s == ">" && --depth == 0) return i + 1;
  }
  return e;
}

enum class Scope { Namespace, Class, Skip };

/// What the '{' ending tokens [b, e) opens; `name` receives a class name.
Scope opener(const std::vector<Tok>& t, std::size_t b, std::size_t e,
             std::string& name) {
  b = skip_template(t, b, e);
  if (b < e && (t[b].s == "namespace" || t[b].s == "extern"))
    return Scope::Namespace;
  for (std::size_t i = b; i < e; ++i) {
    const std::string& s = t[i].s;
    if (s == "enum" || s == "(" || s == "=") return Scope::Skip;
    if (s == "class" || s == "struct" || s == "union") {
      name = i + 1 < e ? t[i + 1].s : "";
      for (std::size_t j = i + 1; j < e; ++j)
        if (t[j].s == "(" || t[j].s == "=") return Scope::Skip;
      return Scope::Class;
    }
  }
  return Scope::Skip;
}

/// The function name declared by statement [b, e) in class `cls` ("" at
/// namespace scope), or nullptr when it declares none.
const Tok* declared_function(const std::vector<Tok>& t, std::size_t b,
                             std::size_t e, const std::string& cls) {
  static const std::set<std::string> kNotNames = {
      "if", "for", "while", "switch", "return", "sizeof", "alignof",
      "alignas", "decltype", "noexcept", "static_assert", "requires",
      "catch", "typeid", "__attribute__"};
  b = skip_template(t, b, e);
  if (b < e && (t[b].s == "using" || t[b].s == "typedef")) return nullptr;
  int angle = 0, paren = 0, square = 0;
  for (std::size_t i = b; i < e; ++i) {
    const std::string& s = t[i].s;
    if (s == "operator") return nullptr;
    if (s == "[") ++square;
    if (s == "]") --square;
    if (square > 0) continue;
    if (s == "<") ++angle;
    if (s == ">" && angle > 0) --angle;
    if (angle > 0) {
      if (s == "(") ++paren;
      if (s == ")") --paren;
      continue;
    }
    if (s == "=") return nullptr;
    if (s != "(" || paren != 0) continue;
    if (i == b || !is_ident(t[i - 1].s)) return nullptr;
    const std::string& name = t[i - 1].s;
    const bool qualified = i >= b + 3 && t[i - 2].s == "::";
    const bool macro =
        std::none_of(name.begin(), name.end(), [](char c) {
          return std::islower(static_cast<unsigned char>(c));
        });
    if (kNotNames.count(name) || macro || name == cls ||
        (i >= b + 2 && t[i - 2].s == "~") ||
        (qualified && t[i - 3].s == name))
      return nullptr;
    return &t[i - 1];
  }
  return nullptr;
}

/// Every function declaration and definition of one file, in order.
std::vector<const Tok*> declarations(const std::vector<Tok>& t) {
  std::vector<const Tok*> out;
  std::vector<Scope> scopes = {Scope::Namespace};
  std::vector<std::string> classes = {""};
  std::size_t start = 0;  // first token of the current statement
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].s;
    if (scopes.back() == Scope::Skip) {
      if (s == "{") scopes.push_back(Scope::Skip);
      if (s == "}") scopes.pop_back();
      start = i + 1;
      continue;
    }
    if (s == ";" || s == "{") {
      if (const Tok* d = declared_function(t, start, i, classes.back()))
        out.push_back(d);
    }
    if (s == "{") {
      std::string name;
      scopes.push_back(opener(t, start, i, name));
      if (scopes.back() == Scope::Class) classes.push_back(name);
    } else if (s == "}" && scopes.size() > 1) {
      if (scopes.back() == Scope::Class) classes.pop_back();
      scopes.pop_back();
    }
    if (s == ";" || s == "{" || s == "}") start = i + 1;
  }
  return out;
}

}  // namespace

void check_unused_decls(const std::vector<FileText>& files,
                        std::vector<Finding>& out) {
  // name -> mentions outside declarations, over every scanned file.
  std::map<std::string, long> uses;
  std::vector<std::pair<const FileText*, Tok>> candidates;
  for (const FileText& f : files) {
    const std::vector<Tok> toks = tokenize(f, uses);
    if (f.names_only) continue;
    const bool header = f.path.size() > 4 &&
                        f.path.compare(f.path.size() - 4, 4, ".hpp") == 0;
    const bool in_scope =
        header && (f.explicit_file || path_contains(f.path, "src/"));
    for (const Tok* d : declarations(toks)) {
      --uses[d->s];
      if (in_scope) candidates.emplace_back(&f, *d);
    }
  }
  for (const auto& [file, tok] : candidates) {
    if (uses[tok.s] > 0 || allowed(*file, tok.line, "unused-decl")) continue;
    out.push_back({file->path, tok.line, "unused-decl",
                   "'" + tok.s +
                       "' is declared here but no scanned file calls or "
                       "names it; delete it, or keep deliberate API with "
                       "'parfft-lint: allow(unused-decl)' and a reason"});
  }
}

}  // namespace lint
