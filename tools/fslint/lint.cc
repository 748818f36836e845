#include "lint.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "lock_graph.h"

namespace fslint {
namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsIdent(const std::string& t) {
  return !t.empty() &&
         (std::isalpha(static_cast<unsigned char>(t[0])) != 0 || t[0] == '_');
}

bool Contains(const std::vector<Token>& toks, std::string_view text) {
  for (const Token& t : toks) {
    if (t.text == text) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Structural pass: splits the token stream into declaration statements at
// namespace/class scope (function and initializer bodies are skipped), and
// groups class-member statements per class. This is what lets the
// declaration-shape rules (locked-suffix, guarded-member, header-hygiene)
// run without a real C++ parser: at declaration scope there are no calls,
// so `Name(` is a declarator, not an invocation.
// ---------------------------------------------------------------------------

enum class ScopeKind { kNamespace, kClass };

struct Stmt {
  std::vector<Token> toks;
  ScopeKind scope = ScopeKind::kNamespace;
  bool ends_with_brace = false;  // function-definition head
};

struct ClassInfo {
  std::string name;
  int line = 0;
  std::vector<Stmt> members;  // data/member declarations ending in ';'
};

struct Structure {
  std::vector<Stmt> decls;  // all declaration statements (incl. members)
  std::vector<ClassInfo> classes;
};

// True if `toks` contains a class-key at template-angle and paren depth 0.
bool HasClassKeyAtTopLevel(const std::vector<Token>& toks) {
  int angle = 0;
  int paren = 0;
  for (const Token& t : toks) {
    if (t.text == "<") ++angle;
    else if (t.text == ">" && angle > 0) --angle;
    else if (t.text == "(") ++paren;
    else if (t.text == ")" && paren > 0) --paren;
    else if (angle == 0 && paren == 0 &&
             (t.text == "class" || t.text == "struct" || t.text == "union")) {
      return true;
    }
  }
  return false;
}

// Index of the first '(' outside template angles, or npos.
size_t FirstParenAtTopLevel(const std::vector<Token>& toks) {
  int angle = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") ++angle;
    else if (t == ">" && angle > 0) --angle;
    else if (t == "(" && angle == 0) return i;
  }
  return static_cast<size_t>(-1);
}

// Class name: first identifier after the class-key, skipping attribute
// macros (FS_*) and their argument lists.
std::string ExtractClassName(const std::vector<Token>& toks) {
  size_t i = 0;
  while (i < toks.size() && toks[i].text != "class" &&
         toks[i].text != "struct" && toks[i].text != "union") {
    ++i;
  }
  for (++i; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t.rfind("FS_", 0) == 0) {
      if (i + 1 < toks.size() && toks[i + 1].text == "(") {
        int depth = 0;
        for (++i; i < toks.size(); ++i) {
          if (toks[i].text == "(") ++depth;
          else if (toks[i].text == ")" && --depth == 0) break;
        }
      }
      continue;
    }
    if (IsIdent(t)) return t;
  }
  return "<anonymous>";
}

Structure Analyze(const std::vector<Token>& tokens) {
  Structure out;

  struct Frame {
    ScopeKind kind;
    int class_id = -1;  // index into out.classes when kind == kClass
    std::vector<Token> pending;
  };
  std::vector<Frame> frames;
  frames.push_back(Frame{ScopeKind::kNamespace, -1, {}});
  int skip_depth = 0;  // inside a function / enum / initializer body

  auto finalize = [&](Frame& frame, bool ends_with_brace) {
    if (frame.pending.empty()) return;
    Stmt stmt;
    stmt.toks = frame.pending;
    stmt.scope = frame.kind;
    stmt.ends_with_brace = ends_with_brace;
    if (frame.kind == ScopeKind::kClass && !ends_with_brace) {
      out.classes[frame.class_id].members.push_back(stmt);
    }
    out.decls.push_back(std::move(stmt));
    frame.pending.clear();
  };

  for (const Token& tok : tokens) {
    if (tok.is_string) continue;  // literal text never shapes declarations
    if (skip_depth > 0) {
      if (tok.text == "{") ++skip_depth;
      else if (tok.text == "}") --skip_depth;
      continue;
    }
    Frame& frame = frames.back();
    const std::string& t = tok.text;

    if (t == ";") {
      finalize(frame, /*ends_with_brace=*/false);
      continue;
    }
    if (t == ":") {
      // Access specifiers are statement boundaries inside a class.
      if (frame.kind == ScopeKind::kClass && frame.pending.size() == 1 &&
          (frame.pending[0].text == "public" ||
           frame.pending[0].text == "private" ||
           frame.pending[0].text == "protected")) {
        frame.pending.clear();
        continue;
      }
      frame.pending.push_back(tok);
      continue;
    }
    if (t == "{") {
      const std::vector<Token>& p = frame.pending;
      if (Contains(p, "namespace")) {
        frames.push_back(Frame{ScopeKind::kNamespace, -1, {}});
        frames[frames.size() - 2].pending.clear();
      } else if (Contains(p, "enum")) {
        frame.pending.clear();
        skip_depth = 1;
      } else if (HasClassKeyAtTopLevel(p)) {
        ClassInfo info;
        info.name = ExtractClassName(p);
        info.line = p.empty() ? tok.line : p.front().line;
        out.classes.push_back(std::move(info));
        int id = static_cast<int>(out.classes.size()) - 1;
        frame.pending.clear();
        frames.push_back(Frame{ScopeKind::kClass, id, {}});
      } else if (p.empty()) {
        skip_depth = 1;  // bare block
      } else if (Contains(p, "operator") ||
                 FirstParenAtTopLevel(p) != static_cast<size_t>(-1)) {
        // Function definition: record the head, skip the body.
        finalize(frame, /*ends_with_brace=*/true);
        skip_depth = 1;
      } else {
        // Brace initializer: skip contents, keep accumulating the
        // declaration afterwards.
        skip_depth = 1;
      }
      continue;
    }
    if (t == "}") {
      frame.pending.clear();
      if (frames.size() > 1) frames.pop_back();
      continue;
    }
    frame.pending.push_back(tok);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token-stream rules: raw-sync, determinism.
// ---------------------------------------------------------------------------

const std::set<std::string>& RawSyncBannedTypes() {
  static const std::set<std::string> kBanned = {
      "mutex",          "shared_mutex",           "recursive_mutex",
      "timed_mutex",    "recursive_timed_mutex",  "shared_timed_mutex",
      "condition_variable", "condition_variable_any",
      "lock_guard",     "scoped_lock",            "unique_lock",
      "shared_lock",
  };
  return kBanned;
}

void CheckRawSync(const SourceFile& file, const std::vector<Token>& toks,
                  std::vector<Finding>* out) {
  for (size_t i = 2; i < toks.size(); ++i) {
    if (toks[i].is_string || toks[i - 1].is_string || toks[i - 2].is_string) {
      continue;
    }
    if (toks[i - 2].text == "std" && toks[i - 1].text == "::" &&
        RawSyncBannedTypes().count(toks[i].text) > 0) {
      out->push_back({kRuleRawSync, file.path, toks[i].line,
                      "raw std::" + toks[i].text +
                          "; use the annotated wrappers in "
                          "common/thread_annotations.h"});
    }
  }
}

void CheckDeterminism(const SourceFile& file, const std::vector<Token>& toks,
                      std::vector<Finding>* out) {
  auto add = [&](int line, const std::string& what, const std::string& fix) {
    out->push_back({kRuleDeterminism, file.path, line,
                    what + " is nondeterministic under seeded tests; " + fix});
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].is_string) continue;
    const std::string& t = toks[i].text;
    const std::string* prev =
        i > 0 && !toks[i - 1].is_string ? &toks[i - 1].text : nullptr;
    const std::string* next = i + 1 < toks.size() && !toks[i + 1].is_string
                                  ? &toks[i + 1].text
                                  : nullptr;
    if (t == "random_device" && prev != nullptr && *prev == "::") {
      add(toks[i].line, "std::random_device", "seed an Rng (common/random.h)");
    } else if ((t == "rand" || t == "srand") && next != nullptr &&
               *next == "(" &&
               (prev == nullptr || (*prev != "." && *prev != "->"))) {
      add(toks[i].line, t + "()", "use Rng (common/random.h)");
    } else if (t == "time" && prev != nullptr && *prev == "::" &&
               next != nullptr && *next == "(") {
      add(toks[i].line, "::time()", "take a Clock* (common/clock.h)");
    } else if (t == "system_clock") {
      add(toks[i].line, "std::chrono::system_clock",
          "take a Clock* (common/clock.h)");
    } else if ((t == "sleep_for" || t == "sleep_until") && prev != nullptr &&
               *prev == "::" && i >= 2 && toks[i - 2].text == "this_thread") {
      add(toks[i].line, "std::this_thread::" + t,
          "route through SleepFor (common/clock.h) so tests can virtualize "
          "the delay");
    }
  }
}

// ---------------------------------------------------------------------------
// Declaration rules: locked-suffix, guarded-member, header-hygiene.
// ---------------------------------------------------------------------------

void CheckLockedSuffix(const SourceFile& file, const Structure& structure,
                       std::vector<Finding>* out) {
  for (const Stmt& stmt : structure.decls) {
    const std::vector<Token>& toks = stmt.toks;
    if (Contains(toks, "operator")) continue;

    // Direction 1: a declared `*Locked` method must carry FS_REQUIRES.
    bool has_requires =
        Contains(toks, "FS_REQUIRES") || Contains(toks, "FS_REQUIRES_SHARED");
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      const std::string& name = toks[i].text;
      if (!IsIdent(name) || !EndsWith(name, "Locked") ||
          name.size() <= 6 || toks[i + 1].text != "(") {
        continue;
      }
      if (i == 0) continue;
      const std::string& before = toks[i - 1].text;
      if (before == "::") continue;  // out-of-line; annotation on the decl
      // Require a return type directly before the name, so constructor
      // initializers like `: x_(MakeLocked())` never match.
      if (!IsIdent(before) && before != ">" && before != "*" && before != "&") {
        continue;
      }
      if (!has_requires) {
        out->push_back(
            {kRuleLockedSuffix, file.path, toks[i].line,
             "'" + name +
                 "' is named *Locked but carries no FS_REQUIRES / "
                 "FS_REQUIRES_SHARED annotation"});
      }
    }

    // Direction 2: FS_REQUIRES on a method whose name is not `*Locked`.
    if (!has_requires) continue;
    size_t paren = FirstParenAtTopLevel(toks);
    if (paren == static_cast<size_t>(-1) || paren == 0) continue;
    const Token& name_tok = toks[paren - 1];
    if (!IsIdent(name_tok.text) || name_tok.text.rfind("FS_", 0) == 0) {
      continue;
    }
    if (!EndsWith(name_tok.text, "Locked")) {
      out->push_back({kRuleLockedSuffix, file.path, name_tok.line,
                      "'" + name_tok.text +
                          "' carries FS_REQUIRES but is not named *Locked "
                          "(docs/STATIC_ANALYSIS.md naming policy)"});
    }
  }
}

// First type token of a member declaration: skips cv/storage qualifiers and
// a leading `firestore ::` qualification.
size_t FirstTypeToken(const std::vector<Token>& toks) {
  size_t i = 0;
  while (i < toks.size() &&
         (toks[i].text == "mutable" || toks[i].text == "const" ||
          toks[i].text == "volatile" || toks[i].text == "::" ||
          toks[i].text == "firestore")) {
    ++i;
  }
  return i;
}

// Removes FS_* attribute macros and their argument lists, so a declaration
// like `Mutex mu_ FS_ACQUIRED_BEFORE(other_mu_)` still parses as a plain
// mutex member below.
std::vector<Token> StripAttributeMacros(const std::vector<Token>& toks) {
  std::vector<Token> out;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text.rfind("FS_", 0) == 0 && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      int depth = 0;
      for (++i; i < toks.size(); ++i) {
        if (toks[i].text == "(") ++depth;
        else if (toks[i].text == ")" && --depth == 0) break;
      }
      continue;
    }
    out.push_back(toks[i]);
  }
  return out;
}

bool IsMutexMember(const std::vector<Token>& raw_toks) {
  std::vector<Token> toks = StripAttributeMacros(raw_toks);
  size_t i = FirstTypeToken(toks);
  if (i >= toks.size()) return false;
  const std::string& t = toks[i].text;
  if (t != "Mutex" && t != "SharedMutex") return false;
  // A '(' means this is a constructor / function declaration, not a member.
  if (FirstParenAtTopLevel(toks) != static_cast<size_t>(-1)) return false;
  for (const Token& tok : toks) {
    if (tok.text == "*" || tok.text == "&") return false;  // non-owning
  }
  return true;
}

// `synchronized_classes` is the set of class names (across the whole lint
// input) that declare their own Mutex/SharedMutex member: values, pointers,
// and smart pointers of such types are internally synchronized, so the
// containing class's mutex does not need to guard them.
void CheckGuardedMember(const SourceFile& file, const Structure& structure,
                        const std::set<std::string>& synchronized_classes,
                        std::vector<Finding>* out) {
  static const std::set<std::string> kSkipKeywords = {
      "using",   "typedef",  "friend", "static", "constexpr", "template",
      "operator", "enum",    "class",  "struct", "union",     "public",
      "private", "protected"};
  static const std::set<std::string> kSyncTypes = {
      "Mutex", "SharedMutex", "CondVar", "LockOrderChecker"};

  for (const ClassInfo& cls : structure.classes) {
    bool has_mutex = false;
    for (const Stmt& m : cls.members) {
      if (IsMutexMember(m.toks)) {
        has_mutex = true;
        break;
      }
    }
    if (!has_mutex) continue;

    for (const Stmt& m : cls.members) {
      const std::vector<Token>& toks = m.toks;
      if (toks.empty()) continue;
      if (Contains(toks, "FS_GUARDED_BY") || Contains(toks, "FS_PT_GUARDED_BY"))
        continue;
      bool skip = false;
      for (const Token& t : toks) {
        if (kSkipKeywords.count(t.text) > 0) {
          skip = true;
          break;
        }
      }
      if (skip) continue;
      size_t type = FirstTypeToken(toks);
      if (type >= toks.size()) continue;
      if (kSyncTypes.count(toks[type].text) > 0) continue;
      // std::atomic<...> members are lock-free by design.
      bool atomic = false;
      for (size_t i = type; i < toks.size() && i < type + 4; ++i) {
        if (toks[i].text == "atomic") {
          atomic = true;
          break;
        }
      }
      if (atomic) continue;
      // Function declarations: first top-level '(' preceded by a name.
      size_t paren = FirstParenAtTopLevel(toks);
      if (paren != static_cast<size_t>(-1)) continue;
      // Reference members and `T* const` pointers cannot be reseated;
      // const non-pointer members cannot be written at all.
      bool has_ref = false;
      bool has_ptr = false;
      bool const_ptr = false;
      for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].text == "&") has_ref = true;
        if (toks[i].text == "*") {
          has_ptr = true;
          if (i + 1 < toks.size() && toks[i + 1].text == "const") {
            const_ptr = true;
          }
        }
      }
      if (has_ref || const_ptr) continue;
      if (toks[0].text == "const" && !has_ptr) continue;

      // Member name: last identifier before any initializer.
      std::string member;
      for (const Token& t : toks) {
        if (t.text == "=" || t.text == "[") break;
        if (IsIdent(t.text)) member = t.text;
      }
      if (member.empty()) continue;

      // Members whose type is itself an internally synchronized class
      // protect their own state; the enclosing mutex need not cover them.
      bool self_synchronized = false;
      for (const Token& t : toks) {
        if (t.text != member && synchronized_classes.count(t.text) > 0) {
          self_synchronized = true;
          break;
        }
      }
      if (self_synchronized) continue;
      out->push_back(
          {kRuleGuardedMember, file.path, toks[0].line,
           "member '" + member + "' of '" + cls.name +
               "' (a class with a Mutex member) lacks FS_GUARDED_BY; "
               "annotate it, make it std::atomic, or suppress with a "
               "justification"});
    }
  }
}

void CheckHeaderHygiene(const SourceFile& file, const Structure& structure,
                        std::vector<Finding>* out) {
  if (!file.is_header()) return;
  for (const Stmt& stmt : structure.decls) {
    if (stmt.scope != ScopeKind::kNamespace) continue;
    if (stmt.toks.size() >= 2 && stmt.toks[0].text == "using" &&
        stmt.toks[1].text == "namespace") {
      out->push_back({kRuleHeaderHygiene, file.path, stmt.toks[0].line,
                      "'using namespace' at namespace scope in a header "
                      "leaks into every includer"});
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-file rule: fault-point-registry.
// ---------------------------------------------------------------------------

struct FaultSite {
  std::string path;
  int line = 0;
};

void CheckFaultRegistry(
    const std::vector<std::pair<const SourceFile*, StringLiteral>>& sites,
    const Options& options, std::vector<Finding>* out) {
  std::map<std::string, std::vector<FaultSite>> by_name;
  for (const auto& [file, lit] : sites) {
    by_name[lit.value].push_back({file->path, lit.line});
  }

  std::set<std::string> catalogued;
  for (const CatalogEntry& entry : options.fault_catalog) {
    catalogued.insert(entry.name);
  }

  for (const auto& [name, uses] : by_name) {
    if (uses.size() > 1) {
      for (const FaultSite& site : uses) {
        std::ostringstream msg;
        msg << "fault point \"" << name << "\" is declared at "
            << uses.size() << " sites (";
        bool first = true;
        for (const FaultSite& other : uses) {
          if (!first) msg << ", ";
          first = false;
          msg << other.path << ":" << other.line;
        }
        msg << "); point names must be unique so a chaos schedule targets "
               "exactly one site";
        out->push_back({kRuleFaultPointRegistry, site.path, site.line,
                        msg.str()});
      }
    }
    if (!options.fault_catalog.empty() && catalogued.count(name) == 0) {
      for (const FaultSite& site : uses) {
        out->push_back({kRuleFaultPointRegistry, site.path, site.line,
                        "fault point \"" + name + "\" is not listed in the " +
                            options.catalog_path + " point catalog"});
      }
    }
  }
  for (const CatalogEntry& entry : options.fault_catalog) {
    if (by_name.count(entry.name) == 0) {
      out->push_back(
          {kRuleFaultPointRegistry, options.catalog_path, entry.line,
           "catalogued fault point \"" + entry.name +
               "\" no longer exists in src/ (stale catalog row)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-file rule: metric-name-registry. Same discipline as the fault-point
// registry, for FS_METRIC_* / FS_SPAN names: unique in src/ and
// bidirectionally synced with the docs/OBSERVABILITY.md catalogs.
// ---------------------------------------------------------------------------

void CheckMetricRegistry(
    const std::vector<std::pair<const SourceFile*, StringLiteral>>& sites,
    const Options& options, std::vector<Finding>* out) {
  std::map<std::string, std::vector<FaultSite>> by_name;
  for (const auto& [file, lit] : sites) {
    by_name[lit.value].push_back({file->path, lit.line});
  }

  std::set<std::string> catalogued;
  for (const CatalogEntry& entry : options.metric_catalog) {
    catalogued.insert(entry.name);
  }

  for (const auto& [name, uses] : by_name) {
    if (uses.size() > 1) {
      for (const FaultSite& site : uses) {
        std::ostringstream msg;
        msg << "metric/span name \"" << name << "\" is declared at "
            << uses.size() << " sites (";
        bool first = true;
        for (const FaultSite& other : uses) {
          if (!first) msg << ", ";
          first = false;
          msg << other.path << ":" << other.line;
        }
        msg << "); names must be unique so a metric maps to exactly one "
               "site";
        out->push_back({kRuleMetricNameRegistry, site.path, site.line,
                        msg.str()});
      }
    }
    if (!options.metric_catalog.empty() && catalogued.count(name) == 0) {
      for (const FaultSite& site : uses) {
        out->push_back({kRuleMetricNameRegistry, site.path, site.line,
                        "metric/span name \"" + name +
                            "\" is not listed in the " +
                            options.metric_catalog_path + " catalogs"});
      }
    }
  }
  for (const CatalogEntry& entry : options.metric_catalog) {
    if (by_name.count(entry.name) == 0) {
      out->push_back(
          {kRuleMetricNameRegistry, options.metric_catalog_path, entry.line,
           "catalogued metric/span name \"" + entry.name +
               "\" no longer exists in src/ (stale catalog row)"});
    }
  }
}

}  // namespace

std::vector<StringLiteral> ExtractFaultPoints(const SourceFile& file) {
  std::vector<StringLiteral> out;
  for (const StringLiteral& lit : file.strings) {
    if (lit.line <= 0 ||
        static_cast<size_t>(lit.line) > file.code_lines.size()) {
      continue;
    }
    const std::string& code = file.code_lines[lit.line - 1];
    std::string_view prefix(code.data(),
                            std::min<size_t>(lit.col, code.size()));
    while (!prefix.empty() &&
           std::isspace(static_cast<unsigned char>(prefix.back()))) {
      prefix.remove_suffix(1);
    }
    if (prefix.empty() || prefix.back() != '(') continue;
    prefix.remove_suffix(1);
    while (!prefix.empty() &&
           std::isspace(static_cast<unsigned char>(prefix.back()))) {
      prefix.remove_suffix(1);
    }
    if (EndsWith(prefix, "FS_FAULT_POINT") ||
        EndsWith(prefix, "FS_FAULT_TRIGGERED")) {
      out.push_back(lit);
    }
  }
  return out;
}

std::vector<CatalogEntry> ParseFaultCatalog(std::string_view markdown) {
  std::vector<CatalogEntry> out;
  bool in_section = false;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= markdown.size()) {
    size_t nl = markdown.find('\n', pos);
    std::string_view line = markdown.substr(
        pos, nl == std::string_view::npos ? markdown.size() - pos : nl - pos);
    ++line_no;
    if (line.rfind("#", 0) == 0) {
      in_section = line.find("Point catalog") != std::string_view::npos;
    } else if (in_section && line.rfind("| `", 0) == 0) {
      size_t open = 3;
      size_t close = line.find('`', open);
      if (close != std::string_view::npos && close > open) {
        out.push_back(
            {std::string(line.substr(open, close - open)), line_no});
      }
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return out;
}

std::vector<StringLiteral> ExtractMetricNames(const SourceFile& file) {
  std::vector<StringLiteral> out;
  for (const StringLiteral& lit : file.strings) {
    if (lit.line <= 0 ||
        static_cast<size_t>(lit.line) > file.code_lines.size()) {
      continue;
    }
    const std::string& code = file.code_lines[lit.line - 1];
    std::string_view prefix(code.data(),
                            std::min<size_t>(lit.col, code.size()));
    while (!prefix.empty() &&
           std::isspace(static_cast<unsigned char>(prefix.back()))) {
      prefix.remove_suffix(1);
    }
    if (prefix.empty() || prefix.back() != '(') continue;
    prefix.remove_suffix(1);
    while (!prefix.empty() &&
           std::isspace(static_cast<unsigned char>(prefix.back()))) {
      prefix.remove_suffix(1);
    }
    // The first argument of every macro is the name; _FOR labels follow a
    // comma, not a '(', so they are never extracted.
    if (EndsWith(prefix, "FS_METRIC_COUNTER") ||
        EndsWith(prefix, "FS_METRIC_GAUGE") ||
        EndsWith(prefix, "FS_METRIC_TIMER") ||
        EndsWith(prefix, "FS_METRIC_COUNTER_FOR") ||
        EndsWith(prefix, "FS_SPAN")) {
      out.push_back(lit);
    }
  }
  return out;
}

std::vector<CatalogEntry> ParseMetricCatalog(std::string_view markdown) {
  std::vector<CatalogEntry> out;
  bool in_section = false;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= markdown.size()) {
    size_t nl = markdown.find('\n', pos);
    std::string_view line = markdown.substr(
        pos, nl == std::string_view::npos ? markdown.size() - pos : nl - pos);
    ++line_no;
    if (line.rfind("#", 0) == 0) {
      in_section = line.find("Metric catalog") != std::string_view::npos ||
                   line.find("Span catalog") != std::string_view::npos;
    } else if (in_section && line.rfind("| `", 0) == 0) {
      size_t open = 3;
      size_t close = line.find('`', open);
      if (close != std::string_view::npos && close > open) {
        out.push_back(
            {std::string(line.substr(open, close - open)), line_no});
      }
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return out;
}

std::vector<Finding> Lint(const std::vector<FileInput>& files,
                          const Options& options) {
  // Phase 1 (parallel): lex + tokenize + structure every file. Each file is
  // independent, so workers pull indices off an atomic counter; results land
  // in index-addressed slots, and every later phase iterates those slots in
  // input order, so the output is identical regardless of thread count or
  // scheduling.
  std::vector<SourceFile> lexed(files.size());
  std::vector<std::vector<Token>> tokens(files.size());
  std::vector<Structure> structures(files.size());
  {
    unsigned hw = std::thread::hardware_concurrency();
    size_t jobs = options.jobs > 0 ? static_cast<size_t>(options.jobs)
                                   : (hw > 0 ? hw : 1);
    jobs = std::min(jobs, std::max<size_t>(files.size(), 1));
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (size_t i = next.fetch_add(1); i < files.size();
           i = next.fetch_add(1)) {
        lexed[i] = Lex(files[i].path, files[i].content);
        tokens[i] = Tokenize(lexed[i]);
        structures[i] = Analyze(tokens[i]);
      }
    };
    if (jobs <= 1) {
      worker();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(jobs);
      for (size_t t = 0; t < jobs; ++t) threads.emplace_back(worker);
      for (std::thread& th : threads) th.join();
    }
  }

  // Collect the names of classes that own a Mutex/SharedMutex (the
  // guarded-member rule treats members of those types as internally
  // synchronized). Serial, in input order.
  std::set<std::string> synchronized_classes;
  for (size_t i = 0; i < lexed.size(); ++i) {
    for (const ClassInfo& cls : structures[i].classes) {
      for (const Stmt& m : cls.members) {
        if (IsMutexMember(m.toks)) {
          synchronized_classes.insert(cls.name);
          break;
        }
      }
    }
  }

  // Phase 2: rules.
  std::vector<Finding> findings;
  std::vector<std::pair<const SourceFile*, StringLiteral>> fault_sites;
  std::vector<std::pair<const SourceFile*, StringLiteral>> metric_sites;

  for (size_t i = 0; i < lexed.size(); ++i) {
    const SourceFile& file = lexed[i];
    const std::vector<Token>& toks = tokens[i];
    const Structure& structure = structures[i];

    const bool in_src = file.InDir("src");
    if (in_src || file.InDir("tests") || file.InDir("bench") ||
        file.InDir("examples")) {
      CheckRawSync(file, toks, &findings);
      CheckLockedSuffix(file, structure, &findings);
      CheckGuardedMember(file, structure, synchronized_classes, &findings);
    }
    if (in_src) {
      CheckDeterminism(file, toks, &findings);
      for (const StringLiteral& lit : ExtractFaultPoints(file)) {
        fault_sites.emplace_back(&file, lit);
      }
      for (const StringLiteral& lit : ExtractMetricNames(file)) {
        metric_sites.emplace_back(&file, lit);
      }
    }
    CheckHeaderHygiene(file, structure, &findings);
  }

  CheckFaultRegistry(fault_sites, options, &findings);
  CheckMetricRegistry(metric_sites, options, &findings);

  // Whole-program lock-graph pass (lock-cycle / lock-order-* rules).
  if (options.lock_graph) {
    LockGraph graph = BuildLockGraph(lexed, tokens, &findings);
    CheckLockGraph(graph, &findings);
    if (options.lock_graph_out != nullptr) {
      *options.lock_graph_out = std::move(graph);
    }
  }

  // Architecture-layering pass (module DAG from tools/fslint/layering.toml;
  // config parse errors are reported by ParseLayeringConfig at load time).
  if (options.layering.loaded()) {
    for (const SourceFile& file : lexed) {
      CheckLayering(file, options.layering, &findings);
    }
  }

  // Suppression pass: a justified `allow(<rule>)` on the finding's line or
  // the line above silences it; an unjustified one never silences anything
  // and is itself reported (exactly once per clause).
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : lexed) by_path[file.path] = &file;

  std::vector<Finding> kept;
  for (Finding& finding : findings) {
    auto it = by_path.find(finding.path);
    bool suppressed = false;
    if (it != by_path.end()) {
      for (int line : {finding.line, finding.line - 1}) {
        auto sup = it->second->suppressions.find(line);
        if (sup == it->second->suppressions.end()) continue;
        for (const Suppression& s : sup->second) {
          if (s.rule == finding.rule && s.justified) {
            suppressed = true;
            break;
          }
        }
        if (suppressed) break;
      }
    }
    if (!suppressed) kept.push_back(std::move(finding));
  }

  for (const SourceFile& file : lexed) {
    for (const auto& [line, sups] : file.suppressions) {
      for (const Suppression& s : sups) {
        if (!s.justified) {
          kept.push_back(
              {kRuleSuppression, file.path, line,
               "allow(" + s.rule +
                   ") without a justification; write `// fslint: allow(" +
                   s.rule + ") -- <why this is safe>`"});
        }
      }
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return kept;
}

}  // namespace fslint
