#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <tuple>
#include <utility>

namespace wcds::lint {
namespace {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_space_only(std::string_view s) {
  return s.find_first_not_of(" \t\r") == std::string_view::npos;
}

std::string_view trim(std::string_view s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

// Word-boundary-safe token search.
std::size_t find_token(std::string_view line, std::string_view word,
                       std::size_t from = 0) {
  while (from + word.size() <= line.size()) {
    const std::size_t pos = line.find(word, from);
    if (pos == std::string_view::npos) return std::string_view::npos;
    const bool left_ok = pos == 0 || !is_word(line[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !is_word(line[end]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
  return std::string_view::npos;
}

std::size_t skip_spaces(std::string_view line, std::size_t pos) {
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r')) {
    ++pos;
  }
  return pos;
}

// Reads the identifier starting at `pos` (or npos if none starts there).
std::string_view read_identifier(std::string_view line, std::size_t pos) {
  if (pos >= line.size()) return {};
  if (!is_word(line[pos]) ||
      std::isdigit(static_cast<unsigned char>(line[pos])) != 0) {
    return {};
  }
  std::size_t end = pos;
  while (end < line.size() && is_word(line[end])) ++end;
  return line.substr(pos, end - pos);
}

// `// wcds-lint: allow(rule-a, rule-b)` inside a comment.
void parse_suppressions(std::string_view comment, std::set<std::string>& out) {
  static constexpr std::string_view kKey = "wcds-lint:";
  std::size_t pos = 0;
  while ((pos = comment.find(kKey, pos)) != std::string_view::npos) {
    pos = skip_spaces(comment, pos + kKey.size());
    static constexpr std::string_view kAllow = "allow";
    if (comment.substr(pos, kAllow.size()) != kAllow) continue;
    pos = skip_spaces(comment, pos + kAllow.size());
    if (pos >= comment.size() || comment[pos] != '(') continue;
    ++pos;
    const std::size_t close = comment.find(')', pos);
    if (close == std::string_view::npos) return;
    std::string_view list = comment.substr(pos, close - pos);
    while (!list.empty()) {
      const std::size_t comma = list.find(',');
      out.emplace(trim(list.substr(0, comma)));
      if (comma == std::string_view::npos) break;
      list.remove_prefix(comma + 1);
    }
    pos = close + 1;
  }
}

}  // namespace

SourceFile annotate_source(std::string path, const std::string& content) {
  SourceFile file;
  file.path = std::move(path);

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_line, code_line, pure_line, comment_line;
  std::string raw_terminator;  // ")delim\"" ending the active raw string

  auto flush_line = [&] {
    file.raw.push_back(raw_line);
    file.code.push_back(code_line);
    file.pure.push_back(pure_line);
    file.allowed.emplace_back();
    parse_suppressions(comment_line, file.allowed.back());
    raw_line.clear();
    code_line.clear();
    pure_line.clear();
    comment_line.clear();
  };

  // Appends one consumed character to all four channels.
  auto emit = [&](char raw, char code, char pure, char comment) {
    raw_line += raw;
    code_line += code;
    pure_line += pure;
    comment_line += comment;
  };

  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      flush_line();
      // Line comments end; an (ill-formed) unterminated string or char
      // literal is closed defensively so one bad line cannot hide the rest
      // of the file.  Block comments and raw strings continue.
      if (state == State::kLineComment || state == State::kString ||
          state == State::kChar) {
        state = State::kCode;
      }
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          emit(c, ' ', ' ', c);
          emit(next, ' ', ' ', next);
          ++i;
          state = State::kLineComment;
        } else if (c == '/' && next == '*') {
          emit(c, ' ', ' ', c);
          emit(next, ' ', ' ', next);
          ++i;
          state = State::kBlockComment;
        } else if (c == '"') {
          // R"delim(...)delim" — the prefix character R makes it raw.
          if (!code_line.empty() && code_line.back() == 'R' &&
              (code_line.size() < 2 ||
               !is_word(code_line[code_line.size() - 2]))) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < n && content[j] != '(') delim += content[j++];
            raw_terminator = ")" + delim + "\"";
            state = State::kRawString;
            emit(c, c, c, ' ');
          } else {
            emit(c, c, c, ' ');
            state = State::kString;
          }
        } else if (c == '\'') {
          // A quote directly after a word character is a digit separator
          // (100'000), not a character literal.
          if (!code_line.empty() && is_word(code_line.back())) {
            emit(c, c, c, ' ');
          } else {
            emit(c, c, c, ' ');
            state = State::kChar;
          }
        } else {
          emit(c, c, c, ' ');
        }
        break;
      case State::kLineComment:
        emit(c, ' ', ' ', c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          emit(c, ' ', ' ', c);
          emit(next, ' ', ' ', next);
          ++i;
          state = State::kCode;
        } else {
          emit(c, ' ', ' ', c);
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < n) {
          emit(c, c, ' ', ' ');
          if (next != '\n') {
            emit(next, next, ' ', ' ');
            ++i;
          }
        } else if (c == quote) {
          emit(c, c, c, ' ');
          state = State::kCode;
        } else {
          emit(c, c, ' ', ' ');
        }
        break;
      }
      case State::kRawString:
        emit(c, c, ' ', ' ');
        if (c == '"' && raw_line.size() >= raw_terminator.size() &&
            raw_line.compare(raw_line.size() - raw_terminator.size(),
                             raw_terminator.size(), raw_terminator) == 0) {
          state = State::kCode;
        }
        break;
    }
  }
  if (!raw_line.empty()) flush_line();

  // A suppression on a comment-only line also covers the next line.
  for (std::size_t i = 0; i + 1 < file.raw.size(); ++i) {
    if (!file.allowed[i].empty() && is_space_only(file.pure[i])) {
      file.allowed[i + 1].insert(file.allowed[i].begin(),
                                 file.allowed[i].end());
    }
  }
  return file;
}

std::string format_diagnostic(const Diagnostic& diagnostic) {
  std::ostringstream out;
  out << diagnostic.file << ":" << diagnostic.line << ": error: ["
      << diagnostic.rule << "] " << diagnostic.message;
  return out.str();
}

std::string format_diagnostic_github(const Diagnostic& diagnostic) {
  std::ostringstream out;
  out << "::error file=" << diagnostic.file << ",line=" << diagnostic.line
      << "::[" << diagnostic.rule << "] " << diagnostic.message;
  return out.str();
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"no-bare-assert",
       "assert()/abort() in src/ must use WCDS_CHECK/WCDS_DCHECK/WCDS_REQUIRE"},
      {"paper-constant",
       "raw Lemma 1/2 packing literals (5/23/24/47/48) must use the named "
       "constants in src/check/audit.h"},
      {"message-type-registry",
       "every *MessageType enumerator needs a trace-name entry "
       "(case kX: return \"...\")"},
      {"metric-doc-sync",
       "every obs::Recorder metric name must be documented in "
       "docs/OBSERVABILITY.md"},
      {"include-hygiene", "no ../ or <bits/...> includes"},
      {"no-unordered-iteration",
       "no range-for / iterator walk over std::unordered_{map,set} in "
       "trace-affecting modules (iteration order leaks into traces)"},
      {"no-pointer-order",
       "no ordering, sorting or hashing by raw pointer value (addresses "
       "change run to run)"},
      {"no-ambient-entropy",
       "no std::random_device/rand()/time()/*_clock::now() outside the "
       "declared clock/seed boundary"},
      {"layer-dag",
       "the declared module DAG is enforced over the include graph (cycles "
       "and undeclared cross-module includes are errors)"},
      {"facade-only",
       "direct core::algorithm1/2 / protocols::run_algorithm1/2 calls "
       "outside wcds/, protocols/, facade/ and BM_ bench bodies must use "
       "core::build() / bench::build_with()"},
  };
  return kRules;
}

// --- configuration ----------------------------------------------------------

Config default_config() {
  Config config;
  config.module_prefixes = {
      {"src/base/", "base"},
      {"src/check/", "check"},
      {"src/obs/", "obs"},
      {"src/geom/", "geom"},
      {"src/graph/", "graph"},
      {"src/parallel/", "parallel"},
      {"src/udg/", "udg"},
      {"src/mis/", "mis"},
      {"src/wcds/", "wcds"},
      {"src/spanner/", "spanner"},
      {"src/sim/", "sim"},
      {"src/fault/", "fault"},
      {"src/routing/", "routing"},
      {"src/service/", "service"},
      {"src/protocols/", "protocols"},
      {"src/broadcast/", "broadcast"},
      {"src/maintenance/", "maintenance"},
      {"src/mobility/", "mobility"},
      {"src/io/", "io"},
      {"src/facade/", "facade"},
      {"src/bench_support/", "bench_support"},
  };
  // Mirrors the CMake library split: audit.* is its own layer above
  // graph/mis (wcds_audit), and the result record is a vocabulary type
  // both the auditor and the algorithms may see (no audit <-> wcds cycle).
  config.module_overrides = {
      {"src/check/audit.h", "audit"},
      {"src/check/audit.cpp", "audit"},
      {"src/wcds/wcds_result.h", "wcds_types"},
  };
  // The declared layering DAG.  A module may include itself and exactly the
  // modules listed; the list is the direct-include allowance, not a
  // transitive closure.  Documented in docs/CHECKING.md.
  config.modules = {
      {"base", {}},
      {"check", {}},
      {"obs", {"check"}},
      {"geom", {"check"}},
      {"parallel", {"base", "check"}},
      {"graph", {"check", "geom", "parallel"}},
      {"wcds_types", {"check", "geom", "graph"}},
      {"udg", {"check", "geom", "graph", "obs"}},
      {"mis", {"check", "geom", "graph", "obs"}},
      {"wcds",
       {"audit", "check", "geom", "graph", "mis", "obs", "wcds_types"}},
      {"audit", {"check", "geom", "graph", "mis", "wcds_types"}},
      {"spanner",
       {"audit", "check", "geom", "graph", "obs", "parallel", "wcds_types"}},
      {"sim", {"base", "check", "geom", "graph", "obs"}},
      {"fault", {"check", "geom", "graph", "obs", "sim"}},
      {"routing", {"check", "geom", "graph", "wcds"}},
      {"service",
       {"check", "fault", "geom", "graph", "obs", "parallel", "routing",
        "wcds"}},
      {"protocols",
       {"audit", "check", "fault", "geom", "graph", "mis", "obs", "parallel",
        "sim", "wcds", "wcds_types"}},
      {"broadcast",
       {"check", "geom", "graph", "obs", "protocols", "sim", "wcds_types"}},
      {"maintenance",
       {"audit", "check", "geom", "graph", "mis", "obs", "udg", "wcds",
        "wcds_types"}},
      {"mobility", {"check", "geom", "graph", "obs", "udg"}},
      {"io", {"check", "geom", "graph", "obs", "wcds_types"}},
      {"facade",
       {"audit", "broadcast", "check", "fault", "geom", "graph", "io",
        "maintenance", "mis", "mobility", "obs", "parallel", "protocols",
        "routing", "sim", "spanner", "udg", "wcds", "wcds_types"}},
      {"bench_support", {"check", "geom", "graph", "io", "obs"}},
  };
  return config;
}

std::string module_for(const std::string& path, const Config& config) {
  for (const auto& [exact, module] : config.module_overrides) {
    if (path == exact) return module;
  }
  std::string best_module;
  std::size_t best_len = 0;
  for (const auto& [prefix, module] : config.module_prefixes) {
    if (prefix.size() > best_len &&
        std::string_view(path).starts_with(prefix)) {
      best_module = module;
      best_len = prefix.size();
    }
  }
  return best_module;
}

// --- phase 1: fact extraction ----------------------------------------------

namespace {

bool in_src(const std::string& path) {
  return std::string_view(path).starts_with("src/");
}

// True when the file's container-iteration / pointer-order nondeterminism
// could reach a trace.  Module assignment wins; files without a module fall
// back to their "src/<dir>/" component so minimal Configs still scope.
bool is_trace_affecting(const std::string& path, const std::string& module,
                        const Config& config) {
  if (!module.empty()) {
    if (config.trace_affecting_modules.count(module) != 0) return true;
  } else if (in_src(path)) {
    const std::size_t slash = path.find('/', 4);
    if (slash != std::string::npos &&
        config.trace_affecting_modules.count(path.substr(4, slash - 4)) != 0) {
      return true;
    }
  }
  for (const std::string& prefix : config.trace_affecting_prefixes) {
    if (std::string_view(path).starts_with(prefix)) return true;
  }
  return false;
}

bool in_entropy_scope(const std::string& path, const Config& config) {
  for (const std::string& boundary : config.entropy_boundary_files) {
    if (path == boundary) return false;
  }
  for (const std::string& prefix : config.entropy_scope_prefixes) {
    if (std::string_view(path).starts_with(prefix)) return true;
  }
  return false;
}

// A (row, col) position in a line-channel; end-of-line reads as '\n'.
struct Pos {
  std::size_t row = 0;
  std::size_t col = 0;
};

char pos_char(const std::vector<std::string>& lines, Pos p) {
  if (p.row >= lines.size()) return '\0';
  return p.col < lines[p.row].size() ? lines[p.row][p.col] : '\n';
}

Pos pos_next(const std::vector<std::string>& lines, Pos p) {
  if (p.row >= lines.size()) return p;
  if (p.col < lines[p.row].size()) {
    ++p.col;
  } else {
    ++p.row;
    p.col = 0;
  }
  return p;
}

Pos pos_skip_blank(const std::vector<std::string>& lines, Pos p) {
  while (p.row < lines.size()) {
    const char c = pos_char(lines, p);
    if (c != ' ' && c != '\t' && c != '\r' && c != '\n') break;
    p = pos_next(lines, p);
  }
  return p;
}

// `open` sits on a '<'; returns the position just after the matching '>'
// (crossing at most 40 lines), or nullopt when unbalanced.
std::optional<Pos> skip_angles(const std::vector<std::string>& lines,
                               Pos open) {
  const std::size_t last_row = open.row + 40;
  int depth = 0;
  Pos p = open;
  while (p.row < lines.size() && p.row <= last_row) {
    const char c = pos_char(lines, p);
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      --depth;
      if (depth == 0) return pos_next(lines, p);
    } else if (c == ';' || c == '{') {
      return std::nullopt;  // a template argument list never contains these
    }
    p = pos_next(lines, p);
  }
  return std::nullopt;
}

// The first template argument after `open` (a '<'), or nullopt.
std::optional<std::string> first_template_arg(
    const std::vector<std::string>& lines, Pos open) {
  const std::size_t last_row = open.row + 40;
  int depth = 0;
  std::string arg;
  Pos p = open;
  while (p.row < lines.size() && p.row <= last_row) {
    const char c = pos_char(lines, p);
    if (c == '<') {
      ++depth;
      if (depth > 1) arg += c;
    } else if (c == '>') {
      --depth;
      if (depth == 0) return arg;
      arg += c;
    } else if (c == ',' && depth == 1) {
      return arg;
    } else if (c == ';' || c == '{') {
      return std::nullopt;
    } else if (depth >= 1) {
      arg += c;
    }
    p = pos_next(lines, p);
  }
  return std::nullopt;
}

std::vector<IncludeEdge> extract_includes(const SourceFile& file) {
  std::vector<IncludeEdge> includes;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    std::size_t pos = line.find("#include");
    if (pos == std::string::npos) continue;
    if (!is_space_only(std::string_view(line).substr(0, pos))) continue;
    pos = skip_spaces(line, pos + 8);
    if (pos >= line.size() || line[pos] != '"') continue;
    const std::size_t close = line.find('"', pos + 1);
    if (close == std::string::npos) continue;
    IncludeEdge edge;
    edge.line = static_cast<int>(i + 1);
    edge.written = line.substr(pos + 1, close - pos - 1);
    includes.push_back(std::move(edge));
  }
  return includes;
}

constexpr std::string_view kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

// Unordered-container declarations: `std::unordered_map<...> name`,
// `using Alias = std::unordered_map<...>`, and (second pass) variables
// declared with a local alias.
void extract_unordered_decls(const SourceFile& file,
                             std::vector<Decl>& decls) {
  std::vector<std::string> aliases;
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    for (const std::string_view container : kUnorderedContainers) {
      std::size_t pos = 0;
      while ((pos = find_token(line, container, pos)) !=
             std::string_view::npos) {
        const std::size_t after = pos + container.size();
        pos = after;
        if (after >= line.size() || line[after] != '<') continue;
        // `using Alias = std::unordered_map<...>` declares a type name that
        // is itself unordered.
        const std::size_t using_at =
            find_token(std::string_view(line).substr(0, pos), "using");
        if (using_at != std::string_view::npos &&
            line.find('=', using_at) < pos) {
          const std::string_view alias = read_identifier(
              line, skip_spaces(line, using_at + 5));
          if (!alias.empty()) {
            decls.push_back({static_cast<int>(i + 1), "unordered-alias",
                             std::string(alias)});
            aliases.emplace_back(alias);
          }
          continue;
        }
        const std::optional<Pos> end =
            skip_angles(file.pure, Pos{i, after});
        if (!end) continue;
        Pos p = pos_skip_blank(file.pure, *end);
        while (pos_char(file.pure, p) == '&' ||
               pos_char(file.pure, p) == '*') {
          p = pos_skip_blank(file.pure, pos_next(file.pure, p));
        }
        if (p.row >= file.pure.size()) continue;
        const std::string_view name = read_identifier(file.pure[p.row], p.col);
        if (name.empty()) continue;
        // A '(' after the identifier means a function returning the
        // container, not a container object.
        const std::size_t tail = skip_spaces(file.pure[p.row],
                                             p.col + name.size());
        if (tail < file.pure[p.row].size() && file.pure[p.row][tail] == '(') {
          continue;
        }
        decls.push_back({static_cast<int>(p.row + 1), "unordered",
                         std::string(name)});
      }
    }
  }
  // Variables declared with one of the file's own unordered aliases.
  for (const std::string& alias : aliases) {
    for (std::size_t i = 0; i < file.pure.size(); ++i) {
      const std::string& line = file.pure[i];
      std::size_t pos = 0;
      while ((pos = find_token(line, alias, pos)) != std::string_view::npos) {
        const std::size_t start = pos;
        pos += alias.size();
        // Skip the alias declaration itself.
        if (find_token(std::string_view(line).substr(0, start), "using") !=
            std::string_view::npos) {
          continue;
        }
        std::size_t at = skip_spaces(line, start + alias.size());
        while (at < line.size() && (line[at] == '&' || line[at] == '*')) {
          at = skip_spaces(line, at + 1);
        }
        const std::string_view name = read_identifier(line, at);
        if (name.empty() || name == "const") continue;
        const std::size_t tail = skip_spaces(line, at + name.size());
        const char next = tail < line.size() ? line[tail] : ';';
        if (next != ';' && next != '=' && next != '{' && next != ',' &&
            next != ')' && next != ':') {
          continue;
        }
        decls.push_back(
            {static_cast<int>(i + 1), "unordered", std::string(name)});
      }
    }
  }
}

bool looks_like_type(std::string_view token) {
  if (token.empty()) return false;
  if (std::isupper(static_cast<unsigned char>(token[0])) != 0) return true;
  if (token.ends_with("_t")) return true;
  static constexpr std::string_view kBuiltins[] = {
      "int",  "char",   "short",    "long", "unsigned",
      "bool", "double", "float",    "void", "signed",
      "auto", "size_t", "wchar_t"};
  for (const std::string_view builtin : kBuiltins) {
    if (token == builtin) return true;
  }
  return false;
}

bool is_cv_or_storage_keyword(std::string_view token) {
  static constexpr std::string_view kKeywords[] = {
      "const",  "constexpr", "static",       "inline",   "mutable",
      "volatile", "typename", "friend",      "extern",   "thread_local",
      "register", "struct",   "class",       "for"};
  for (const std::string_view keyword : kKeywords) {
    if (token == keyword) return true;
  }
  return false;
}

// Raw-pointer object declarations: `Type* name` where Type looks like a
// type name and the surrounding context is a declarator, not an expression
// (so `return a * b;` and `(width * height)` never match).
void extract_pointer_decls(const SourceFile& file, std::vector<Decl>& decls) {
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    for (std::size_t col = 0; col < line.size(); ++col) {
      if (line[col] != '*') continue;
      // Declared name to the right (skipping extra '*' and cv).
      std::size_t r = skip_spaces(line, col + 1);
      while (r < line.size() && line[r] == '*') r = skip_spaces(line, r + 1);
      std::string_view name = read_identifier(line, r);
      if (name == "const") {
        r = skip_spaces(line, r + name.size());
        name = read_identifier(line, r);
      }
      if (name.empty()) continue;
      const std::size_t tail = skip_spaces(line, r + name.size());
      if (tail >= line.size()) continue;
      const char next = line[tail];
      if (next != ';' && next != '=' && next != ',' && next != ')' &&
          next != '{' && next != ':') {
        continue;
      }
      // Type name directly to the left.
      std::size_t l = col;
      while (l > 0 && (line[l - 1] == ' ' || line[l - 1] == '\t')) --l;
      if (l == 0 || !is_word(line[l - 1])) continue;
      std::size_t type_start = l;
      while (type_start > 0 && is_word(line[type_start - 1])) --type_start;
      const std::string_view type = std::string_view(line).substr(
          type_start, l - type_start);
      if (!looks_like_type(type)) continue;
      // Context left of the type must open a declarator, not continue an
      // expression (`return Foo * bar` is rejected here).
      std::size_t before = type_start;
      while (before > 0 &&
             (line[before - 1] == ' ' || line[before - 1] == '\t')) {
        --before;
      }
      if (before > 0) {
        const char c = line[before - 1];
        if (is_word(c)) {
          std::size_t word_start = before;
          while (word_start > 0 && is_word(line[word_start - 1])) {
            --word_start;
          }
          if (!is_cv_or_storage_keyword(std::string_view(line).substr(
                  word_start, before - word_start))) {
            continue;
          }
        } else if (c != '(' && c != ',' && c != ';' && c != '{' &&
                   c != '}' && c != '<' && c != ':') {
          continue;
        }
      }
      decls.push_back(
          {static_cast<int>(i + 1), "pointer", std::string(name)});
    }
  }
}

// The trailing identifier of a member chain (`grid.cells` -> "cells"), or ""
// when the expression is anything more complex than identifiers joined by
// `.` / `->` / `::`.
std::string chain_tail(std::string_view expr) {
  expr = trim(expr);
  if (expr.empty()) return "";
  std::size_t pos = 0;
  std::string last;
  while (pos < expr.size()) {
    const std::string_view id = read_identifier(expr, pos);
    if (id.empty()) return "";
    last = std::string(id);
    pos += id.size();
    if (pos == expr.size()) return last;
    if (expr[pos] == '.') {
      ++pos;
    } else if (expr.substr(pos, 2) == "->" || expr.substr(pos, 2) == "::") {
      pos += 2;
    } else {
      return "";
    }
  }
  return "";
}

// Range-for targets and .begin()/.cbegin() iterator walks.
void extract_iter_uses(const SourceFile& file, std::vector<IterUse>& uses) {
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    std::size_t pos = 0;
    while ((pos = find_token(line, "for", pos)) != std::string_view::npos) {
      pos += 3;
      const std::size_t open = skip_spaces(line, pos);
      if (open >= line.size() || line[open] != '(') continue;
      // Scan across lines for the range-for ':' (depth 1, not '::'); a ';'
      // first means a classic for loop.
      Pos p{i, open};
      int depth = 0;
      int angle = 0;
      std::optional<Pos> colon;
      const std::size_t last_row = i + 10;
      while (p.row < file.pure.size() && p.row <= last_row) {
        const char c = pos_char(file.pure, p);
        if (c == '(') {
          ++depth;
        } else if (c == ')') {
          --depth;
          if (depth == 0) break;
        } else if (c == '<') {
          ++angle;
        } else if (c == '>') {
          if (angle > 0) --angle;
        } else if (c == ';' && depth == 1) {
          break;  // classic for
        } else if (c == ':' && depth == 1 && angle == 0) {
          const Pos after = pos_next(file.pure, p);
          if (pos_char(file.pure, after) == ':' ||
              (p.col > 0 && file.pure[p.row][p.col - 1] == ':')) {
            p = pos_next(file.pure, after);
            continue;
          }
          colon = after;
          break;
        }
        p = pos_next(file.pure, p);
      }
      if (!colon) continue;
      // The range expression: from after ':' to the closing paren.
      std::string expr;
      Pos q = *colon;
      depth = 1;
      while (q.row < file.pure.size() && q.row <= last_row) {
        const char c = pos_char(file.pure, q);
        if (c == '(') ++depth;
        if (c == ')') {
          --depth;
          if (depth == 0) break;
        }
        expr += c == '\n' ? ' ' : c;
        q = pos_next(file.pure, q);
      }
      const int use_line = static_cast<int>(colon->row + 1);
      bool inline_unordered = false;
      for (const std::string_view container : kUnorderedContainers) {
        const std::size_t at = find_token(expr, container);
        if (at != std::string_view::npos &&
            at + container.size() < expr.size() &&
            expr[at + container.size()] == '<') {
          inline_unordered = true;
        }
      }
      if (inline_unordered) {
        uses.push_back({use_line, "range-for-inline", ""});
        continue;
      }
      const std::string tail = chain_tail(expr);
      if (!tail.empty()) uses.push_back({use_line, "range-for", tail});
    }
    // `x.begin()` / `x->begin()` / cbegin: the receiver's trailing
    // identifier is the iterated object.
    for (const std::string_view begin : {std::string_view("begin"),
                                         std::string_view("cbegin")}) {
      std::size_t at = 0;
      while ((at = find_token(line, begin, at)) != std::string_view::npos) {
        const std::size_t call = skip_spaces(line, at + begin.size());
        std::size_t recv_end = at;
        at += begin.size();
        if (call >= line.size() || line[call] != '(') continue;
        if (recv_end == 0) continue;
        if (line[recv_end - 1] == '.') {
          --recv_end;
        } else if (recv_end >= 2 && line[recv_end - 2] == '-' &&
                   line[recv_end - 1] == '>') {
          recv_end -= 2;
        } else {
          continue;
        }
        std::size_t recv_start = recv_end;
        while (recv_start > 0 && is_word(line[recv_start - 1])) --recv_start;
        if (recv_start == recv_end) continue;
        uses.push_back({static_cast<int>(i + 1), "begin",
                        line.substr(recv_start, recv_end - recv_start)});
      }
    }
  }
}

// Relational comparisons between two plain identifiers.  Only spaced
// operators are considered (` < `, ` <= `, ...) so template argument lists
// never match; both operands must be bare identifiers.
void extract_compares(const SourceFile& file, std::vector<CompareUse>& uses) {
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    for (std::size_t col = 1; col + 1 < line.size(); ++col) {
      const char c = line[col];
      if (c != '<' && c != '>') continue;
      if (line[col - 1] != ' ') continue;
      if (line[col + 1] == c || line[col + 1] == '<' || line[col + 1] == '>') {
        continue;  // shift operators / spaceship fragments
      }
      std::size_t op_end = col + 1;
      if (op_end < line.size() && line[op_end] == '=') ++op_end;
      if (op_end >= line.size() || line[op_end] != ' ') continue;
      // Left operand: identifier immediately before the space.
      std::size_t lhs_end = col - 1;
      while (lhs_end > 0 && line[lhs_end - 1] == ' ') --lhs_end;
      if (lhs_end == 0 || !is_word(line[lhs_end - 1])) continue;
      std::size_t lhs_start = lhs_end;
      while (lhs_start > 0 && is_word(line[lhs_start - 1])) --lhs_start;
      const std::string_view lhs =
          std::string_view(line).substr(lhs_start, lhs_end - lhs_start);
      if (lhs.empty() ||
          std::isdigit(static_cast<unsigned char>(lhs[0])) != 0) {
        continue;
      }
      // Members / qualified names are resolved by name only; reject them so
      // `a.size() < b` style cannot alias a tracked pointer name.
      if (lhs_start > 0 && (line[lhs_start - 1] == '.' ||
                            line[lhs_start - 1] == ':' ||
                            line[lhs_start - 1] == '>')) {
        continue;
      }
      // Right operand.
      const std::size_t rhs_start = skip_spaces(line, op_end);
      const std::string_view rhs = read_identifier(line, rhs_start);
      if (rhs.empty()) continue;
      const std::size_t rhs_end = rhs_start + rhs.size();
      if (rhs_end < line.size() &&
          (line[rhs_end] == '(' || line[rhs_end] == '.' ||
           line[rhs_end] == ':' || line[rhs_end] == '-')) {
        continue;
      }
      uses.push_back({static_cast<int>(i + 1), std::string(lhs),
                      std::string(rhs)});
    }
  }
}

// --- file-local rules (run in phase 1, stored in the index) -----------------

void rule_no_bare_assert(const SourceFile& file,
                         std::vector<Diagnostic>& diags) {
  if (!in_src(file.path)) return;
  static constexpr std::string_view kCalls[] = {"assert", "abort"};
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    for (const std::string_view call : kCalls) {
      std::size_t pos = 0;
      while ((pos = find_token(line, call, pos)) != std::string_view::npos) {
        const std::size_t after = skip_spaces(line, pos + call.size());
        if (after < line.size() && line[after] == '(') {
          diags.push_back(
              {file.path, static_cast<int>(i + 1), "no-bare-assert",
               "bare " + std::string(call) +
                   "() bypasses the contract layer; use WCDS_CHECK / "
                   "WCDS_DCHECK / WCDS_REQUIRE (src/check/check.h) so the "
                   "failure routes through the pluggable handler"});
        }
        pos += call.size();
      }
    }
  }
}

void rule_paper_constant(const SourceFile& file, const Config& config,
                         std::vector<Diagnostic>& diags) {
  if (!in_src(file.path)) return;
  for (const std::string& exempt : config.paper_constant_exempt) {
    if (file.path == exempt) return;
  }
  static const std::set<std::string, std::less<>> kLiterals = {"5", "23", "24",
                                                               "47", "48"};
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    for (std::size_t pos = 0; pos < line.size();) {
      const char c = line[pos];
      if (std::isdigit(static_cast<unsigned char>(c)) == 0 ||
          (pos > 0 && (is_word(line[pos - 1]) || line[pos - 1] == '.'))) {
        ++pos;
        continue;
      }
      // Consume the whole numeric literal: digits, radix/float chars,
      // suffixes and digit separators, so 24.0 / 0x17 / 5u never match "5".
      std::size_t end = pos;
      while (end < line.size() &&
             (is_word(line[end]) || line[end] == '.' || line[end] == '\'')) {
        ++end;
      }
      const std::string token = line.substr(pos, end - pos);
      if (kLiterals.count(token) != 0) {
        diags.push_back(
            {file.path, static_cast<int>(i + 1), "paper-constant",
             "raw packing constant " + token +
                 "; reference the named Lemma/Theorem constant from "
                 "src/check/audit.h (kLemma1MaxMisNeighbors, "
                 "kLemma2TwoHopBound, kLemma2ThreeHopBound, "
                 "kTheorem10MisFactor, ...) instead"});
      }
      pos = end;
    }
  }
}

void rule_include_hygiene(const SourceFile& file,
                          std::vector<Diagnostic>& diags) {
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    std::size_t pos = line.find("#include");
    if (pos == std::string::npos) continue;
    if (!is_space_only(std::string_view(line).substr(0, pos))) continue;
    pos = skip_spaces(line, pos + 8);
    if (pos >= line.size()) continue;
    const char open = line[pos];
    if (open != '"' && open != '<') continue;
    const char close_char = open == '"' ? '"' : '>';
    const std::size_t close = line.find(close_char, pos + 1);
    if (close == std::string::npos) continue;
    const std::string path = line.substr(pos + 1, close - pos - 1);
    if (std::string_view(path).starts_with("../") ||
        path.find("/../") != std::string::npos) {
      diags.push_back({file.path, static_cast<int>(i + 1), "include-hygiene",
                       "parent-relative include \"" + path +
                           "\"; use a src-root-relative path"});
    } else if (std::string_view(path).starts_with("bits/")) {
      diags.push_back({file.path, static_cast<int>(i + 1), "include-hygiene",
                       "<bits/...> is a libstdc++ internal; include the "
                       "standard header instead"});
    }
  }
}

void rule_no_ambient_entropy(const SourceFile& file, const Config& config,
                             std::vector<Diagnostic>& diags) {
  if (!in_entropy_scope(file.path, config)) return;
  const auto diag = [&](std::size_t row, const std::string& what,
                        const std::string& fix) {
    diags.push_back({file.path, static_cast<int>(row + 1),
                     "no-ambient-entropy", what + "; " + fix});
  };
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    if (find_token(line, "random_device") != std::string_view::npos) {
      diag(i, "std::random_device is ambient entropy",
           "seed a geom:: generator (geom/rng.h) from the experiment config "
           "instead");
    }
    for (const std::string_view call :
         {std::string_view("rand"), std::string_view("srand")}) {
      std::size_t pos = 0;
      while ((pos = find_token(line, call, pos)) != std::string_view::npos) {
        const std::size_t after = skip_spaces(line, pos + call.size());
        if (after < line.size() && line[after] == '(') {
          diag(i, std::string(call) + "() draws from hidden global state",
               "use the seeded geom:: generators (geom/rng.h)");
        }
        pos += call.size();
      }
    }
    // `time(...)` / `clock(...)` free-function calls; member calls
    // (`event.time()`, `sim->clock()`) are fine.
    for (const std::string_view call :
         {std::string_view("time"), std::string_view("clock")}) {
      std::size_t pos = 0;
      while ((pos = find_token(line, call, pos)) != std::string_view::npos) {
        const std::size_t start = pos;
        pos += call.size();
        const std::size_t after = skip_spaces(line, start + call.size());
        if (after >= line.size() || line[after] != '(') continue;
        if (start > 0 && (line[start - 1] == '.' || line[start - 1] == '>')) {
          continue;
        }
        diag(i, std::string(call) + "() reads the wall clock",
             "derive timing from the simulator clock, or route measurement "
             "through the obs:: boundary");
      }
    }
    // `<something>_clock::now()` (and `Clock::now()` aliases).
    std::size_t pos = 0;
    while ((pos = find_token(line, "now", pos)) != std::string_view::npos) {
      const std::size_t start = pos;
      pos += 3;
      if (start < 2 || line[start - 1] != ':' || line[start - 2] != ':') {
        continue;
      }
      const std::size_t after = skip_spaces(line, start + 3);
      if (after >= line.size() || line[after] != '(') continue;
      std::size_t recv_end = start - 2;
      std::size_t recv_start = recv_end;
      while (recv_start > 0 && is_word(line[recv_start - 1])) --recv_start;
      const std::string_view receiver =
          std::string_view(line).substr(recv_start, recv_end - recv_start);
      if (receiver.ends_with("_clock") || receiver == "Clock") {
        diag(i, std::string(receiver) + "::now() reads the wall clock",
             "derive timing from the simulator clock, or route measurement "
             "through the obs:: boundary");
      }
    }
  }
}

// The file-local half of no-pointer-order: container/functor types keyed,
// ordered or hashed by a raw pointer.  (Relational comparisons of tracked
// pointer identifiers are judged in phase 2 with cross-file declarations.)
void rule_no_pointer_order_local(const SourceFile& file,
                                 const std::string& module,
                                 const Config& config,
                                 std::vector<Diagnostic>& diags) {
  if (!is_trace_affecting(file.path, module, config)) return;
  struct Pattern {
    std::string_view spelling;
    std::string_view what;
  };
  static constexpr Pattern kPatterns[] = {
      {"std::less<", "std::less over a raw pointer orders by address"},
      {"std::greater<", "std::greater over a raw pointer orders by address"},
      {"std::hash<", "std::hash over a raw pointer hashes the address"},
      {"std::set<", "std::set keyed by a raw pointer iterates in address "
                    "order"},
      {"std::map<", "std::map keyed by a raw pointer iterates in address "
                    "order"},
      {"std::unordered_set<",
       "std::unordered_set keyed by a raw pointer buckets by address"},
      {"std::unordered_map<",
       "std::unordered_map keyed by a raw pointer buckets by address"},
  };
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    for (const Pattern& pattern : kPatterns) {
      std::size_t pos = 0;
      while ((pos = line.find(pattern.spelling, pos)) != std::string::npos) {
        const Pos open{i, pos + pattern.spelling.size() - 1};
        pos += pattern.spelling.size();
        const std::optional<std::string> arg =
            first_template_arg(file.pure, open);
        if (!arg || arg->find('*') == std::string::npos) continue;
        diags.push_back(
            {file.path, static_cast<int>(i + 1), "no-pointer-order",
             std::string(pattern.what) +
                 " — addresses change run to run; key by NodeId or a stable "
                 "index instead"});
      }
    }
  }
}

// facade-only: the per-algorithm construction entrypoints are implementation
// detail behind core::build() / bench::build_with().  Modules listed in
// Config::facade_only_exempt_modules (the algorithms, the protocol drivers,
// the facade itself) may call them; so may the body of a benchmark fixture
// (`BM_*(benchmark::State&)`), where timing the raw entrypoint is the point.
// Everything else linted (src/, bench/ table code, tools/) is flagged.
void rule_facade_only(const SourceFile& file, const std::string& module,
                      const Config& config, std::vector<Diagnostic>& diags) {
  if (std::find(config.facade_only_exempt_modules.begin(),
                config.facade_only_exempt_modules.end(),
                module) != config.facade_only_exempt_modules.end()) {
    return;
  }
  static constexpr std::string_view kEntrypoints[] = {
      "core::algorithm1",
      "core::algorithm2",
      "protocols::run_algorithm1",
      "protocols::run_algorithm2",
  };
  // Brace-depth tracker for BM_ bodies: from a line introducing
  // `BM_<Name>(benchmark::State ...)` until its brace depth unwinds.
  int depth = 0;
  int entry_depth = 0;
  bool in_bm = false;
  bool body_entered = false;
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    const std::string& line = file.pure[i];
    if (!in_bm && line.find("benchmark::State") != std::string::npos) {
      std::size_t bm = 0;
      while ((bm = line.find("BM_", bm)) != std::string::npos) {
        if (bm == 0 || !is_word(line[bm - 1])) {
          in_bm = true;
          entry_depth = depth;
          body_entered = false;
          break;
        }
        bm += 3;
      }
    }
    if (!in_bm) {
      for (const std::string_view entry : kEntrypoints) {
        std::size_t pos = 0;
        while ((pos = line.find(entry, pos)) != std::string::npos) {
          const std::size_t end = pos + entry.size();
          const bool left_ok = pos == 0 || !is_word(line[pos - 1]);
          const std::size_t after = skip_spaces(line, end);
          const bool is_call = left_ok &&
                               (end >= line.size() || !is_word(line[end])) &&
                               after < line.size() && line[after] == '(';
          if (is_call) {
            diags.push_back(
                {file.path, static_cast<int>(i + 1), "facade-only",
                 "direct call to " + std::string(entry) +
                     "(); application code goes through core::build() / "
                     "bench::build_with() (the entrypoints are reserved for "
                     "wcds/, protocols/, facade/ and BM_ bench bodies)"});
          }
          pos = end;
        }
      }
    }
    for (const char c : line) {
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
      }
    }
    if (in_bm) {
      if (depth > entry_depth) {
        body_entered = true;
      } else if (body_entered && depth <= entry_depth) {
        in_bm = false;
      }
    }
  }
}

// --- cross-file registries (facts in phase 1, judged in phase 2) ------------

// Collects the enumerators of every `enum <X>MessageType` in `file`.
void collect_message_type_enumerators(const SourceFile& file,
                                      std::vector<EnumeratorFact>& out) {
  for (std::size_t i = 0; i < file.pure.size(); ++i) {
    std::size_t pos = find_token(file.pure[i], "enum");
    if (pos == std::string_view::npos) continue;
    pos = skip_spaces(file.pure[i], pos + 4);
    std::string_view name = read_identifier(file.pure[i], pos);
    if (name == "class" || name == "struct") {
      pos = skip_spaces(file.pure[i], pos + name.size());
      name = read_identifier(file.pure[i], pos);
    }
    if (!name.ends_with("MessageType") || name == "MessageType") continue;
    const std::string enum_name(name);
    // Walk from the opening brace, collecting the first identifier of each
    // comma-separated entry until the closing brace.
    bool in_body = false;
    bool expect_name = false;
    for (std::size_t row = i; row < file.pure.size(); ++row) {
      const std::string& line = file.pure[row];
      std::size_t col = row == i ? pos + name.size() : 0;
      while (col < line.size()) {
        const char c = line[col];
        if (!in_body) {
          if (c == '{') {
            in_body = true;
            expect_name = true;
          } else if (c == ';') {
            return;  // opaque-enum declaration, no body
          }
          ++col;
          continue;
        }
        if (c == '}') return;
        if (c == ',') {
          expect_name = true;
          ++col;
          continue;
        }
        if (expect_name) {
          const std::string_view id = read_identifier(line, col);
          if (!id.empty()) {
            out.push_back({static_cast<int>(row + 1), enum_name,
                           std::string(id)});
            expect_name = false;
            col += id.size();
            continue;
          }
        }
        ++col;
      }
    }
  }
}

// Enumerators that have a `case kX: return "..."` trace-name entry here.
std::vector<std::string> collect_named_cases(const SourceFile& file) {
  std::set<std::string> named;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    std::size_t pos = 0;
    while ((pos = find_token(line, "case", pos)) != std::string_view::npos) {
      std::size_t at = skip_spaces(line, pos + 4);
      const std::string_view id = read_identifier(line, at);
      pos = at;
      if (id.empty()) continue;
      // The returned name may sit on the same line or the next one.
      at += id.size();
      std::string window = line.substr(at);
      if (i + 1 < file.code.size()) window += " " + file.code[i + 1];
      const std::size_t ret = find_token(window, "return");
      if (ret != std::string_view::npos &&
          window.find('"', ret) != std::string::npos) {
        named.emplace(id);
      }
    }
  }
  return {named.begin(), named.end()};
}

// Metric-name string literals recorded through obs::Recorder in this file.
std::vector<MetricFact> collect_metric_uses(const SourceFile& file) {
  std::vector<MetricFact> uses;
  static constexpr std::string_view kMethods[] = {"add", "set", "set_max",
                                                  "observe"};
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (std::size_t pos = 0; pos < line.size(); ++pos) {
      if (line[pos] != '.') continue;
      const std::size_t id_at = skip_spaces(line, pos + 1);
      const std::string_view id = read_identifier(line, id_at);
      if (id.empty()) continue;
      bool is_method = false;
      for (const std::string_view m : kMethods) is_method |= (id == m);
      if (!is_method) continue;
      std::size_t at = skip_spaces(line, id_at + id.size());
      if (at >= line.size() || line[at] != '(') continue;
      at = skip_spaces(line, at + 1);
      if (at >= line.size() || line[at] != '"') continue;
      const std::size_t close = line.find('"', at + 1);
      if (close == std::string::npos) continue;
      const std::string name = line.substr(at + 1, close - at - 1);
      if (!name.empty()) {
        uses.push_back({static_cast<int>(i + 1), name});
      }
    }
    // PhaseTimer(recorder, "name") records into phase_ms/<name>.
    std::size_t pos = 0;
    while ((pos = find_token(line, "PhaseTimer", pos)) !=
           std::string_view::npos) {
      const std::size_t paren = line.find('(', pos);
      pos += 10;
      if (paren == std::string::npos) continue;
      const std::size_t quote = line.find('"', paren);
      if (quote == std::string::npos) continue;
      const std::size_t close = line.find('"', quote + 1);
      if (close == std::string::npos) continue;
      uses.push_back({static_cast<int>(i + 1),
                      "phase_ms/" + line.substr(quote + 1, close - quote - 1)});
    }
  }
  return uses;
}

// Backtick-quoted tokens of the metric registry document.
std::vector<std::string> doc_tokens(const std::string& doc) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while ((pos = doc.find('`', pos)) != std::string::npos) {
    const std::size_t close = doc.find('`', pos + 1);
    if (close == std::string::npos) break;
    const std::string token = doc.substr(pos + 1, close - pos - 1);
    if (!token.empty() && token.find('\n') == std::string::npos) {
      tokens.push_back(token);
    }
    pos = close + 1;
  }
  return tokens;
}

// A name is documented when a token matches it exactly, or a token with a
// `<placeholder>` documents the dynamic-suffix family it begins.
bool metric_documented(const std::string& name,
                       const std::vector<std::string>& tokens) {
  for (const std::string& token : tokens) {
    if (token == name) return true;
    const std::size_t angle = token.find('<');
    if (angle != std::string::npos && angle > 0 &&
        std::string_view(name).starts_with(
            std::string_view(token).substr(0, angle))) {
      return true;
    }
  }
  return false;
}

}  // namespace

FileIndex analyze_file(const std::string& path, const std::string& content,
                       const Config& config) {
  const SourceFile source = annotate_source(path, content);
  FileIndex index;
  index.path = path;
  index.module = module_for(path, config);

  index.includes = extract_includes(source);
  extract_unordered_decls(source, index.decls);
  extract_pointer_decls(source, index.decls);
  extract_iter_uses(source, index.iter_uses);
  extract_compares(source, index.compares);
  collect_message_type_enumerators(source, index.enumerators);
  index.named_cases = collect_named_cases(source);
  index.metric_uses = collect_metric_uses(source);

  for (std::size_t i = 0; i < source.allowed.size(); ++i) {
    if (source.allowed[i].empty()) continue;
    LineAllow allow;
    allow.line = static_cast<int>(i + 1);
    allow.rules.assign(source.allowed[i].begin(), source.allowed[i].end());
    index.allows.push_back(std::move(allow));
  }

  // File-local rules run unconditionally; Linter::run filters by
  // enabled_rules and suppressions.
  std::vector<Diagnostic>& local = index.diagnostics;
  rule_no_bare_assert(source, local);
  rule_paper_constant(source, config, local);
  rule_include_hygiene(source, local);
  rule_no_ambient_entropy(source, config, local);
  rule_no_pointer_order_local(source, index.module, config, local);
  rule_facade_only(source, index.module, config, local);
  return index;
}

// --- phase 2: the semantic pass ---------------------------------------------

Linter::Linter(Config config) : config_(std::move(config)) {}

void Linter::add_file(std::string path, const std::string& content) {
  pending_.emplace_back(std::move(path), content);
}

bool Linter::rule_enabled(const std::string& rule) const {
  return config_.enabled_rules.empty() ||
         config_.enabled_rules.count(rule) != 0;
}

namespace {

// Resolves every include against the scanned file set.  Candidates: the
// written path itself, the including file's directory, and the repo's
// include roots (src/, tools/, tests/, bench/ are all -I roots in CMake).
void resolve_includes(SemanticIndex& index) {
  std::set<std::string> known;
  for (const FileIndex& file : index.files) known.insert(file.path);
  for (FileIndex& file : index.files) {
    const std::size_t slash = file.path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : file.path.substr(0, slash + 1);
    for (IncludeEdge& edge : file.includes) {
      edge.resolved.clear();
      for (const std::string& candidate :
           {edge.written, dir + edge.written, "src/" + edge.written,
            "tools/" + edge.written, "tests/" + edge.written,
            "bench/" + edge.written}) {
        if (known.count(candidate) != 0) {
          edge.resolved = candidate;
          break;
        }
      }
    }
  }
}

// name -> decl kind, visible from `start` through its transitive project
// includes.  The file's own declarations win over included ones.
std::map<std::string, std::string> visible_decls(
    const std::map<std::string, const FileIndex*>& by_path,
    const FileIndex& start) {
  std::map<std::string, std::string> visible;
  std::set<std::string> seen{start.path};
  std::vector<const FileIndex*> queue{&start};
  while (!queue.empty()) {
    const FileIndex* file = queue.back();
    queue.pop_back();
    for (const Decl& decl : file->decls) {
      visible.emplace(decl.name, decl.kind);  // first writer (nearest) wins
    }
    for (const IncludeEdge& edge : file->includes) {
      if (edge.resolved.empty() || seen.count(edge.resolved) != 0) continue;
      seen.insert(edge.resolved);
      const auto it = by_path.find(edge.resolved);
      if (it != by_path.end()) queue.push_back(it->second);
    }
  }
  return visible;
}

void rule_no_unordered_iteration(const SemanticIndex& index,
                                 const Config& config,
                                 std::vector<Diagnostic>& diags) {
  std::map<std::string, const FileIndex*> by_path;
  for (const FileIndex& file : index.files) by_path[file.path] = &file;
  for (const FileIndex& file : index.files) {
    if (!is_trace_affecting(file.path, file.module, config)) continue;
    if (file.iter_uses.empty()) continue;
    const std::map<std::string, std::string> visible =
        visible_decls(by_path, file);
    for (const IterUse& use : file.iter_uses) {
      std::string what;
      if (use.how == "range-for-inline") {
        what = "range-for over an unordered container";
      } else {
        const auto it = visible.find(use.name);
        if (it == visible.end() || it->second != "unordered") continue;
        what = use.how == "begin"
                   ? "iterator walk over unordered container '" + use.name +
                         "'"
                   : "range-for over unordered container '" + use.name + "'";
      }
      diags.push_back(
          {file.path, use.line, "no-unordered-iteration",
           what +
               " in a trace-affecting module: the iteration order is "
               "implementation-defined and leaks into traces; iterate a "
               "sorted/stable sequence instead (docs/PERFORMANCE.md, "
               "\"Determinism\")"});
    }
  }
}

void rule_no_pointer_order_compares(const SemanticIndex& index,
                                    const Config& config,
                                    std::vector<Diagnostic>& diags) {
  std::map<std::string, const FileIndex*> by_path;
  for (const FileIndex& file : index.files) by_path[file.path] = &file;
  for (const FileIndex& file : index.files) {
    if (!is_trace_affecting(file.path, file.module, config)) continue;
    if (file.compares.empty()) continue;
    const std::map<std::string, std::string> visible =
        visible_decls(by_path, file);
    for (const CompareUse& cmp : file.compares) {
      const auto lhs = visible.find(cmp.lhs);
      const auto rhs = visible.find(cmp.rhs);
      if (lhs == visible.end() || lhs->second != "pointer") continue;
      if (rhs == visible.end() || rhs->second != "pointer") continue;
      diags.push_back(
          {file.path, cmp.line, "no-pointer-order",
           "relational comparison of raw pointers '" + cmp.lhs + "' and '" +
               cmp.rhs +
               "' orders by address, which changes run to run; compare "
               "NodeIds or stable indices instead"});
    }
  }
}

void rule_layer_dag(const SemanticIndex& index, const Config& config,
                    std::vector<Diagnostic>& diags) {
  if (config.modules.empty()) return;

  std::map<std::string, const ModuleSpec*> specs;
  for (const ModuleSpec& spec : config.modules) specs[spec.name] = &spec;

  // The declared graph itself must be a DAG (deps on undeclared modules are
  // ignored: they cannot form a cycle inside the declared graph).
  {
    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
    std::vector<std::string> stack;
    std::set<std::string> reported;
    const auto dfs = [&](const auto& self, const std::string& module) -> void {
      color[module] = 1;
      stack.push_back(module);
      const auto it = specs.find(module);
      if (it != specs.end()) {
        for (const std::string& dep : it->second->deps) {
          if (specs.count(dep) == 0) continue;
          if (color[dep] == 1) {
            std::string cycle;
            bool in_cycle = false;
            for (const std::string& node : stack) {
              if (node == dep) in_cycle = true;
              if (in_cycle) cycle += node + " -> ";
            }
            cycle += dep;
            if (reported.insert(cycle).second) {
              diags.push_back(
                  {"<layering>", 0, "layer-dag",
                   "declared module graph has a cycle: " + cycle +
                       "; Config::modules must be a DAG"});
            }
          } else if (color[dep] == 0) {
            self(self, dep);
          }
        }
      }
      color[module] = 2;
      stack.pop_back();
    };
    for (const ModuleSpec& spec : config.modules) {
      if (color[spec.name] == 0) dfs(dfs, spec.name);
    }
    if (!reported.empty()) return;  // edge checks would be noise
  }

  std::map<std::string, const FileIndex*> by_path;
  for (const FileIndex& file : index.files) by_path[file.path] = &file;

  // Cross-module includes must follow declared edges.
  for (const FileIndex& file : index.files) {
    const auto spec_it = specs.find(file.module);
    if (spec_it == specs.end()) continue;
    const ModuleSpec& spec = *spec_it->second;
    for (const IncludeEdge& edge : file.includes) {
      if (edge.resolved.empty()) continue;
      const auto target_it = by_path.find(edge.resolved);
      if (target_it == by_path.end()) continue;
      const std::string& target_module = target_it->second->module;
      if (target_module.empty() || target_module == file.module) continue;
      if (specs.count(target_module) == 0) continue;
      if (std::find(spec.deps.begin(), spec.deps.end(), target_module) !=
          spec.deps.end()) {
        continue;
      }
      std::string deps;
      for (const std::string& dep : spec.deps) {
        deps += (deps.empty() ? "" : ", ") + dep;
      }
      diags.push_back(
          {file.path, edge.line, "layer-dag",
           "include of \"" + edge.written + "\" crosses the layering: module "
               "'" + file.module + "' does not declare a dependency on '" +
               target_module + "' (declared deps: " +
               (deps.empty() ? "none" : deps) + "); see docs/CHECKING.md"});
    }
  }

  // File-level include cycles (within the scanned set).
  {
    std::map<std::string, int> color;
    std::vector<std::string> stack;
    std::set<std::string> reported;
    const auto dfs = [&](const auto& self, const FileIndex& file) -> void {
      color[file.path] = 1;
      stack.push_back(file.path);
      for (const IncludeEdge& edge : file.includes) {
        if (edge.resolved.empty()) continue;
        const auto it = by_path.find(edge.resolved);
        if (it == by_path.end()) continue;
        const int c = color[edge.resolved];
        if (c == 1) {
          std::string cycle;
          bool in_cycle = false;
          for (const std::string& node : stack) {
            if (node == edge.resolved) in_cycle = true;
            if (in_cycle) cycle += node + " -> ";
          }
          cycle += edge.resolved;
          // DFS colors guarantee each loop is discovered once; the set only
          // guards against the same back edge appearing twice in a file.
          if (reported.insert(cycle).second) {
            diags.push_back({file.path, edge.line, "layer-dag",
                             "include cycle: " + cycle});
          }
        } else if (c == 0) {
          self(self, *it->second);
        }
      }
      color[file.path] = 2;
      stack.pop_back();
    };
    for (const FileIndex& file : index.files) {
      if (color[file.path] == 0) dfs(dfs, file);
    }
  }
}

}  // namespace

std::vector<Diagnostic> Linter::run() {
  // Phase 1: lex and distill every registered file.
  index_ = SemanticIndex{};
  for (const auto& [path, content] : pending_) {
    index_.files.push_back(analyze_file(path, content, config_));
  }
  std::sort(index_.files.begin(), index_.files.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.path < b.path;
            });
  resolve_includes(index_);

  // Phase 2: a pure function of (index, config).
  std::vector<Diagnostic> diags;
  for (const FileIndex& file : index_.files) {
    for (const Diagnostic& diag : file.diagnostics) {
      if (rule_enabled(diag.rule)) diags.push_back(diag);
    }
  }

  if (rule_enabled("no-unordered-iteration")) {
    rule_no_unordered_iteration(index_, config_, diags);
  }
  if (rule_enabled("no-pointer-order")) {
    rule_no_pointer_order_compares(index_, config_, diags);
  }
  if (rule_enabled("layer-dag")) rule_layer_dag(index_, config_, diags);

  if (rule_enabled("message-type-registry")) {
    std::set<std::string> named;
    for (const FileIndex& file : index_.files) {
      named.insert(file.named_cases.begin(), file.named_cases.end());
    }
    for (const FileIndex& file : index_.files) {
      if (!in_src(file.path)) continue;
      for (const EnumeratorFact& decl : file.enumerators) {
        if (named.count(decl.name) != 0) continue;
        diags.push_back(
            {file.path, decl.line, "message-type-registry",
             "enumerator '" + decl.name + "' of " + decl.enum_name +
                 " has no trace-name entry; add `case " + decl.name +
                 ": return \"...\";` to the protocol's *_message_name "
                 "switch"});
      }
    }
  }

  if (rule_enabled("metric-doc-sync") && !config_.observability_doc.empty()) {
    const std::vector<std::string> tokens =
        doc_tokens(config_.observability_doc);
    for (const FileIndex& file : index_.files) {
      // src/obs/ is the recording mechanism, not a call site.
      if (!in_src(file.path) ||
          std::string_view(file.path).starts_with("src/obs/")) {
        continue;
      }
      for (const MetricFact& use : file.metric_uses) {
        if (metric_documented(use.name, tokens)) continue;
        diags.push_back({file.path, use.line, "metric-doc-sync",
                         "metric name \"" + use.name +
                             "\" is not documented in " +
                             config_.observability_doc_name +
                             " (add it to the metric registry table)"});
      }
    }
  }

  // Apply `wcds-lint: allow(...)` suppressions from the index.
  std::map<std::string, std::map<int, std::set<std::string>>> allows;
  for (const FileIndex& file : index_.files) {
    for (const LineAllow& allow : file.allows) {
      allows[file.path][allow.line].insert(allow.rules.begin(),
                                           allow.rules.end());
    }
  }
  std::vector<Diagnostic> kept;
  kept.reserve(diags.size());
  for (Diagnostic& diag : diags) {
    bool suppressed = false;
    const auto file_it = allows.find(diag.file);
    if (file_it != allows.end()) {
      const auto line_it = file_it->second.find(diag.line);
      if (line_it != file_it->second.end()) {
        suppressed = line_it->second.count(diag.rule) != 0 ||
                     line_it->second.count("all") != 0;
      }
    }
    if (!suppressed) kept.push_back(std::move(diag));
  }

  std::sort(kept.begin(), kept.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  return kept;
}

}  // namespace wcds::lint
