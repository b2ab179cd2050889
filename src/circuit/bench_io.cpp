#include "circuit/bench_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/name_index.hpp"

namespace pls::circuit {
namespace {

// Whitespace test with '\r' spelled out: ISCAS archives ship CRLF .bench
// files, so every line may end in a carriage return and the stripping here
// is load-bearing.  An explicit list keeps the guarantee independent of
// any setlocale() and of char-sign UB.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

std::string_view strip(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

char ascii_upper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

std::string upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ascii_upper(c);
  return out;
}

/// Case-insensitive match against an upper-case keyword.
bool is_keyword(std::string_view s, std::string_view kw) {
  if (s.size() != kw.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (ascii_upper(s[i]) != kw[i]) return false;
  }
  return true;
}

std::optional<GateType> gate_type_from(std::string_view kw) {
  static constexpr std::pair<std::string_view, GateType> kTypes[] = {
      {"AND", GateType::kAnd},   {"NAND", GateType::kNand},
      {"OR", GateType::kOr},     {"NOR", GateType::kNor},
      {"XOR", GateType::kXor},   {"XNOR", GateType::kXnor},
      {"NOT", GateType::kNot},   {"INV", GateType::kNot},
      {"BUF", GateType::kBuf},   {"BUFF", GateType::kBuf},
      {"DFF", GateType::kDff},   {"FF", GateType::kDff},
  };
  for (const auto& [name, type] : kTypes) {
    if (is_keyword(kw, name)) return type;
  }
  return std::nullopt;
}

/// One pass over the text.  Every distinct signal name is a *symbol*,
/// numbered by first appearance and held as a view into the text; the
/// declarations refer to symbols.  Gate ids are fixed once the text is
/// read — inputs first, then gates, each in declaration order — and the
/// semantic checks then run in the order that makes the first error
/// reported the same whatever order the lines come in.
class BenchReader {
 public:
  Circuit read(std::string_view text, const std::string& name) {
    int lineno = 0;
    for (std::size_t pos = 0; pos < text.size();) {
      std::size_t nl = text.find('\n', pos);
      if (nl == std::string_view::npos) nl = text.size();
      std::string_view line = text.substr(pos, nl - pos);
      pos = nl + 1;
      ++lineno;
      // Strip comments ('#' to end of line) and whitespace.
      line = strip(line.substr(0, line.find('#')));
      if (!line.empty()) read_line(line, lineno);
    }
    return build(name);
  }

 private:
  struct Symbol {
    std::string_view name;
    std::int32_t input = -1;  ///< first INPUT declaring it
    std::int32_t gate = -1;   ///< first gate defining it
  };
  struct GateDecl {
    std::uint32_t sym;
    GateType type;
    int line;
    std::uint32_t fanin_end;  ///< fanins_[previous fanin_end, fanin_end)
  };

  std::uint32_t intern(std::string_view name) {
    const auto id = static_cast<std::uint32_t>(syms_.size());
    syms_.push_back({name});
    const std::uint32_t got = index_.insert(
        id, [this](std::uint32_t s) { return syms_[s].name; });
    if (got != id) syms_.pop_back();
    return got;
  }

  void read_line(std::string_view line, int lineno) {
    constexpr auto npos = std::string_view::npos;
    const auto lparen = line.find('(');
    const auto rparen = line.rfind(')');
    const auto eq = line.find('=');
    // Text after the last ')' is ignored (a leniency, see bench_io.hpp).

    if (eq == npos) {
      // INPUT(x) or OUTPUT(x)
      if (lparen == npos || rparen == npos || rparen < lparen) {
        throw BenchParseError(lineno, "expected INPUT(name) or OUTPUT(name)");
      }
      const std::string_view kw = strip(line.substr(0, lparen));
      const std::string_view arg =
          strip(line.substr(lparen + 1, rparen - lparen - 1));
      if (arg.empty()) throw BenchParseError(lineno, "empty signal name");
      if (is_keyword(kw, "INPUT")) {
        const std::uint32_t s = intern(arg);
        if (syms_[s].input < 0) {
          syms_[s].input = static_cast<std::int32_t>(inputs_.size());
        } else if (dup_input_ == kNone) {
          dup_input_ = s;
        }
        inputs_.push_back(s);
      } else if (is_keyword(kw, "OUTPUT")) {
        outputs_.push_back(intern(arg));
      } else {
        throw BenchParseError(lineno,
                              "unknown declaration '" + upper(kw) + "'");
      }
      return;
    }

    // name = TYPE(a, b, ...)
    if (lparen == npos || rparen == npos || rparen < lparen || lparen < eq) {
      throw BenchParseError(lineno, "expected name = TYPE(a, b, ...)");
    }
    const std::string_view gname = strip(line.substr(0, eq));
    if (gname.empty()) throw BenchParseError(lineno, "empty gate name");
    const std::string_view kw = strip(line.substr(eq + 1, lparen - eq - 1));
    const auto type = gate_type_from(kw);
    if (!type) {
      // BenchParseError prefixes the line number; name the gate too so a
      // bad line in a 10k-line netlist is findable either way.
      throw BenchParseError(lineno, "unknown gate type '" + std::string(kw) +
                                        "' for gate '" + std::string(gname) +
                                        "'");
    }
    // Comma-separated fanins.  A comma that ends the list is ignored (a
    // leniency, see bench_io.hpp); any other empty field is an error.
    const std::string_view args = line.substr(lparen + 1, rparen - lparen - 1);
    const std::size_t first = fanins_.size();
    for (std::size_t at = 0; at < args.size();) {
      const std::size_t comma = std::min(args.find(',', at), args.size());
      const std::string_view fanin = strip(args.substr(at, comma - at));
      if (fanin.empty()) throw BenchParseError(lineno, "empty fanin name");
      fanins_.push_back(intern(fanin));
      at = comma + 1;
    }
    if (fanins_.size() == first) {
      throw BenchParseError(lineno, "gate '" + std::string(gname) +
                                        "' has no fanins");
    }
    const std::uint32_t s = intern(gname);
    if (syms_[s].gate < 0) {
      syms_[s].gate = static_cast<std::int32_t>(gates_.size());
    }
    gates_.push_back(
        {s, *type, lineno, static_cast<std::uint32_t>(fanins_.size())});
  }

  Circuit build(const std::string& name) {
    if (dup_input_ != kNone) {
      throw BenchParseError(0, "duplicate INPUT '" +
                                   std::string(syms_[dup_input_].name) + "'");
    }
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const Symbol& s = syms_[gates_[i].sym];
      if (s.input >= 0 || s.gate != static_cast<std::int32_t>(i)) {
        throw BenchParseError(gates_[i].line, "signal '" +
                                                  std::string(s.name) +
                                                  "' defined twice");
      }
    }
    // Symbol -> gate id; undefined symbols stay kInvalidGate.
    const auto num_inputs = static_cast<GateId>(inputs_.size());
    std::vector<GateId> id(syms_.size(), kInvalidGate);
    for (std::size_t s = 0; s < syms_.size(); ++s) {
      if (syms_[s].input >= 0) {
        id[s] = static_cast<GateId>(syms_[s].input);
      } else if (syms_[s].gate >= 0) {
        id[s] = num_inputs + static_cast<GateId>(syms_[s].gate);
      }
    }
    std::uint32_t f = 0;
    for (const GateDecl& g : gates_) {
      for (; f < g.fanin_end; ++f) {
        if (id[fanins_[f]] == kInvalidGate) {
          throw BenchParseError(
              g.line, "gate '" + std::string(syms_[g.sym].name) +
                          "' references undefined signal '" +
                          std::string(syms_[fanins_[f]].name) + "'");
        }
      }
    }
    for (std::uint32_t s : outputs_) {
      if (id[s] == kInvalidGate) {
        throw BenchParseError(0, "OUTPUT references undefined signal '" +
                                     std::string(syms_[s].name) + "'");
      }
    }

    Circuit c(name);
    c.reserve(inputs_.size() + gates_.size(), fanins_.size());
    for (std::uint32_t s : inputs_) c.add_input(syms_[s].name);
    for (const GateDecl& g : gates_) c.add_gate(syms_[g.sym].name, g.type);
    f = 0;
    for (const GateDecl& g : gates_) {
      const GateId gid = id[g.sym];
      for (; f < g.fanin_end; ++f) c.connect(gid, id[fanins_[f]]);
    }
    for (std::uint32_t s : outputs_) c.mark_output(id[s]);
    try {
      c.freeze();
    } catch (const util::CheckError& e) {
      throw BenchParseError(0, std::string("netlist invalid: ") + e.what());
    }
    return c;
  }

  std::vector<Symbol> syms_;
  util::NameIndex index_;  ///< name -> symbol
  std::vector<std::uint32_t> inputs_;   ///< symbols, declaration order
  std::vector<std::uint32_t> outputs_;  ///< symbols, declaration order
  std::vector<GateDecl> gates_;
  std::vector<std::uint32_t> fanins_;   ///< symbols, flat per gate
  static constexpr std::uint32_t kNone = util::NameIndex::kNone;
  std::uint32_t dup_input_ = kNone;  ///< symbol of the first repeated INPUT
};

}  // namespace

Circuit parse_bench_string(std::string_view text, const std::string& name) {
  return BenchReader().read(text, name);
}

Circuit parse_bench(std::istream& in, const std::string& name) {
  const std::string text(std::istreambuf_iterator<char>(in), {});
  return parse_bench_string(text, name);
}

Circuit parse_bench_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open .bench file: " + path);
  // Derive circuit name from filename (strip directories and extension).
  std::string name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return parse_bench(in, name);
}

void write_bench(std::ostream& out, const Circuit& c) {
  out << "# " << c.name() << " — written by parlogsim\n";
  out << "# " << c.primary_inputs().size() << " inputs, "
      << c.primary_outputs().size() << " outputs, " << c.flip_flops().size()
      << " flip-flops, " << c.num_combinational() << " combinational gates\n";
  for (GateId g : c.primary_inputs()) {
    out << "INPUT(" << c.gate_name(g) << ")\n";
  }
  for (GateId g : c.primary_outputs()) {
    out << "OUTPUT(" << c.gate_name(g) << ")\n";
  }
  out << '\n';
  for (GateId g = 0; g < c.size(); ++g) {
    if (c.type(g) == GateType::kInput) continue;
    out << c.gate_name(g) << " = " << to_string(c.type(g)) << '(';
    const auto fins = c.fanins(g);
    for (std::size_t i = 0; i < fins.size(); ++i) {
      if (i) out << ", ";
      out << c.gate_name(fins[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Circuit& c) {
  std::ostringstream os;
  write_bench(os, c);
  return os.str();
}

void write_bench_file(const std::string& path, const Circuit& c) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  write_bench(out, c);
}

}  // namespace pls::circuit
