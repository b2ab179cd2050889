#pragma once
// ISCAS'89 ".bench" netlist format reader/writer.
//
// The paper evaluates on ISCAS'89 circuits (s5378, s9234, s15850), which are
// distributed in this textual format:
//
//     # comment
//     INPUT(G0)
//     OUTPUT(G132)
//     G10 = NAND(G0, G1)
//     G11 = DFF(G10)
//
// The parser accepts the full published format: INPUT/OUTPUT declarations,
// n-ary AND/NAND/OR/NOR/XOR/XNOR, unary NOT/BUF/BUFF/DFF, case-insensitive
// keywords, forward references, comments and blank lines.  parse errors
// carry line numbers.  Two leniencies are part of the accepted language:
// a comma that ends a fanin list is ignored (`AND(a, b,)`), and so is any
// text after a line's last ')'.
//
// The reader makes one pass over the text with string_view tokens and a
// single name table, then assigns gate ids: inputs first, then gates, each
// in declaration order.

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "circuit/circuit.hpp"

namespace pls::circuit {

class BenchParseError : public std::runtime_error {
 public:
  BenchParseError(int line, const std::string& what)
      : std::runtime_error(".bench parse error at line " +
                           std::to_string(line) + ": " + what),
        line_(line) {}
  int line() const noexcept { return line_; }

 private:
  int line_;
};

/// Parse a .bench netlist from a stream / string / file.  The returned
/// circuit is frozen (validated, fanouts built).
Circuit parse_bench(std::istream& in, const std::string& name = "bench");
Circuit parse_bench_string(std::string_view text,
                           const std::string& name = "bench");
Circuit parse_bench_file(const std::string& path);

/// Serialize a circuit to .bench text.  write ∘ parse is the identity on
/// the netlist graph (names, types, connectivity, output markers).
void write_bench(std::ostream& out, const Circuit& c);
std::string write_bench_string(const Circuit& c);
void write_bench_file(const std::string& path, const Circuit& c);

}  // namespace pls::circuit
