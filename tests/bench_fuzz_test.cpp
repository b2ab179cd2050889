// Seeded mutation fuzz of the two on-disk readers.
//
// The .bench reader: untrusted netlists must fail with a typed error,
// never crash or leak another exception type.
//
// Each mutant is the s5378 stand-in's .bench text with a few seeded edits,
// either byte-level (overwrite / insert / delete one byte, biased toward
// the format's punctuation) or line-level (drop, duplicate, swap or cut a
// line; retype a gate; rewire one fanin to another signal).  Every
// mutant goes through parse_bench_string:
//   * a rejection must be a circuit::BenchParseError;
//   * an accepted mutant is a valid netlist, so a bounded sample of them
//     must also simulate: the parallel Time Warp run commits exactly the
//     sequential reference's results under two partitioning strategies.
// The stream's verdicts (accepted, or rejected at line N with message M)
// are pinned as a digest, so a parser rewrite that shifts the accepted
// language or an error's line or wording shows up here.
//
// The partition-cache loader: a `.part` file written by
// partition_cache_store, corrupted by seeded byte- and line-level edits
// (including out-of-range and malformed node numbers), must load as
// either a miss or exactly the stored assignment — never another one,
// never throw, never crash.
//
// Each mutant stream is a pure function of its seed, so a failure
// reproduces by its mutant index.

#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/bench_io.hpp"
#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "framework/partition_cache.hpp"
#include "logicsim/equivalence.hpp"
#include "util/rng.hpp"

namespace pls {
namespace {

constexpr std::uint64_t kFuzzSeed = 0x5378F022;
constexpr int kMutants = 600;
constexpr int kMaxSimulated = 4;  ///< accepted mutants run end to end

/// FNV-1a over every mutant's verdict line (see verdict_line), recorded
/// from the getline-based parser this stream first pinned.
constexpr std::uint64_t kVerdictDigest = 0xb7ade4c86a4b30d0;
constexpr int kExpectedAccepted = 87;

const std::string& s5378_text() {
  static const std::string text =
      circuit::write_bench_string(circuit::make_iscas_like("s5378"));
  return text;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// A byte that is likely to matter to the grammar, or any byte at all.
char fuzz_byte(util::Rng& rng) {
  static constexpr char kInteresting[] = "()=,# \t\r\nGANDORXTBUFINPS0123456789";
  if (rng.chance(0.25)) return static_cast<char>(rng.below(256));
  return kInteresting[rng.below(sizeof(kInteresting) - 1)];
}

void mutate_bytes(std::string& text, util::Rng& rng) {
  if (text.empty()) {
    text.push_back(fuzz_byte(rng));
    return;
  }
  const std::size_t at = rng.below(text.size());
  switch (rng.below(3)) {
    case 0: text[at] = fuzz_byte(rng); break;
    case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                        fuzz_byte(rng)); break;
    default: text.erase(at, 1); break;
  }
}

/// The gate definitions' line indices ("name = TYPE(...)").
std::vector<std::size_t> gate_lines(const std::vector<std::string>& lines) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find('=') != std::string::npos) out.push_back(i);
  }
  return out;
}

void mutate_lines(std::vector<std::string>& lines, util::Rng& rng) {
  if (lines.empty()) return;
  const std::size_t at = rng.below(lines.size());
  const std::vector<std::size_t> gates = gate_lines(lines);
  switch (rng.below(6)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[rng.below(lines.size())]);
      break;
    case 2:
      std::swap(lines[at], lines[rng.below(lines.size())]);
      break;
    case 3:
      lines[at].resize(rng.below(lines[at].size() + 1));
      break;
    case 4: {  // retype a gate
      if (gates.empty()) break;
      static const char* const kTypes[] = {"AND", "NAND", "OR", "NOR", "XOR",
                                           "XNOR", "NOT", "BUF", "DFF"};
      std::string& g = lines[gates[rng.below(gates.size())]];
      const std::size_t eq = g.find('=');
      const std::size_t lp = g.find('(');
      if (lp == std::string::npos || lp < eq) break;
      g = g.substr(0, eq + 1) + " " + kTypes[rng.below(9)] + g.substr(lp);
      break;
    }
    default: {  // rewire a fanin to another gate's output
      if (gates.size() < 2) break;
      std::string& g = lines[gates[rng.below(gates.size())]];
      const std::string& src = lines[gates[rng.below(gates.size())]];
      const std::string donor = src.substr(0, src.find(' '));
      const std::size_t lp = g.find('(');
      const std::size_t end = g.find_first_of(",)", lp);
      if (lp == std::string::npos || end == std::string::npos) break;
      g = g.substr(0, lp + 1) + donor + g.substr(end);
      break;
    }
  }
}

std::string make_mutant(const std::string& base, util::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.below(3));
  if (rng.chance(0.5)) {
    std::string text = base;
    for (int e = 0; e < edits; ++e) mutate_bytes(text, rng);
    return text;
  }
  std::vector<std::string> lines = split_lines(base);
  for (int e = 0; e < edits; ++e) mutate_lines(lines, rng);
  return join_lines(lines);
}

/// "ok", or the rejection's line and message.  A netlist-validation
/// failure keeps only the check's own text, not the file:line of the
/// PLS_CHECK that raised it, so moving code does not move the digest.
std::string verdict_line(int m, const circuit::BenchParseError* err) {
  std::string v = std::to_string(m) + ' ';
  if (err == nullptr) return v + "ok";
  static const std::string kDash = " \u2014 ";  // check_failed's separator
  std::string what = err->what();
  if (const auto at = what.find("check failed: ("); at != std::string::npos) {
    const auto dash = what.find(kDash, at);
    what.erase(at, dash == std::string::npos ? std::string::npos
                                             : dash + kDash.size() - at);
  }
  return v + std::to_string(err->line()) + ' ' + what;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

framework::DriverConfig sim_config(const char* partitioner) {
  framework::DriverConfig cfg;
  cfg.partitioner = partitioner;
  cfg.num_nodes = 2;
  cfg.end_time = 300;
  cfg.event_cost_ns = 0;
  cfg.send_overhead_ns = 0;
  cfg.latency_ns = 1000;
  cfg.gvt_interval_us = 500;
  return cfg;
}

TEST(BenchFuzz, MutantsAreRejectedWithTypedErrorsOrSimulateEquivalently) {
  const std::string& base = s5378_text();
  util::Rng rng(kFuzzSeed);
  int rejected = 0;
  int accepted = 0;
  int simulated = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (int m = 0; m < kMutants; ++m) {
    const std::string text = make_mutant(base, rng);
    circuit::Circuit c;
    try {
      c = circuit::parse_bench_string(text, "mutant");
    } catch (const circuit::BenchParseError& e) {
      digest = fnv1a(digest, verdict_line(m, &e) + '\n');
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " rejected with an untyped error: "
                    << e.what();
      continue;
    }
    digest = fnv1a(digest, verdict_line(m, nullptr) + '\n');
    ++accepted;
    if (text == base || simulated >= kMaxSimulated) continue;
    ++simulated;
    for (const char* strategy : {"Multilevel", "Random"}) {
      const framework::DriverConfig cfg = sim_config(strategy);
      const auto par = framework::run_parallel(c, cfg);
      const auto seq = framework::run_sequential(c, cfg);
      const auto rep = logicsim::check_equivalence(par.run, seq);
      EXPECT_TRUE(rep.ok()) << "mutant " << m << " under " << strategy
                            << ": " << rep.describe();
    }
  }
  std::printf("%d mutants: %d rejected, %d accepted, %d simulated, "
              "verdict digest 0x%016llx\n",
              kMutants, rejected, accepted, simulated,
              static_cast<unsigned long long>(digest));
  EXPECT_EQ(accepted, kExpectedAccepted);
  EXPECT_EQ(digest, kVerdictDigest)
      << "the accepted language or an error line/message changed";
  // The stream must exercise both outcomes, or the test proves nothing.
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_EQ(simulated, kMaxSimulated) << accepted << " mutants accepted";
}

// ---- partition-cache loader ------------------------------------------------

constexpr std::uint64_t kCacheFuzzSeed = 0x9A27F022;
constexpr int kCacheMutants = 500;

char part_byte(util::Rng& rng) {
  static constexpr char kInteresting[] = "0123456789abcdefx -+\n\t";
  if (rng.chance(0.25)) return static_cast<char>(rng.below(256));
  return kInteresting[rng.below(sizeof(kInteresting) - 1)];
}

/// Line edits: drop, duplicate, swap or cut a line, or overwrite one
/// whitespace-separated token with a node number that is in range, out of
/// range, negative or too wide for 32 bits.
void mutate_part_lines(std::vector<std::string>& lines, util::Rng& rng) {
  if (lines.empty()) return;
  const std::size_t at = rng.below(lines.size());
  switch (rng.below(5)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[rng.below(lines.size())]);
      break;
    case 2:
      std::swap(lines[at], lines[rng.below(lines.size())]);
      break;
    case 3:
      lines[at].resize(rng.below(lines[at].size() + 1));
      break;
    default: {
      static const char* const kNumbers[] = {"0", "3", "4", "7", "-1",
                                             "4294967295", "4294967296",
                                             "99999999999999999999", "1e3"};
      std::string& l = lines[at];
      std::size_t begin = rng.below(l.size() + 1);
      while (begin > 0 && l[begin - 1] != ' ') --begin;
      std::size_t end = l.find(' ', begin);
      if (end == std::string::npos) end = l.size();
      l = l.substr(0, begin) + kNumbers[rng.below(9)] + l.substr(end);
      break;
    }
  }
}

TEST(PartitionCacheFuzz, CorruptFilesLoadAsMissOrValidAssignment) {
  constexpr std::uint32_t k = 4;
  constexpr std::size_t n = 300;
  constexpr std::uint64_t key = 0x5eed5eed;
  util::Rng rng(kCacheFuzzSeed);
  partition::Partition p;
  p.k = k;
  for (std::size_t i = 0; i < n; ++i) {
    p.assign.push_back(static_cast<std::uint32_t>(rng.below(k)));
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pls_pcache_fuzz";
  std::filesystem::remove_all(dir);
  framework::partition_cache_store(dir.string(), key, p);
  const auto files = std::filesystem::directory_iterator(dir);
  const std::filesystem::path file = std::filesystem::begin(files)->path();
  std::string base;
  {
    std::ifstream in(file);
    base.assign(std::istreambuf_iterator<char>(in), {});
  }
  partition::Partition loaded;
  ASSERT_TRUE(framework::partition_cache_load(dir.string(), key, k, n,
                                              &loaded));
  ASSERT_EQ(loaded.assign, p.assign);

  int hits = 0;
  int misses = 0;
  for (int m = 0; m < kCacheMutants; ++m) {
    std::string text = base;
    const int edits = 1 + static_cast<int>(rng.below(3));
    if (rng.chance(0.5)) {
      for (int e = 0; e < edits; ++e) {
        const std::size_t at = rng.below(text.size() + 1);
        switch (rng.below(3)) {
          case 0:
            if (at < text.size()) text[at] = part_byte(rng);
            break;
          case 1:
            text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                        part_byte(rng));
            break;
          default:
            if (at < text.size()) text.erase(at, 1);
            break;
        }
      }
    } else {
      std::vector<std::string> lines = split_lines(text);
      for (int e = 0; e < edits; ++e) mutate_part_lines(lines, rng);
      text = join_lines(lines);
    }
    {
      std::ofstream out(file, std::ios::trunc | std::ios::binary);
      out << text;
    }
    partition::Partition got;
    try {
      if (!framework::partition_cache_load(dir.string(), key, k, n, &got)) {
        ++misses;
        continue;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " threw: " << e.what();
      continue;
    }
    ++hits;
    EXPECT_EQ(got.k, k) << "mutant " << m;
    // The header's content hash turns any other assignment into a miss.
    ASSERT_EQ(got.assign, p.assign) << "mutant " << m;
  }
  std::filesystem::remove_all(dir);
  std::printf("%d cache mutants: %d misses, %d hits\n", kCacheMutants,
              misses, hits);
  // Both outcomes must occur, or the stream proves nothing.
  EXPECT_GT(misses, kCacheMutants / 4);
  EXPECT_GT(hits, 0);
}

}  // namespace
}  // namespace pls
