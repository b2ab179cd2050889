// Unit tests for the util layer: RNG determinism and distribution, running
// statistics, CSV escaping, CLI parsing, table rendering, spin calibration,
// the name index.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/name_index.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pls::util {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowZeroOrOneBoundIsZero) {
  Rng r(9);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(13);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen |= (v == -3);
    hi_seen |= (v == 3);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(17);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(19);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // Child stream should not replicate the parent stream.
  Rng b(21);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(SplitMix64, KnownFirstValueIsStable) {
  SplitMix64 s(0);
  const auto v1 = s.next();
  SplitMix64 t(0);
  EXPECT_EQ(v1, t.next());
  EXPECT_NE(v1, t.next());
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesCombinedStream) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7 - 3;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Samples, PercentileOfEmptyThrows) {
  Samples s;
  EXPECT_THROW(s.percentile(50), CheckError);
}

TEST(Samples, MeanStdDev) {
  Samples s;
  s.add(1);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0, 10, 5);
  h.add(-1);   // clamps to first
  h.add(0.5);
  h.add(9.9);
  h.add(42);   // clamps to last
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(4), 10.0);
  EXPECT_FALSE(h.ascii().empty());
}

TEST(Histogram, RejectsEmptyRange) {
  EXPECT_THROW(Histogram(1, 1, 4), CheckError);
  EXPECT_THROW(Histogram(0, 1, 0), CheckError);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/pls_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"1", "x,y"});
    w.row({"2", "z"});
    w.flush();
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter w("/tmp/pls_csv_test2.csv", {"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), CheckError);
  std::remove("/tmp/pls_csv_test2.csv");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  Cli cli("test");
  cli.add_flag("nodes", "node count", "4");
  cli.add_flag("verbose", "chatty", "false");
  cli.add_flag("name", "a name", "def");
  const char* argv[] = {"prog", "--nodes=8", "--verbose", "pos1",
                        "--name", "abc", "pos2"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(cli.get_int("nodes"), 8);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get("name"), "abc");
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, UnknownFlagFails) {
  Cli cli("test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, DefaultsApply) {
  Cli cli("test");
  cli.add_flag("n", "count", "17");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 17);
}

TEST(Cli, BadIntegerThrows) {
  Cli cli("test");
  cli.add_flag("n", "count", "17");
  const char* argv[] = {"prog", "--n=notanumber"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW(cli.get_int("n"), std::runtime_error);
}

TEST(Table, RendersAlignedGrid) {
  AsciiTable t({"circuit", "time"});
  t.add_row({"s5378", "91.66"});
  t.add_rule();
  t.add_row({"s9234", "529.39"});
  const std::string out = t.render();
  EXPECT_NE(out.find("s5378"), std::string::npos);
  EXPECT_NE(out.find("| circuit |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumFormatsAndNaN) {
  EXPECT_EQ(AsciiTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(AsciiTable::num(std::nan(""), 2), "-");
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), CheckError);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  busy_spin_ns(2'000'000);  // 2 ms
  const double e = t.elapsed_seconds();
  EXPECT_GT(e, 0.0005);
  EXPECT_LT(e, 0.5);
}

TEST(Timer, SpinCalibrationIsSane) {
  // Any machine this runs on executes between 0.05 and 100 iterations/ns.
  EXPECT_GT(spin_iters_per_ns(), 0.05);
  EXPECT_LT(spin_iters_per_ns(), 100.0);
}

TEST(Timer, SpinDurationApproximatesRequest) {
  busy_spin_ns(1000);  // warm
  WallTimer t;
  busy_spin_ns(5'000'000);
  const double e = t.elapsed_seconds();
  EXPECT_GT(e, 0.002);
  EXPECT_LT(e, 0.1);
}

TEST(Check, ThrowsWithMessage) {
  try {
    PLS_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"),
              std::string::npos);
  }
}

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(PLS_CHECK(2 + 2 == 4));
}

TEST(Log, FormatLineWithoutTimestamps) {
  EXPECT_EQ(detail::format_line(LogLevel::kInfo, "hello", false, 99.0,
                                "node3"),
            "[pls INFO ] hello");
}

TEST(Log, FormatLineWithTimestampsAndTag) {
  EXPECT_EQ(detail::format_line(LogLevel::kWarn, "msg", true, 1.5, "node3"),
            "[pls WARN  +1.500s node3] msg");
  // No tag set: the offset still appears, no trailing tag.
  EXPECT_EQ(detail::format_line(LogLevel::kError, "boom", true, 0.0, ""),
            "[pls ERROR +0.000s] boom");
}

TEST(Log, TimestampToggleRoundTrips) {
  const bool before = log_timestamps();
  set_log_timestamps(true);
  EXPECT_TRUE(log_timestamps());
  set_log_timestamps(false);
  EXPECT_FALSE(log_timestamps());
  set_log_timestamps(before);
}

TEST(NameIndex, FindsEveryNameAcrossGrowthAndKeepsTheFirstId) {
  std::vector<std::string> names;
  const auto key_of = [&](std::uint32_t id) -> std::string_view {
    return names[id];
  };
  NameIndex index;
  EXPECT_EQ(index.find("g0", key_of), NameIndex::kNone);  // empty table
  constexpr std::uint32_t kNames = 5000;  // many doublings from 16 slots
  for (std::uint32_t i = 0; i < kNames; ++i) {
    names.push_back("g" + std::to_string(i));
    ASSERT_EQ(index.insert(i, key_of), i);
  }
  EXPECT_EQ(index.size(), kNames);
  for (std::uint32_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(index.find(names[i], key_of), i);
  }
  EXPECT_EQ(index.find("g5000", key_of), NameIndex::kNone);
  EXPECT_EQ(index.find("", key_of), NameIndex::kNone);
  // A repeated name resolves to the id stored first; nothing is added.
  names.push_back("g17");
  EXPECT_EQ(index.insert(kNames, key_of), 17u);
  EXPECT_EQ(index.size(), kNames);
}

}  // namespace
}  // namespace pls::util
