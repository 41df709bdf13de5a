// Unit tests for src/common: bit utilities, RNG, statistics, string
// helpers, flags and errors.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutil.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "common/thread_pool.h"

namespace reese {
namespace {

// --- bitutil -----------------------------------------------------------------

TEST(BitUtil, SignExtendPositive) {
  EXPECT_EQ(sign_extend(0x7F, 8), 0x7F);
  EXPECT_EQ(sign_extend(0x1, 1), -1);
  EXPECT_EQ(sign_extend(0x0, 1), 0);
  EXPECT_EQ(sign_extend(0x1FFF, 14), 0x1FFF);
}

TEST(BitUtil, SignExtendNegative) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0x2000, 14), -8192);
  EXPECT_EQ(sign_extend(0x3FFF, 14), -1);
}

TEST(BitUtil, SignExtendFullWidth) {
  EXPECT_EQ(sign_extend(~u64{0}, 64), -1);
  EXPECT_EQ(sign_extend(u64{1} << 63, 64), INT64_MIN);
}

TEST(BitUtil, ExtractBits) {
  EXPECT_EQ(extract_bits(0xABCD, 0, 4), 0xDu);
  EXPECT_EQ(extract_bits(0xABCD, 4, 4), 0xCu);
  EXPECT_EQ(extract_bits(0xABCD, 8, 8), 0xABu);
  EXPECT_EQ(extract_bits(~u64{0}, 0, 64), ~u64{0});
}

TEST(BitUtil, FitsSigned) {
  EXPECT_TRUE(fits_signed(8191, 14));
  EXPECT_FALSE(fits_signed(8192, 14));
  EXPECT_TRUE(fits_signed(-8192, 14));
  EXPECT_FALSE(fits_signed(-8193, 14));
  EXPECT_TRUE(fits_signed(0, 1));
  EXPECT_TRUE(fits_signed(-1, 1));
  EXPECT_FALSE(fits_signed(1, 1));
}

TEST(BitUtil, FitsUnsigned) {
  EXPECT_TRUE(fits_unsigned(255, 8));
  EXPECT_FALSE(fits_unsigned(256, 8));
  EXPECT_TRUE(fits_unsigned(0, 1));
}

TEST(BitUtil, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(BitUtil, FlipBit) {
  EXPECT_EQ(flip_bit(0, 0), 1u);
  EXPECT_EQ(flip_bit(1, 0), 0u);
  EXPECT_EQ(flip_bit(0, 63), u64{1} << 63);
  // Flipping twice restores.
  EXPECT_EQ(flip_bit(flip_bit(0xDEADBEEF, 17), 17), 0xDEADBEEFu);
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicBySeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextRangeInclusive) {
  SplitMix64 rng(8);
  std::set<u64> seen;
  for (int i = 0; i < 1000; ++i) {
    const u64 v = rng.next_range(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, NextDoubleInUnitInterval) {
  SplitMix64 rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  SplitMix64 rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.next_bool(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ForkIndependence) {
  SplitMix64 parent(11);
  SplitMix64 child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(Rng, UniformityChiSquaredish) {
  SplitMix64 rng(12);
  int buckets[16] = {};
  const int n = 16000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(16)];
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 16, n / 16 / 4);  // within 25% of expectation
  }
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, SafeRatio) {
  EXPECT_DOUBLE_EQ(safe_ratio(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(safe_ratio(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(safe_ratio(0, 5), 0.0);
}

TEST(Stats, HistogramBasics) {
  Histogram h(1, 10);
  h.add(0);
  h.add(5);
  h.add(5);
  h.add(9);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 19u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.75);
  EXPECT_EQ(h.buckets()[5], 2u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Stats, HistogramOverflow) {
  Histogram h(1, 4);
  h.add(3);
  h.add(4);
  h.add(1000);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(Stats, HistogramBucketWidth) {
  Histogram h(10, 4);
  h.add(0);
  h.add(9);
  h.add(10);
  h.add(39);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Stats, HistogramPercentile) {
  Histogram h(1, 100);
  for (u64 i = 0; i < 100; ++i) h.add(i);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50.0, 2.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.95)), 95.0, 2.0);
  EXPECT_EQ(h.percentile(1.0), 99u);
}

TEST(Stats, HistogramEmpty) {
  Histogram h(1, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Stats, HistogramReset) {
  Histogram h(1, 4);
  h.add(2);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.buckets()[2], 0u);
}

TEST(Stats, HistogramToStringContainsLabel) {
  Histogram h(1, 4);
  h.add(1);
  EXPECT_NE(h.to_string("mylabel").find("mylabel"), std::string::npos);
}

TEST(Stats, RunningStat) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Stats, RunningStatNegative) {
  RunningStat s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
}

TEST(Stats, SpearmanPerfectMonotoneAndReversed) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  // Any monotone transform of xs has rho = 1 (rank, not value, based).
  EXPECT_DOUBLE_EQ(spearman_rank_correlation(xs, {10.0, 100.0, 1e3, 1e4}),
                   1.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation(xs, {9.0, 7.0, 5.0, 3.0}), -1.0);
}

TEST(Stats, SpearmanAveragesTiedRanks) {
  // xs ranks with the tie averaged: {1, 2.5, 2.5, 4}; the tie-corrected
  // rho against a strictly increasing ys is 4.5/sqrt(4.5*5) = 3/sqrt(10).
  const double rho = spearman_rank_correlation({1.0, 2.0, 2.0, 3.0},
                                               {1.0, 2.0, 3.0, 4.0});
  EXPECT_NEAR(rho, 3.0 / std::sqrt(10.0), 1e-12);
}

TEST(Stats, SpearmanDegenerateInputsReturnZero) {
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1.0}, {2.0}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1.0, 2.0}, {1.0}), 0.0);
  // A constant side has zero rank variance: correlation is undefined.
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({5.0, 5.0, 5.0}, {1.0, 2.0, 3.0}),
                   0.0);
}

// --- strutil ---------------------------------------------------------------------

TEST(StrUtil, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StrUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StrUtil, SplitWhitespace) {
  const auto parts = split_whitespace("  one\ttwo   three ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(StrUtil, ParseIntDecimal) {
  i64 v = 0;
  EXPECT_TRUE(parse_int("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(parse_int("-45", &v));
  EXPECT_EQ(v, -45);
  EXPECT_TRUE(parse_int("+7", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(parse_int("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(StrUtil, ParseIntHexBinary) {
  i64 v = 0;
  EXPECT_TRUE(parse_int("0xFF", &v));
  EXPECT_EQ(v, 255);
  EXPECT_TRUE(parse_int("0xdeadBEEF", &v));
  EXPECT_EQ(v, 0xDEADBEEF);
  EXPECT_TRUE(parse_int("-0x10", &v));
  EXPECT_EQ(v, -16);
  EXPECT_TRUE(parse_int("0b1010", &v));
  EXPECT_EQ(v, 10);
}

TEST(StrUtil, ParseIntRejectsGarbage) {
  i64 v = 0;
  EXPECT_FALSE(parse_int("", &v));
  EXPECT_FALSE(parse_int("abc", &v));
  EXPECT_FALSE(parse_int("12x", &v));
  EXPECT_FALSE(parse_int("0x", &v));
  EXPECT_FALSE(parse_int("-", &v));
  EXPECT_FALSE(parse_int("1 2", &v));
}

TEST(StrUtil, ParseIntBounds) {
  i64 v = 0;
  EXPECT_TRUE(parse_int("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(parse_int("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_FALSE(parse_int("9223372036854775808", &v));
  EXPECT_FALSE(parse_int("99999999999999999999999", &v));
  // Wraps past 2^64 in the multiply; the sum alone does not show it.
  EXPECT_FALSE(parse_int("82460000000000000000", &v));
}

TEST(StrUtil, ParseIntTrimsWhitespace) {
  i64 v = 0;
  EXPECT_TRUE(parse_int("  42  ", &v));
  EXPECT_EQ(v, 42);
}

TEST(StrUtil, Format) {
  EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
  const std::string long_arg(5000, 'q');
  EXPECT_EQ(format("<%s>", long_arg.c_str()), "<" + long_arg + ">");
}

TEST(StrUtil, ToLower) {
  EXPECT_EQ(to_lower("AbC"), "abc");
}

// --- flags -----------------------------------------------------------------------

// One binary's worth of flags covering every destination type. state()
// renders every destination plus the positionals as " key=value" tokens.
struct FlagFixture {
  bool verbose = false;
  bool reese = false;
  u32 ruu = 16;
  u64 seed = 0;
  i64 offset = 0;
  double rate = 0.0;
  std::string name;
  std::string resume;
  bool resumed = false;
  std::vector<std::string> workers;
  FlagParser parser;

  FlagFixture() {
    parser.add("-verbose", &verbose);
    parser.add("-reese", &reese);
    parser.add("-ruu", &ruu);
    parser.add("--seed", &seed);
    parser.add("-offset", &offset);
    parser.add("-rate", &rate);
    parser.add("-name", &name);
    parser.add("--resume-from", &resume, &resumed);
    parser.add("--worker", &workers);
    parser.accept_operands();
  }

  std::string state() const {
    std::string out = format(
        " verbose=%d reese=%d ruu=%u seed=%llu offset=%lld rate=%g name=%s"
        " resume=%s resumed=%d workers=",
        verbose, reese, ruu, static_cast<unsigned long long>(seed),
        static_cast<long long>(offset), rate, name.c_str(), resume.c_str(),
        resumed);
    for (const std::string& worker : workers) out += worker + ",";
    out += " pos=";
    for (const std::string& arg : parser.positional()) out += arg + ",";
    return out + " ";
  }
};

// A command line (without the program name) and what it must produce:
// `ok` cases list " key=value" tokens that state() must contain, error
// cases a substring of the error message.
struct FlagCase {
  std::vector<const char*> args;
  bool ok;
  std::string expect;
};

void check_flag_cases(const std::vector<FlagCase>& cases) {
  for (const FlagCase& c : cases) {
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), c.args.begin(), c.args.end());
    std::string line;
    for (const char* arg : c.args) line += std::string(arg) + " ";
    SCOPED_TRACE("argv: " + line);

    FlagFixture fixture;
    const Result<bool> parsed =
        fixture.parser.parse(static_cast<int>(argv.size()), argv.data());
    if (!c.ok) {
      ASSERT_FALSE(parsed.ok()) << fixture.state();
      EXPECT_NE(parsed.error().message.find(c.expect), std::string::npos)
          << parsed.error().message;
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const std::string state = fixture.state();
    for (std::string_view token : split_whitespace(c.expect)) {
      EXPECT_NE(state.find(" " + std::string(token) + " "), std::string::npos)
          << "missing " << token << " in" << state;
    }
  }
}

TEST(Flags, ParseSpaceSeparated) {
  check_flag_cases({
      {{"-ruu", "32", "-name", "li"}, true, "ruu=32 name=li"},
      // Both prefixes work for every flag, whichever one it is documented
      // with; unset flags keep their defaults.
      {{"--ruu", "8", "-seed", "7"}, true, "ruu=8 seed=7 rate=0 name="},
      {{}, true, "verbose=0 ruu=16 seed=0 pos="},
  });
}

TEST(Flags, ParseColonAndEquals) {
  check_flag_cases({
      {{"-ruu=64", "--name=li"}, true, "ruu=64 name=li"},
      {{"--seed=0x10", "-name=a=b"}, true, "seed=16 name=a=b"},
      {{"-name="}, true, "name="},
      // The SimpleScalar "-name:value" form is gone.
      {{"-ruu:64"}, false, "unknown flag -ruu:64"},
  });
}

TEST(Flags, BareFlagIsTrue) {
  check_flag_cases({
      {{"-verbose"}, true, "verbose=1"},
      {{"--verbose", "-reese"}, true, "verbose=1 reese=1"},
  });
}

TEST(Flags, BoolValues) {
  check_flag_cases({
      {{"-verbose", "true", "-reese", "0"}, true, "verbose=1 reese=0"},
      {{"-verbose", "on", "-reese", "YES"}, true, "verbose=1 reese=1"},
      {{"-verbose=off", "--reese=1"}, true, "verbose=0 reese=1"},
      {{"-verbose=maybe"}, false, "flag -verbose: 'maybe' is not a bool"},
  });
}

TEST(Flags, Positional) {
  check_flag_cases({
      {{"file.s", "-ruu", "1", "other"}, true, "ruu=1 pos=file.s,other,"},
      // A bool flag takes the next token only when it is a bool literal.
      {{"-reese", "1", "fib.s"}, true, "reese=1 pos=fib.s,"},
      {{"--verbose", "prog.srv"}, true, "verbose=1 pos=prog.srv,"},
      {{"-verbose", "2"}, true, "verbose=1 pos=2,"},
      // A lone dash is an operand (stdin).
      {{"submit", "-"}, true, "pos=submit,-,"},
  });
}

TEST(Flags, ParseFileMergesWithCommandLinePriority) {
  const std::string path = testing::TempDir() + "/reese_flags_test.cfg";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("# comment line\n-ruu 64   -rate 0.5\n-name li # trailing\n"
        "--worker file:1 extra.s\n",
        f);
  fclose(f);

  FlagFixture fixture;
  const char* argv[] = {"prog", "-ruu", "16", "--worker", "cli:1"};
  ASSERT_TRUE(fixture.parser.parse(5, argv).ok());
  ASSERT_TRUE(fixture.parser.parse_file(path).ok());
  EXPECT_EQ(fixture.ruu, 16u) << "command line must win";
  EXPECT_DOUBLE_EQ(fixture.rate, 0.5);
  EXPECT_EQ(fixture.name, "li");
  EXPECT_EQ(fixture.workers, std::vector<std::string>{"cli:1"});
  EXPECT_EQ(fixture.parser.positional(), std::vector<std::string>{"extra.s"});

  f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("-ruu 64 -bogus 1\n", f);
  fclose(f);
  FlagFixture bad;
  const Result<bool> parsed = bad.parser.parse_file(path);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find(path + ": unknown flag -bogus"),
            std::string::npos)
      << parsed.error().message;
}

TEST(Flags, ParseFileMissing) {
  FlagFixture fixture;
  EXPECT_FALSE(fixture.parser.parse_file("/nonexistent/definitely.cfg").ok());
}

TEST(Flags, DoubleParsing) {
  check_flag_cases({
      {{"-rate", "0.25"}, true, "rate=0.25"},
      {{"-rate", "1e-3"}, true, "rate=0.001"},
      {{"-rate", "abc"}, false, "flag -rate: 'abc' is not a number"},
      {{"-rate", "0.5x"}, false, "'0.5x' is not a number"},
  });
}

TEST(Flags, UnknownFlagNamesItAndListsAcceptedNames) {
  check_flag_cases({
      {{"-instrs", "5"},
       false,
       "unknown flag -instrs; accepted: -verbose -reese -ruu --seed -offset "
       "-rate -name --resume-from --worker"},
      {{"--bogus=1"}, false, "unknown flag --bogus;"},
  });
}

TEST(Flags, ValueFlagsAlwaysTakeTheNextToken) {
  check_flag_cases({
      {{"-offset", "-1"}, true, "offset=-1"},
      {{"-name", "-ruu"}, true, "name=-ruu ruu=16"},
      {{"-ruu"}, false, "flag -ruu needs a value"},
      {{"-verbose", "-name"}, false, "flag -name needs a value"},
  });
}

TEST(Flags, IntegersAreStrict) {
  check_flag_cases({
      {{"-ruu", "abc"}, false, "flag -ruu: 'abc' is not an integer"},
      {{"-ruu", "3e5"}, false, "'3e5' is not an integer"},
      {{"-ruu", "2x"}, false, "'2x' is not an integer"},
      {{"-ruu", " 5"}, false, "' 5' is not an integer"},
      {{"-ruu="}, false, "'' is not an integer"},
      {{"-ruu", "-1"}, false, "flag -ruu: '-1' is negative"},
      {{"-ruu", "4294967296"}, false, "'4294967296' is out of range"},
      {{"--seed", "99999999999999999999"}, false, "is out of range"},
      {{"-offset", "9223372036854775808"}, false, "is out of range"},
      {{"-offset", "-0x10"}, true, "offset=-16"},
  });
}

TEST(Flags, IntegersUseBaseZero) {
  check_flag_cases({
      {{"--seed", "0xDEADBEEFDEADBEEF"}, true, "seed=16045690984833335023"},
      {{"--seed", "0XFA17C0DE"}, true, "seed=4195860702"},
      {{"-ruu", "010"}, true, "ruu=8"},
      {{"-ruu", "08"}, false, "'08' is not an integer"},
  });
}

TEST(Flags, RepeatableFlagsAppendAndPresenceIsRecorded) {
  check_flag_cases({
      {{"--worker", "a:1", "-worker=b:2"}, true, "workers=a:1,b:2,"},
      {{"--resume-from", "ck"}, true, "resume=ck resumed=1"},
      {{"-name", "x"}, true, "resume= resumed=0"},
  });
}

TEST(Flags, OperandsAreErrorsUnlessAccepted) {
  u32 jobs = 0;
  FlagParser parser;
  parser.add("--jobs", &jobs);
  const char* argv[] = {"fig", "2", "--jobs", "3"};
  const Result<bool> parsed = parser.parse(4, argv);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().message, "unexpected argument '2'");
  EXPECT_EQ(jobs, 3u);
}

TEST(Flags, EveryTokenIsParsedAndTheFirstErrorReported) {
  FlagFixture fixture;
  const char* argv[] = {"prog", "--bogus", "-ruu", "x", "-name", "kept"};
  const Result<bool> parsed = fixture.parser.parse(6, argv);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("unknown flag --bogus"),
            std::string::npos);
  EXPECT_EQ(fixture.name, "kept");
}

TEST(Flags, EnvPositiveIsStrict) {
  constexpr const char* kVar = "REESE_FLAGS_TEST_VALUE";
  unsetenv(kVar);
  EXPECT_EQ(env_positive(kVar, 7), 7u);
  setenv(kVar, "12345", 1);
  EXPECT_EQ(env_positive(kVar, 7), 12345u);
  setenv(kVar, "0x10", 1);
  EXPECT_EQ(env_positive(kVar, 7), 16u);
  for (const char* bad : {"3e5", "2x", "0", "-5", " 8"}) {
    setenv(kVar, bad, 1);
    EXPECT_EQ(env_positive(kVar, 7), 7u) << bad;
  }
  unsetenv(kVar);
}

// --- error -----------------------------------------------------------------------

TEST(Error, Format) {
  const Error e = errorf("bad %s at %d", "thing", 9);
  EXPECT_EQ(e.message, "bad thing at 9");
  EXPECT_EQ(e.to_string(), "bad thing at 9");
}

TEST(Error, LinePrefix) {
  Error e{"oops", 12};
  EXPECT_EQ(e.to_string(), "line 12: oops");
}

TEST(Error, ResultHoldsValue) {
  Result<int> r = 5;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
}

TEST(Error, ResultHoldsError) {
  Result<int> r = Error{"no", 0};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "no");
}

TEST(Wilson, ZeroTrialsIsAllZero) {
  const WilsonInterval ci = wilson_interval(0, 0);
  EXPECT_EQ(ci.lower, 0.0);
  EXPECT_EQ(ci.center, 0.0);
  EXPECT_EQ(ci.upper, 0.0);
}

TEST(Wilson, FullSuccessLowerBoundIsNotOne) {
  // At p̂ = 1 the Wald interval collapses to [1, 1]; Wilson's lower bound
  // is n / (n + z²) — the honesty property the coverage claims rely on.
  const double z = 1.96;
  const WilsonInterval ci = wilson_interval(100, 100, z);
  EXPECT_NEAR(ci.lower, 100.0 / (100.0 + z * z), 1e-12);
  EXPECT_NEAR(ci.upper, 1.0, 1e-12);
  EXPECT_LT(ci.lower, 1.0);
}

TEST(Wilson, LowerBoundTightensWithSampleSize) {
  EXPECT_LT(wilson_interval(100, 100).lower, wilson_interval(1000, 1000).lower);
  EXPECT_LT(wilson_interval(1000, 1000).lower,
            wilson_interval(100'000, 100'000).lower);
  // The campaign acceptance bar: 10⁵ all-detected injections put the 95%
  // lower bound far above 99.9%.
  EXPECT_GT(wilson_interval(100'000, 100'000).lower, 0.999);
  // ...and ~4k is the minimum that clears it.
  EXPECT_GT(wilson_interval(4'000, 4'000).lower, 0.999);
  EXPECT_LT(wilson_interval(3'000, 3'000).lower, 0.999);
}

TEST(Wilson, ZeroSuccessesMirrorsFullSuccesses) {
  const WilsonInterval none = wilson_interval(0, 500);
  const WilsonInterval all = wilson_interval(500, 500);
  EXPECT_NEAR(none.lower, 0.0, 1e-12);
  EXPECT_NEAR(none.upper, 1.0 - all.lower, 1e-9);
  EXPECT_GT(none.upper, 0.0);
}

TEST(Wilson, IntervalContainsPointEstimate) {
  const WilsonInterval ci = wilson_interval(37, 120);
  const double p = 37.0 / 120.0;
  EXPECT_LT(ci.lower, p);
  EXPECT_GT(ci.upper, p);
  EXPECT_GT(ci.lower, 0.0);
  EXPECT_LT(ci.upper, 1.0);
}

TEST(Jobs, ResolveNeverReturnsZeroWorkers) {
  unsetenv("REESE_JOBS");
  const u32 hardware = resolve_job_count(0);
  EXPECT_GE(hardware, 1u);
  EXPECT_EQ(resolve_job_count(3), 3u);
  // An absurd request (a negative count cast through u32) means auto.
  EXPECT_EQ(resolve_job_count(kMaxJobRequest + 1), hardware);
  setenv("REESE_JOBS", "3", 1);
  EXPECT_EQ(resolve_job_count(0), 3u);
  // Malformed or out-of-range $REESE_JOBS warns and means hardware.
  for (const char* bad : {"2x", "0", "-3", "1025"}) {
    setenv("REESE_JOBS", bad, 1);
    EXPECT_EQ(resolve_job_count(0), hardware) << bad;
  }
  unsetenv("REESE_JOBS");
}

TEST(TaskQueue, RunsAdmittedTasksAndDrains) {
  std::atomic<int> ran{0};
  {
    TaskQueue queue(2, 8);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(queue.try_enqueue([&ran] { ++ran; }));
    }
    queue.drain();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_EQ(queue.queued(), 0u);
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(TaskQueue, RejectsBeyondCapacityWhileWorkerIsBusy) {
  std::mutex gate;
  gate.lock();  // hold the single worker inside the first task
  TaskQueue queue(1, 1);
  std::atomic<bool> started{false};
  ASSERT_TRUE(queue.try_enqueue([&] {
    started.store(true);
    std::lock_guard<std::mutex> wait(gate);
  }));
  while (!started.load()) std::this_thread::yield();
  // Worker busy: one waiting slot admits, the next submit is refused.
  EXPECT_TRUE(queue.try_enqueue([] {}));
  EXPECT_FALSE(queue.try_enqueue([] {}));
  EXPECT_EQ(queue.queued(), 1u);
  gate.unlock();
  queue.drain();
  EXPECT_EQ(queue.queued(), 0u);
  EXPECT_EQ(queue.running(), 0u);
}

TEST(TaskQueue, DestructorFinishesAdmittedWork) {
  std::atomic<int> ran{0};
  {
    TaskQueue queue(1, 16);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(queue.try_enqueue([&ran] { ++ran; }));
    }
  }  // destructor drains before joining
  EXPECT_EQ(ran.load(), 10);
}

TEST(Json, ParsesScalarsAndStructure) {
  const Result<json::Value> parsed = json::parse_json(
      R"({"a": 1, "b": -2.5, "c": [true, false, null], "d": "x\nA"})");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const json::Value& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.find("a"), nullptr);
  EXPECT_TRUE(root.find("a")->is_integer);
  EXPECT_EQ(root.find("a")->uint_value, 1u);
  EXPECT_DOUBLE_EQ(root.find("b")->number, -2.5);
  ASSERT_TRUE(root.find("c")->is_array());
  EXPECT_EQ(root.find("c")->array.size(), 3u);
  EXPECT_TRUE(root.find("c")->array[2].is_null());
  EXPECT_EQ(root.find("d")->string, "x\nA");

  const Result<json::Value> mixed =
      json::parse_json(R"({"a": [1, 2.5, -3e2, "x\"y"], "b": true})");
  ASSERT_TRUE(mixed.ok()) << mixed.error().message;
  const json::Value* a = mixed.value().find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(a->array[3].string, "x\"y");
  EXPECT_TRUE(mixed.value().find("b")->boolean);
}

TEST(Json, PreservesFullU64Seeds) {
  // 0xFA17C0DE-style campaign seeds and anything above 2^53 must survive
  // the round trip exactly — a double would round them.
  const Result<json::Value> parsed =
      json::parse_json(R"({"seed": 18446744073709551615})");
  ASSERT_TRUE(parsed.ok());
  const json::Value* seed = parsed.value().find("seed");
  ASSERT_NE(seed, nullptr);
  EXPECT_TRUE(seed->is_integer);
  EXPECT_EQ(seed->uint_value, 18446744073709551615ull);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse_json("").ok());
  EXPECT_FALSE(json::parse_json("{\"a\": }").ok());
  EXPECT_FALSE(json::parse_json("{\"a\": 1,}").ok());
  EXPECT_FALSE(json::parse_json("[1, 2").ok());
  EXPECT_FALSE(json::parse_json("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(json::parse_json("\"unterminated").ok());
}

TEST(Json, RejectsPathologicalNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::parse_json(deep).ok());
}

}  // namespace
}  // namespace reese
