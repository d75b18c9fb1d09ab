#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "soidom/base/contracts.hpp"
#include "soidom/base/parallel.hpp"
#include "soidom/base/rng.hpp"
#include "soidom/base/strings.hpp"

namespace soidom {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(15);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Rng, ForkIndependence) {
  Rng a(21);
  Rng fork = a.fork();
  EXPECT_NE(a.next_u64(), fork.next_u64());
}

TEST(Strings, SplitBasic) {
  const auto parts = split("a b\tc");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitCollapsesRuns) {
  const auto parts = split("  a   b  ");
  ASSERT_EQ(parts.size(), 2u);
}

TEST(Strings, SplitEmpty) { EXPECT_TRUE(split("   ").empty()); }

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \r\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with(".names a b", ".names"));
  EXPECT_FALSE(starts_with(".name", ".names"));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
}

TEST(Strings, Percent) {
  EXPECT_EQ(percent(53, 100), "53.00");
  EXPECT_EQ(percent(1, 3), "33.33");
  EXPECT_EQ(percent(5, 0), "0.00");
}

TEST(Strings, ParseIntStrict) {
  int value = -1;
  EXPECT_TRUE(parse_int_strict("0", &value));
  EXPECT_EQ(value, 0);
  EXPECT_TRUE(parse_int_strict("2147483647", &value));
  EXPECT_EQ(value, 2147483647);
  EXPECT_TRUE(parse_int_strict("-2147483648", &value));
  EXPECT_EQ(value, -2147483647 - 1);

  // The malformed inputs CLIs must reject instead of atoi-ing to 0.
  EXPECT_FALSE(parse_int_strict("", &value));
  EXPECT_FALSE(parse_int_strict("-", &value));
  EXPECT_FALSE(parse_int_strict("12x", &value));
  EXPECT_FALSE(parse_int_strict("max", &value));
  EXPECT_FALSE(parse_int_strict(" 3", &value));
  EXPECT_FALSE(parse_int_strict("1.5", &value));
  EXPECT_FALSE(parse_int_strict("2147483648", &value));   // overflow
  EXPECT_FALSE(parse_int_strict("-2147483649", &value));  // underflow
}

TEST(Strings, ParseDoubleStrict) {
  double value = -1.0;
  EXPECT_TRUE(parse_double_strict("1", &value));
  EXPECT_EQ(value, 1.0);
  EXPECT_TRUE(parse_double_strict("-0.5", &value));
  EXPECT_EQ(value, -0.5);
  EXPECT_TRUE(parse_double_strict("2.5e-3", &value));
  EXPECT_EQ(value, 2.5e-3);
  EXPECT_TRUE(parse_double_strict("+.25", &value));
  EXPECT_EQ(value, 0.25);

  // The grammar is plain decimal: no strtod extensions, no garbage.
  EXPECT_FALSE(parse_double_strict("", &value));
  EXPECT_FALSE(parse_double_strict("high", &value));
  EXPECT_FALSE(parse_double_strict("1.5x", &value));
  EXPECT_FALSE(parse_double_strict(" 1.5", &value));
  EXPECT_FALSE(parse_double_strict("1..5", &value));
  EXPECT_FALSE(parse_double_strict("e5", &value));
  EXPECT_FALSE(parse_double_strict("inf", &value));
  EXPECT_FALSE(parse_double_strict("nan", &value));
  EXPECT_FALSE(parse_double_strict("0x1p3", &value));
  EXPECT_FALSE(parse_double_strict("1e999", &value));  // overflow
}

TEST(Contracts, RequireThrows) {
  EXPECT_THROW(SOIDOM_REQUIRE(false, "boom"), Error);
  EXPECT_NO_THROW(SOIDOM_REQUIRE(true, "fine"));
}

TEST(Contracts, ErrorMessagePreserved) {
  try {
    SOIDOM_REQUIRE(false, "specific message");
    FAIL();
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

// --- ThreadPool::run ---------------------------------------------------------

TEST(ThreadPool, EveryItemRunsOnceOnAValidWorker) {
  for (const unsigned threads : {1u, 2u, 4u, 0u}) {
    ThreadPool pool(threads);
    const unsigned size = pool.size();
    EXPECT_EQ(size, threads == 0 ? hardware_thread_count() : threads);
    constexpr std::size_t kItems = 1000;
    std::vector<std::atomic<int>> runs(kItems);
    std::atomic<int> bad_worker{0};
    pool.run(kItems, [&](std::size_t item, unsigned worker) {
      runs[item].fetch_add(1, std::memory_order_relaxed);
      if (worker >= size) bad_worker.fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "item " << i << ", pool " << threads;
    }
    EXPECT_EQ(bad_worker.load(), 0) << "pool " << threads;
  }
}

/// Every failing item may throw; the lowest index is rethrown whatever
/// the schedule, and the pool stays usable afterwards.
TEST(ThreadPool, RethrowsLowestIndexErrorAndStaysUsable) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kItems = 256;
    std::vector<std::atomic<int>> runs(kItems);
    try {
      pool.run(kItems, [&](std::size_t item, unsigned) {
        runs[item].fetch_add(1, std::memory_order_relaxed);
        if (item == 17 || item == 200) {
          throw std::runtime_error("item " + std::to_string(item));
        }
      });
      ADD_FAILURE() << "expected an exception, pool " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 17") << "pool " << threads;
    }
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_LE(runs[i].load(), 1) << "item " << i;
      if (i <= 17) EXPECT_EQ(runs[i].load(), 1) << "item " << i;
    }

    std::atomic<std::size_t> sum{0};
    pool.run(100, [&](std::size_t item, unsigned) { sum += item; });
    EXPECT_EQ(sum.load(), 4950u) << "pool " << threads;
  }
}

/// Inline (size-1) pools run items in order, so everything after the
/// first failure is skipped.
TEST(ThreadPool, ItemsAfterAFailureAreSkipped) {
  ThreadPool pool(1);
  std::vector<int> ran;
  EXPECT_THROW(pool.run(10,
                        [&](std::size_t item, unsigned) {
                          ran.push_back(static_cast<int>(item));
                          if (item == 3) throw std::runtime_error("stop");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.run(0, [&](std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace soidom
