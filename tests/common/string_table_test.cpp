#include "xsp/common/string_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "xsp/common/flat_map.hpp"

namespace xsp::common {
namespace {

TEST(StringTable, EmptyStringIsAlwaysIdZero) {
  EXPECT_EQ(StringTable::global().intern(""), 0u);
  StrId id;
  EXPECT_TRUE(id.empty());
  EXPECT_EQ(id.view(), "");
}

TEST(StringTable, EqualStringsInternToEqualIds) {
  const StrId a("conv2d/Conv2D");
  const StrId b(std::string("conv2d/Conv2D"));
  const StrId c("conv2d/Relu");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, b);
}

TEST(StringTable, GrowthTelemetryTracksSizeAndBytes) {
  // A private table so the global's contents cannot perturb the counts.
  StringTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.approx_bytes(), 0u);

  table.intern("conv2d/Conv2D");
  const std::size_t after_one = table.approx_bytes();
  // One entry: its character data plus the documented per-entry overhead.
  EXPECT_EQ(after_one, std::string("conv2d/Conv2D").size() + StringTable::kApproxEntryOverhead);
  EXPECT_EQ(table.size(), 1u);

  // Re-interning the same string grows nothing (the whole point of the
  // telemetry: distinct-string growth, not intern-call volume).
  table.intern("conv2d/Conv2D");
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.approx_bytes(), after_one);

  // Dynamically composed values (the ROADMAP growth concern) do grow it,
  // monotonically.
  std::size_t previous = after_one;
  for (int i = 0; i < 100; ++i) {
    table.intern("grid=[" + std::to_string(i) + ",1,1]");
    const std::size_t now = table.approx_bytes();
    EXPECT_GT(now, previous);
    previous = now;
  }
  EXPECT_EQ(table.size(), 101u);
}

TEST(StringTable, ResolutionRoundTrips) {
  const StrId id("volta_scudnn_128x64_relu_interior_nn_v1");
  EXPECT_EQ(id.str(), "volta_scudnn_128x64_relu_interior_nn_v1");
  EXPECT_EQ(id.view(), "volta_scudnn_128x64_relu_interior_nn_v1");
  EXPECT_STREQ(id.c_str(), "volta_scudnn_128x64_relu_interior_nn_v1");
}

TEST(StringTable, ComparesAgainstTextWithoutInterning) {
  const StrId id("layer_type");
  EXPECT_EQ(id, "layer_type");
  EXPECT_EQ(id, std::string("layer_type"));
  EXPECT_FALSE(id == "layer_typo");
}

TEST(StringTable, LexicographicOrderForPresentationSorts) {
  EXPECT_LT(StrId("Add"), StrId("Conv2D"));
  EXPECT_FALSE(StrId("Conv2D") < StrId("Conv2D"));
}

TEST(StringTable, ConcurrentInterningIsConsistent) {
  // Many threads intern the same names; every thread must observe the same
  // id per name, and resolution must never dangle.
  constexpr int kThreads = 8;
  constexpr int kNames = 64;
  std::vector<std::vector<std::uint32_t>> per_thread(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&per_thread, t] {
      for (int i = 0; i < kNames; ++i) {
        const StrId id("concurrent_intern_test_name_" + std::to_string(i));
        per_thread[static_cast<std::size_t>(t)].push_back(id.raw());
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[static_cast<std::size_t>(t)], per_thread[0]);
  }
}

std::string race_string(int writer, std::size_t i) {
  return "race-w" + std::to_string(writer) + "-s" + std::to_string(i);
}

TEST(StringTable, ConcurrentReadersSeeEveryPublishedString) {
  // Writers intern fresh strings while readers resolve every id handed
  // out so far and walk for_each_since, all without locks on the read
  // side. 4 x 8000 strings fill every shard's first chunks (256, 512,
  // 1024 slots), so reads race chunk allocation too. Under TSan this
  // checks the release/acquire publication of each shard's size.
  StringTable table;
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr std::size_t kPerWriter = 8000;
  struct Published {
    std::vector<std::uint32_t> ids = std::vector<std::uint32_t>(kPerWriter);
    std::atomic<std::size_t> count{0};
  };
  std::vector<std::unique_ptr<Published>> published;
  for (int w = 0; w < kWriters; ++w) published.push_back(std::make_unique<Published>());
  std::atomic<int> writers_left{kWriters};
  std::atomic<std::size_t> mismatches{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Published& out = *published[static_cast<std::size_t>(w)];
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        out.ids[i] = table.intern(race_string(w, i));
        out.count.store(i + 1, std::memory_order_release);
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      StringTable::Cursor cursor;
      std::vector<std::size_t> checked(kWriters, 0);
      bool last_round = false;
      while (!last_round) {
        last_round = writers_left.load(std::memory_order_acquire) == 0;
        for (int w = 0; w < kWriters; ++w) {
          const Published& in = *published[static_cast<std::size_t>(w)];
          const std::size_t n = in.count.load(std::memory_order_acquire);
          for (std::size_t& i = checked[static_cast<std::size_t>(w)]; i < n; ++i) {
            if (table.view(in.ids[i]) != race_string(w, i)) mismatches.fetch_add(1);
          }
        }
        table.for_each_since(cursor, [&](std::uint32_t id, std::string_view s) {
          if (id == table.sentinel_id()) return;  // the one reserved entry delivered
          if (s.rfind("race-w", 0) != 0 || table.view(id) != s) mismatches.fetch_add(1);
        });
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(table.size(), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (std::size_t i = 0; i < kPerWriter; ++i) {
      ASSERT_EQ(table.view(published[static_cast<std::size_t>(w)]->ids[i]), race_string(w, i));
    }
  }
}

TEST(StringTable, UnknownIdsThrowOutOfRange) {
  StringTable table;
  // A slot just past the published size, inside the shard's allocated
  // first chunk.
  const std::uint32_t id = table.intern("unknown-id-probe");
  const std::uint32_t shard = id & (StringTable::kShardCount - 1);
  const std::uint32_t next_slot = (id >> StringTable::kShardBits) + 1;
  EXPECT_THROW((void)table.str((next_slot << StringTable::kShardBits) | shard),
               std::out_of_range);
  // Slots in chunks that were never allocated, up to the last id.
  EXPECT_THROW((void)table.str((1u << 20 << StringTable::kShardBits) | shard), std::out_of_range);
  EXPECT_THROW((void)table.view(0xFFFFFFFFu), std::out_of_range);
  EXPECT_THROW((void)StrId::from_raw(0xFFFFFFFFu).view(), std::out_of_range);
  // The reserved entries still resolve.
  EXPECT_EQ(table.str(0), "");
  EXPECT_EQ(table.str(table.sentinel_id()), StringTable::kSentinel);
  EXPECT_EQ(table.view(id), "unknown-id-probe");
  EXPECT_EQ(StrId::from_raw(0).view(), "");
  EXPECT_EQ(StrId::from_raw(StringTable::global().sentinel_id()).view(), StringTable::kSentinel);
}

TEST(FlatMap, SetFindAtCount) {
  FlatMap<double, 4> m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.set("flop_count_sp", 1e9));
  EXPECT_TRUE(m.set("achieved_occupancy", 0.5));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.count("flop_count_sp"), 1u);
  EXPECT_EQ(m.count("missing"), 0u);
  EXPECT_DOUBLE_EQ(m.at("achieved_occupancy"), 0.5);
  EXPECT_THROW((void)m.at("missing"), std::out_of_range);
}

TEST(FlatMap, SetOverwritesExistingKey) {
  FlatMap<double, 2> m;
  EXPECT_TRUE(m.set("k", 1.0));
  EXPECT_TRUE(m.set("k", 2.0));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.at("k"), 2.0);
}

TEST(FlatMap, DropsBeyondCapacityAndReportsIt) {
  FlatMap<double, 2> m;
  EXPECT_TRUE(m.set("a", 1));
  EXPECT_TRUE(m.set("b", 2));
  EXPECT_FALSE(m.set("c", 3));  // full: dropped
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.count("c"), 0u);
  // Overwriting an existing key still works at capacity.
  EXPECT_TRUE(m.set("a", 9));
  EXPECT_DOUBLE_EQ(m.at("a"), 9);
}

/// A suffix no earlier call in this process returned. The table is
/// process-global, so a repeated run needs strings no earlier pass interned.
std::string round_suffix() {
  static int round = 0;
  return "_" + std::to_string(round++);
}

TEST(StringTableCursor, FreshCursorDeliversEveryStringExactlyOnce) {
  StringTable& table = StringTable::global();
  const std::string suffix = round_suffix();
  const std::uint32_t a = table.intern("cursor_test_alpha_unique" + suffix);
  const std::uint32_t b = table.intern("cursor_test_beta_unique" + suffix);
  StringTable::Cursor cursor;
  std::size_t delivered = 0;
  bool saw_a = false;
  bool saw_b = false;
  table.for_each_since(cursor, [&](std::uint32_t id, std::string_view s) {
    EXPECT_NE(id, 0u) << "cursor delivered reserved id 0";
    EXPECT_EQ(table.view(id), s);
    saw_a |= id == a;
    saw_b |= id == b;
    ++delivered;
  });
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_GE(delivered, 2u);  // whole table: everything interned so far

  // The cursor advanced past everything: a second sweep is empty.
  const std::size_t after_full_sweep = delivered;
  table.for_each_since(cursor, [&](std::uint32_t, std::string_view) { ++delivered; });
  EXPECT_EQ(delivered, after_full_sweep);

  // Only strings interned after the last sweep ride the next delta.
  const std::uint32_t c = table.intern("cursor_test_gamma_unique" + suffix);
  std::vector<std::uint32_t> fresh;
  table.for_each_since(cursor,
                       [&](std::uint32_t id, std::string_view) { fresh.push_back(id); });
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], c);

  // Re-interning an existing string advances nothing.
  (void)table.intern("cursor_test_alpha_unique" + suffix);
  fresh.clear();
  table.for_each_since(cursor,
                       [&](std::uint32_t id, std::string_view) { fresh.push_back(id); });
  EXPECT_TRUE(fresh.empty());
}

TEST(StringTableCursor, IndependentCursorsTrackIndependently) {
  StringTable& table = StringTable::global();
  StringTable::Cursor first;
  table.for_each_since(first, [](std::uint32_t, std::string_view) {});
  const std::uint32_t fresh = table.intern("cursor_test_independent_unique" + round_suffix());

  StringTable::Cursor second;  // starts from the beginning
  bool second_saw_fresh = false;
  std::size_t second_total = 0;
  table.for_each_since(second, [&](std::uint32_t id, std::string_view) {
    second_saw_fresh |= id == fresh;
    ++second_total;
  });
  EXPECT_TRUE(second_saw_fresh);
  EXPECT_GT(second_total, 1u);

  std::vector<std::uint32_t> first_delta;
  table.for_each_since(first,
                       [&](std::uint32_t id, std::string_view) { first_delta.push_back(id); });
  ASSERT_EQ(first_delta.size(), 1u);
  EXPECT_EQ(first_delta[0], fresh);
}

TEST(FlatMap, IterationPreservesInsertionOrder) {
  FlatMap<StrId, 4> m;
  m.set("grid", "[4,1,1]");
  m.set("block", "[256,1,1]");
  std::vector<std::string> keys;
  for (const auto& e : m) keys.push_back(e.key.str());
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "grid");
  EXPECT_EQ(keys[1], "block");
}

}  // namespace
}  // namespace xsp::common
