// SpanSink id-block reservation (next_span_block / next_correlation_block)
// on every sink: TraceServer with 1 and 4 shards, and RemoteSink.
// Blocks are raced against single-id allocation from four threads; every
// id range handed out must be non-zero, kIdBlock wide for a block, and
// disjoint from every other range — the guarantee the collector's
// block-granular id remap rests on.
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "xsp/net/endpoint.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

struct IdRange {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// Draw ids on four threads, each interleaving runs of single ids with
/// block reservations, and return every range handed out. The run length
/// does not divide kIdBlock, so single-id draws cross TraceServer's
/// per-thread block boundaries at varying points.
template <typename One, typename Block>
std::vector<IdRange> draw_interleaved(One one, Block block) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 100;
  constexpr int kSinglesPerRound = 700;
  std::vector<std::vector<IdRange>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kSinglesPerRound; ++i) per_thread[t].push_back({one(), 1});
        per_thread[t].push_back({block(), SpanSink::kIdBlock});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<IdRange> all;
  for (const auto& ranges : per_thread) all.insert(all.end(), ranges.begin(), ranges.end());
  return all;
}

/// No range contains 0 or wraps, and no two ranges share an id.
void expect_disjoint_nonzero(std::vector<IdRange> ranges) {
  std::sort(ranges.begin(), ranges.end(),
            [](const IdRange& a, const IdRange& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    ASSERT_NE(ranges[i].first, 0u) << "0 (kNoSpan / no correlation) handed out";
    ASSERT_LE(ranges[i].count - 1, std::numeric_limits<std::uint64_t>::max() - ranges[i].first)
        << "range wraps past UINT64_MAX";
    if (i == 0) continue;
    ASSERT_GE(ranges[i].first, ranges[i - 1].first + ranges[i - 1].count)
        << "range at " << ranges[i].first << " overlaps the one at " << ranges[i - 1].first
        << " (width " << ranges[i - 1].count << ")";
  }
}

void expect_blocks_disjoint(SpanSink& sink) {
  expect_disjoint_nonzero(draw_interleaved([&sink] { return sink.next_span_id(); },
                                           [&sink] { return sink.next_span_block(); }));
  expect_disjoint_nonzero(draw_interleaved([&sink] { return sink.next_correlation_id(); },
                                           [&sink] { return sink.next_correlation_block(); }));
}

TEST(IdBlock, TraceServerBlocksNeverOverlapSingleIds) {
  TraceServer server(PublishMode::kSync);
  expect_blocks_disjoint(server);
}

TEST(IdBlock, ShardedTraceServerBlocksNeverOverlapAcrossShards) {
  TraceServer server(4, PublishMode::kSync);
  expect_blocks_disjoint(server);
}

TEST(IdBlock, RemoteSinkBlocksNeverOverlapSingleIds) {
  // Ids are sink-local: no daemon is needed, so the endpoint stays unbound.
  RemoteSink sink(net::Endpoint::parse("unix:/tmp/xsp_t" + std::to_string(::getpid()) +
                                       "_id_block_unbound.sock"));
  expect_blocks_disjoint(sink);
  sink.close();
}

}  // namespace
}  // namespace xsp::trace
