// Concurrent id allocation on every SpanSink: TraceServer and
// RemoteSink. Four threads draw span and correlation ids at once; every
// id handed out must be non-zero and distinct from every other.
// TraceServer hands span ids to threads a block at a time, so the draws
// cross those per-thread block boundaries. A producer's ids keep their
// identity through the collector only if the sink never repeats one.
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "xsp/net/endpoint.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

/// Draw ids on four threads at once and return every id handed out.
template <typename One>
std::vector<std::uint64_t> draw_concurrently(One one) {
  constexpr int kThreads = 4;
  constexpr int kIdsPerThread = 70'000;
  std::vector<std::vector<std::uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIdsPerThread; ++i) per_thread[t].push_back(one());
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::uint64_t> all;
  for (const auto& ids : per_thread) all.insert(all.end(), ids.begin(), ids.end());
  return all;
}

/// No id is 0, and no two draws share an id.
void expect_disjoint_nonzero(std::vector<std::uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  ASSERT_NE(ids.front(), 0u) << "0 (kNoSpan / no correlation) handed out";
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  EXPECT_TRUE(dup == ids.end()) << "id " << *dup << " handed out twice";
}

void expect_ids_disjoint(SpanSink& sink) {
  expect_disjoint_nonzero(draw_concurrently([&sink] { return sink.next_span_id(); }));
  expect_disjoint_nonzero(draw_concurrently([&sink] { return sink.next_correlation_id(); }));
}

TEST(IdBlock, TraceServerIdsNeverRepeat) {
  TraceServer server(PublishMode::kSync);
  expect_ids_disjoint(server);
}

TEST(IdBlock, RemoteSinkIdsNeverRepeat) {
  // Ids are sink-local: no daemon is needed, so the endpoint stays unbound.
  RemoteSink sink(net::Endpoint::parse("unix:/tmp/xsp_t" + std::to_string(::getpid()) +
                                       "_id_block_unbound.sock"));
  expect_ids_disjoint(sink);
  sink.close();
}

}  // namespace
}  // namespace xsp::trace
