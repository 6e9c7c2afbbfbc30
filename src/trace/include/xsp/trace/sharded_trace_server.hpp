// ShardedTraceServer: the old spelling of a one-shard TraceServer, kept only
// because the benchmark harness under perfbench/ is held fixed between
// benchmark revisions and still writes `ShardedTraceServer server{1, mode}`
// with an (index, batches) drain subscriber. The server has no shards; this
// wrapper accepts a count of 1 and passes index 0. The next change to the
// benchmark can use TraceServer directly and delete this header.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <utility>

#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {

class ShardedTraceServer {
 public:
  ShardedTraceServer(std::size_t shard_count, PublishMode mode) : server_(mode) {
    if (shard_count != 1) throw std::invalid_argument("ShardedTraceServer: the count must be 1");
  }

  operator TraceServer&() noexcept { return server_; }

  SubscriberId add_drain_subscriber(DrainSubscriber subscriber,
                                    DrainHandoff handoff = DrainHandoff::kObserve) {
    return server_.add_drain_subscriber(std::move(subscriber), handoff);
  }
  SubscriberId add_drain_subscriber(std::function<void(std::size_t, SpanBatches&)> subscriber,
                                    DrainHandoff handoff = DrainHandoff::kObserve) {
    if (!subscriber) throw std::logic_error("TraceServer: null drain subscriber");
    return server_.add_drain_subscriber(
        [fn = std::move(subscriber)](SpanBatches& batches) { fn(0, batches); }, handoff);
  }
  void remove_drain_subscriber(SubscriberId id) { server_.remove_drain_subscriber(id); }
  void flush() { server_.flush(); }
  void bind_metrics(metrics::Registry& registry, const metrics::Labels& labels = {}) {
    server_.bind_metrics(registry, labels);
  }

 private:
  TraceServer server_;
};

}  // namespace xsp::trace
