// ShardedTraceServer is TraceServer: the shard count is a TraceServer
// constructor argument. This alias keeps the benchmark harness under
// perfbench/ compiling unchanged, since that harness is held fixed between
// benchmark revisions; the next change to the benchmark can include
// trace_server.hpp directly and delete this header.
#pragma once

#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {

using ShardedTraceServer = TraceServer;

}  // namespace xsp::trace
