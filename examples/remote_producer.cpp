// Remote-producer walkthrough: one process of a profiling fleet. Profiles
// a model locally (simulated stack, as every example does) while
// ProfileOptions::remote_endpoint forwards each run's raw publication
// spans to an xsp_collectd daemon over the XSP binary wire — the
// cross-process half of the ROADMAP's collector story.
//
// The CI multi-process job launches one collector and four of these, then
// asserts the daemon's spans_ingested equals the sum of the "published"
// figures printed here (minus accounted drops). The output is therefore
// machine-greppable:
//
//   remote_producer: runs=2 published=1234 dropped=0 reconnects=0
//
// Usage:
//   example_remote_producer --endpoint unix:/tmp/xsp.sock
//                           [--model NAME] [--batch N] [--runs N]
//                           [--level m|ml|mlg] [--inline-tags N]
//
// --inline-tags N additionally publishes N synthetic request spans per
// run through a direct RemoteSink (its publish() goes into the sink's
// own TraceServer, whose drain feeds the outbox), each carrying a
// *unique* request-id value as an inline tag (Span::inline_tags) — the
// high-cardinality workload that would grow the collector's string table
// without bound if the values interned. The collector re-interns only the
// (constant) span name and tag key; the unique values ride inside the
// spans, so CI's smoke asserts xsp_strtab_bytes stays flat while these
// flow. Their accounting prints on a separate machine-greppable line:
//
//   remote_producer: inline_published=64 inline_dropped=0
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "xsp/models/registry.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/remote_sink.hpp"

namespace {

using namespace xsp;

struct Options {
  std::string endpoint;
  std::string model = "MLPerf_ResNet50_v1.5";
  std::int64_t batch = 1;
  std::int64_t runs = 1;
  std::string level = "mlg";
  std::int64_t inline_tags = 0;
};

bool parse_int(const char* s, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--endpoint" || arg == "--model" || arg == "--batch" ||
        arg == "--runs" || arg == "--level" || arg == "--inline-tags") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "remote_producer: %s needs a value\n", arg.c_str());
        return false;
      }
      value = argv[++i];
    } else {
      std::fprintf(stderr, "remote_producer: unknown option '%s'\n", arg.c_str());
      return false;
    }
    if (arg == "--endpoint") opts.endpoint = value;
    else if (arg == "--model") opts.model = value;
    else if (arg == "--level") opts.level = value;
    else if (arg == "--batch" && (!parse_int(value, opts.batch) || opts.batch < 1)) return false;
    else if (arg == "--runs" && (!parse_int(value, opts.runs) || opts.runs < 1)) return false;
    else if (arg == "--inline-tags" &&
             (!parse_int(value, opts.inline_tags) || opts.inline_tags < 0)) return false;
  }
  if (opts.endpoint.empty()) {
    std::fprintf(stderr,
                 "usage: example_remote_producer --endpoint URI [--model NAME]\n"
                 "                               [--batch N] [--runs N] [--level m|ml|mlg]\n"
                 "                               [--inline-tags N]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;

  const models::ModelInfo* model = models::find_tensorflow_model(opts.model);
  if (model == nullptr) {
    std::fprintf(stderr, "remote_producer: unknown model '%s'\n", opts.model.c_str());
    return 2;
  }

  profile::ProfileOptions popts;
  popts.layer_level = opts.level != "m";
  popts.gpu_level = opts.level == "mlg";
  popts.remote_endpoint = opts.endpoint;

  profile::Session session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const framework::Graph graph = model->build(opts.batch, /*decompose_bn=*/true);

  // High-cardinality side channel: a second wire stream of synthetic
  // request spans whose unique ids ride as inline tag bytes. Only the
  // constant span name and tag key intern (once, here); the per-span
  // values never touch the string table — ours or the collector's.
  std::unique_ptr<trace::RemoteSink> inline_sink;
  trace::StrId request_span_name, request_id_key;
  if (opts.inline_tags > 0) {
    inline_sink = std::make_unique<trace::RemoteSink>(net::Endpoint::parse(opts.endpoint));
    request_span_name = trace::StrId{"synthetic_request"};
    request_id_key = trace::StrId{"request_id"};
  }

  profile::RunTrace last;
  std::uint64_t request_seq = 0;
  for (std::int64_t i = 0; i < opts.runs; ++i) {
    last = session.profile(graph, popts);
    for (std::int64_t j = 0; j < opts.inline_tags; ++j) {
      trace::Span s;
      s.id = inline_sink->next_span_id();
      s.name = request_span_name;
      s.begin = static_cast<Ns>(request_seq);
      s.end = s.begin + 1;
      char rid[trace::InlineTagMap::kValueCapacity + 1];
      std::snprintf(rid, sizeof rid, "req-%llu",
                    static_cast<unsigned long long>(request_seq++));
      s.inline_tags.set(request_id_key, rid);
      inline_sink->publish(std::move(s));
    }
  }
  if (inline_sink != nullptr) inline_sink->close();

  // remote_spans & co. are session-cumulative, so the last run's figures
  // already cover the whole fleet member. The wire footer goes out when
  // `session` dies below; the RemoteSink waits (bounded) for the daemon's
  // drain ack, so by the time this process exits the collector has
  // consumed everything it will get.
  std::printf("remote_producer: runs=%lld published=%llu dropped=%llu reconnects=%llu\n",
              static_cast<long long>(opts.runs),
              static_cast<unsigned long long>(last.remote_spans),
              static_cast<unsigned long long>(last.remote_dropped_spans),
              static_cast<unsigned long long>(last.remote_reconnects));
  std::printf("remote_producer: timeline_spans=%zu model_latency_ns=%lld\n",
              last.timeline.size(), static_cast<long long>(last.model_latency));
  if (inline_sink != nullptr) {
    std::printf("remote_producer: inline_published=%llu inline_dropped=%llu\n",
                static_cast<unsigned long long>(inline_sink->spans_published()),
                static_cast<unsigned long long>(inline_sink->spans_dropped()));
  }
  std::fflush(stdout);
  return 0;
}
