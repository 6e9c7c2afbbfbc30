// trace_export — run one profiled evaluation and stream its trace to a
// file as it is collected (the streaming-export subsystem end to end:
// session -> sharded trace server -> drain subscribers -> one sink).
//
//   trace_export --out trace.json
//   trace_export --model MLPerf_ResNet50_v1.5 --batch 8 --level mlg
//                --format spans --shards 4 --out run.json   (one line)
//   trace_export --format binary --out run.xspb
//   trace_export --decode run.xspb --format spans --out run.json
//
// Options:
//   --model NAME     model-zoo model (default MLPerf_ResNet50_v1.5)
//   --system NAME    simulated system (default Tesla_V100)
//   --batch N        batch size (default 1)
//   --level m|ml|mlg profiling levels (default mlg, no GPU metric replay)
//   --gpu-metrics    collect the four GPU metrics too (implies mlg)
//   --format chrome|spans|binary   output document (default chrome;
//                    binary = XSP binary wire v5, src/trace/README.md)
//   --shards N       trace-server shards (default 1; 0 = per-core default)
//   --out FILE       output path (required)
//   --decode IN      decode mode: read binary wire file IN and re-export
//                    it to --out as --format chrome|spans (no profiling
//                    happens; default format for decode is spans)
//
// CI runs this as the streaming-export smoke: the output must parse as
// JSON and carry at least the three pipeline spans — and as the binary
// round-trip smoke: --format binary piped through --decode must parse.
#include <cerrno>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "xsp/models/registry.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/wire.hpp"

namespace {

using namespace xsp;

struct Options {
  std::string model = "MLPerf_ResNet50_v1.5";
  std::string system = "Tesla_V100";
  std::int64_t batch = 1;
  std::string level = "mlg";
  bool gpu_metrics = false;
  std::string format;  // empty = default (chrome; spans in decode mode)
  std::size_t shards = 1;
  std::string out;
  std::string decode;  // non-empty selects decode mode
};

void print_usage() {
  std::fprintf(stderr,
               "usage: trace_export --out FILE [--model NAME] [--system NAME] [--batch N]\n"
               "                    [--level m|ml|mlg] [--gpu-metrics]\n"
               "                    [--format chrome|spans|binary] [--shards N]\n"
               "       trace_export --decode IN --out FILE [--format chrome|spans]\n");
}

/// Strict integer parse: the whole argument must be a number (atoll-style
/// silent zero on a typo would profile the wrong configuration).
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
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    std::int64_t n = 0;
    if (arg == "--model" && (v = next()) != nullptr) {
      opts.model = v;
    } else if (arg == "--system" && (v = next()) != nullptr) {
      opts.system = v;
    } else if (arg == "--batch" && (v = next()) != nullptr && parse_int(v, n) && n > 0) {
      opts.batch = n;
    } else if (arg == "--level" && (v = next()) != nullptr) {
      opts.level = v;
    } else if (arg == "--gpu-metrics") {
      opts.gpu_metrics = true;
    } else if (arg == "--format" && (v = next()) != nullptr) {
      opts.format = v;
    } else if (arg == "--shards" && (v = next()) != nullptr && parse_int(v, n) && n >= 0) {
      opts.shards = static_cast<std::size_t>(n);
    } else if (arg == "--out" && (v = next()) != nullptr) {
      opts.out = v;
    } else if (arg == "--decode" && (v = next()) != nullptr) {
      opts.decode = v;
    } else if (v != nullptr) {
      std::fprintf(stderr, "trace_export: bad value '%s' for %s\n", v, arg.c_str());
      return false;
    } else {
      std::fprintf(stderr, "trace_export: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opts.out.empty()) {
    std::fprintf(stderr, "trace_export: --out is required\n");
    return false;
  }
  if (opts.level != "m" && opts.level != "ml" && opts.level != "mlg") {
    std::fprintf(stderr, "trace_export: --level must be m, ml, or mlg\n");
    return false;
  }
  if (opts.format.empty()) opts.format = opts.decode.empty() ? "chrome" : "spans";
  if (!opts.decode.empty()) {
    // Decode re-exports as JSON; re-encoding binary to binary is a copy.
    if (opts.format != "chrome" && opts.format != "spans") {
      std::fprintf(stderr, "trace_export: --decode output --format must be chrome or spans\n");
      return false;
    }
  } else if (opts.format != "chrome" && opts.format != "spans" && opts.format != "binary") {
    std::fprintf(stderr, "trace_export: --format must be chrome, spans, or binary\n");
    return false;
  }
  return true;
}

/// Decode mode: binary wire file -> BinaryReader -> StreamingExporter.
/// Decoded batches stream through the same JSON core a live session
/// drives, so the output is semantically identical to having exported
/// JSON directly — the footer telemetry comes from the binary footer
/// frame instead of the live run.
int run_decode(const Options& opts) {
  std::ifstream in(opts.decode, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_export: cannot open %s\n", opts.decode.c_str());
    return 1;
  }
  std::ofstream out(opts.out, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "trace_export: cannot open %s\n", opts.out.c_str());
    return 1;
  }
  const auto format = opts.format == "chrome" ? trace::ExportFormat::kChromeTrace
                                              : trace::ExportFormat::kSpanJson;
  try {
    trace::BinaryReader reader(in);
    trace::StreamingExporter exporter(format, out,
                                      /*with_metadata=*/format == trace::ExportFormat::kSpanJson);
    trace::SpanBatch batch;
    while (reader.next_batch(batch)) exporter.write_batch(batch);
    exporter.set_meta(reader.meta());
    exporter.finish();
    out.close();
    if (!out) {
      std::fprintf(stderr, "trace_export: short write to %s\n", opts.out.c_str());
      return 1;
    }
    if (!reader.saw_footer()) {
      std::fprintf(stderr, "trace_export: warning: %s has no footer frame (truncated stream); "
                           "decoded the %llu complete spans before the cut\n",
                   opts.decode.c_str(), static_cast<unsigned long long>(reader.spans_read()));
    }
    std::printf("trace_export: decoded %llu spans / %llu strings from %s to %s (%s, %llu bytes)\n",
                static_cast<unsigned long long>(reader.spans_read()),
                static_cast<unsigned long long>(reader.strings_reinterned()), opts.decode.c_str(),
                opts.out.c_str(), trace::export_format_name(format),
                static_cast<unsigned long long>(exporter.bytes_written()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_export: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    print_usage();
    return 2;
  }
  if (!opts.decode.empty()) return run_decode(opts);

  const models::ModelInfo* model = models::find_tensorflow_model(opts.model);
  if (model == nullptr) {
    std::fprintf(stderr, "trace_export: unknown model '%s'\n", opts.model.c_str());
    return 1;
  }

  profile::ProfileOptions popts;
  // --gpu-metrics implies the full M/L/G stack, as the usage text says.
  popts.layer_level = opts.level != "m" || opts.gpu_metrics;
  popts.gpu_level = opts.level == "mlg" || opts.gpu_metrics;
  popts.gpu_metrics = opts.gpu_metrics;
  popts.trace_shards = opts.shards;
  popts.stream_export_path = opts.out;
  popts.stream_export_format = opts.format == "chrome"   ? trace::ExportFormat::kChromeTrace
                               : opts.format == "spans"  ? trace::ExportFormat::kSpanJson
                                                         : trace::ExportFormat::kBinary;

  profile::RunTrace run;
  try {
    profile::Session session(sim::system_by_name(opts.system), framework::FrameworkKind::kTFlow);
    const framework::Graph graph = model->build(opts.batch, /*decompose_bn=*/true);
    run = session.profile(graph, popts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_export: %s\n", e.what());
    return 1;
  }

  std::printf("trace_export: %s @ batch %lld on %s (%s, %zu shard%s)\n", opts.model.c_str(),
              static_cast<long long>(opts.batch), opts.system.c_str(),
              popts.level_string().c_str(), run.shard_count, run.shard_count == 1 ? "" : "s");
  std::printf(
      "trace_export: streamed %llu raw spans / %llu bytes (%s) to %s; "
      "assembled timeline: %zu spans\n",
      static_cast<unsigned long long>(run.streamed_spans),
      static_cast<unsigned long long>(run.streamed_bytes),
      trace::export_format_name(popts.stream_export_format), opts.out.c_str(),
      run.timeline.size());
  return 0;
}
