#!/usr/bin/env bash
# Front-end smoke: drives every xsp_cli subcommand end to end and checks
# the shape of what each one prints or writes.
#
#   * list-models, list-systems, profile (all analyses, plus both
#     timeline exports) and sweep;
#   * streaming export: profile a model and stream the trace to disk
#     while it is collected, in both JSON document shapes, through a
#     sharded fleet; each output must parse as JSON;
#   * binary wire round trip: stream the same run as XSP binary wire v5,
#     decode it back to span JSON and require the decode to parse
#     (writer -> file -> reader -> JSON core on a real profiled trace,
#     src/trace/README.md "XSP binary wire format"); then patch the
#     header's version field (bytes 4-5) to 3: the reader accepts exactly
#     one version, so that decode must fail at open;
#   * the online-analysis dashboard (a dashboard thread snapshotting a
#     live session mid-run): it must carry the sections a dashboard must
#     have, including the sampling line both in its "off" shape and with
#     an active rate + top-k sketch;
#   * usage errors: a malformed number, an out-of-range number, an
#     unknown enum value and a flag the subcommand does not accept each
#     exit 2 and name the offending flag or value.
#
# Registered with ctest as `cli_smoke`; usable locally:
#
#   tests/ci/cli_smoke.sh [PATH_TO_XSP_CLI]
set -euo pipefail

XSP="$(cd "$(dirname "${1:-build/tools/xsp_cli}")" && pwd)/$(basename "${1:-build/tools/xsp_cli}")"
[ -x "$XSP" ] || { echo "cli_smoke: no executable at $XSP" >&2; exit 1; }
WORK="$(mktemp -d /tmp/xsp_cli_smoke.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() {
  echo "cli_smoke: FAIL: $*" >&2
  exit 1
}

# expect_usage_error <needle> <args...>: xsp_cli <args> must exit 2 with
# <needle> in its error line (the line before the usage text).
expect_usage_error() {
  local needle="$1"
  shift
  local rc=0
  "$XSP" "$@" > usage.out 2> usage.err || rc=$?
  [ "$rc" -eq 2 ] || fail "xsp_cli $* exited $rc, want 2"
  head -n1 usage.err | grep -qF -- "$needle" \
    || fail "xsp_cli $* said '$(head -n1 usage.err)', want '$needle'"
}

# --- list-models, list-systems, profile, sweep -------------------------------
"$XSP" list-models > models.out
grep -q "MLPerf_ResNet50_v1.5" models.out || fail "list-models lacks MLPerf_ResNet50_v1.5"
grep -q "tflow,mxlite" models.out || fail "list-models lists no model on both frameworks"
"$XSP" list-systems > systems.out
grep -q "Tesla_V100" systems.out || fail "list-systems lacks Tesla_V100"

"$XSP" profile --batch 4 --analyses all > profile.out
for section in "A2 top-10 layers:" "A5-A7 layer types:" "A8 top-10 kernel invocations:" \
               "A10 kernels by name:" "A11-A14 per-layer GPU aggregation:" \
               "A15 model aggregate:"; do
  grep -qF "$section" profile.out || fail "profile --analyses all lacks '$section'"
done
"$XSP" profile --model MLPerf_MobileNet_v1 --framework mxlite --library-level --analyses a15 \
  --export-chrome profile_chrome.json --export-spans profile_spans.json > profile_mx.out
grep -q "^A15 model aggregate:" profile_mx.out || fail "profile --analyses a15 printed no A15"
python3 -m json.tool profile_chrome.json > /dev/null
python3 -m json.tool profile_spans.json > /dev/null

"$XSP" sweep --model MLPerf_MobileNet_v1 --max-batch 16 > sweep.out
grep -q "^16 " sweep.out || fail "sweep --max-batch 16 has no batch-16 row"
grep -q "^32 " sweep.out && fail "sweep --max-batch 16 went past batch 16"
grep -q "^optimal batch " sweep.out || fail "sweep printed no optimal batch"

# --- streaming export ----------------------------------------------------------
"$XSP" export --out chrome_smoke.json --batch 2 > chrome_smoke.out
python3 -m json.tool chrome_smoke.json > /dev/null
grep -q "(M/L/G, 1 shard)" chrome_smoke.out || fail "export does not default to one shard"
"$XSP" export --out spans_smoke.json --format spans --shards 4 > spans_smoke.out
python3 -m json.tool spans_smoke.json > /dev/null
grep -q "(M/L/G, 4 shards)" spans_smoke.out || fail "export --shards 4 did not run 4 shards"

# --- binary wire round trip ----------------------------------------------------
"$XSP" export --out binary_smoke.xspb --format binary --shards 4
"$XSP" export --decode binary_smoke.xspb --out decoded_smoke.json --format spans
python3 -m json.tool decoded_smoke.json > /dev/null
grep -q '"export_format":"span_json"' decoded_smoke.json
python3 -c 'import sys; b = bytearray(open(sys.argv[1], "rb").read()); b[4:6] = (3).to_bytes(2, "little"); open(sys.argv[2], "wb").write(b)' \
  binary_smoke.xspb v3_smoke.xspb
if "$XSP" export --decode v3_smoke.xspb --out v3_smoke.json --format spans 2> v3_smoke.err; then
  echo "a version-3 stream decoded"; exit 1
fi
grep -q "unsupported format version" v3_smoke.err

# --- online-analysis dashboard ---------------------------------------------------
"$XSP" top --runs 3 --interval-ms 50 --batch 2 --shards 2 | tee top_smoke.out
grep -q "final" top_smoke.out
grep -q "top kernels" top_smoke.out
grep -q "shard loads" top_smoke.out
grep -q "slots: live" top_smoke.out
grep -q "sampling:" top_smoke.out
grep -q "xsp_cli top: done" top_smoke.out
"$XSP" top --runs 3 --interval-ms 50 --batch 2 --shards 2 \
  --sample 0.25 --top-k 8 | tee top_sampled_smoke.out
grep -q "sampling: rate 0.250" top_sampled_smoke.out
grep -q "xsp_cli top: done" top_sampled_smoke.out
"$XSP" top --runs 1 --interval-ms 0 > top_default.out
grep -q "^shard loads: \[0\] [0-9]* \[1\] [0-9]* |" top_default.out \
  || fail "top does not default to two shards"

# --- usage errors ------------------------------------------------------------------
expect_usage_error "bad value 'abc' for --batch" profile --batch abc
expect_usage_error "bad value '0' for --batch" profile --batch 0
expect_usage_error "bad value '4x' for --batch" export --out unused.json --batch 4x
expect_usage_error "bad value '-4' for --max-batch" sweep --max-batch -4
expect_usage_error "bad value 'pytorch' for --framework" profile --framework pytorch
expect_usage_error "bad value 'a99' for --analyses" profile --analyses a99
expect_usage_error "unknown option '--shards'" profile --shards 4
expect_usage_error "unknown option '--runs'" export --out unused.json --runs 2
expect_usage_error "unknown option '--framework'" export --out unused.json --framework tflow
expect_usage_error "unknown option '--gpu-metrics'" top --gpu-metrics
expect_usage_error "bad value 'mx' for --level" export --out unused.json --level mx
[ ! -e unused.json ] || fail "a rejected command line still wrote its output"

echo "cli_smoke: OK"
