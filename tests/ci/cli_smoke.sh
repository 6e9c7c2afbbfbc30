#!/usr/bin/env bash
# Front-end smoke: drives every xsp_cli subcommand end to end and checks
# the shape of what each one prints or writes.
#
#   * list-models, list-systems, profile (all analyses, plus both
#     timeline exports) and sweep;
#   * streaming export: profile a model and stream the trace to disk
#     while it is collected, in both JSON document shapes; each output
#     must parse as JSON;
#   * binary wire round trip: stream the same run as XSP binary wire v6,
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
#     unknown enum value and a flag outside the subcommand's own set each
#     exit 2 and name the offending flag or value;
#   * xsp_collectd's usage errors: a number that is signed, padded,
#     malformed or out of its flag's range exits 2 and names the flag.
#     Parsing fails before any socket opens, so no daemon starts.
#
# Registered with ctest as `cli_smoke`; usable locally:
#
#   tests/ci/cli_smoke.sh [PATH_TO_XSP_CLI] [PATH_TO_XSP_COLLECTD]
set -euo pipefail

abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
XSP="$(abspath "${1:-build/tools/xsp_cli}")"
COLLECTD="$(abspath "${2:-$(dirname "$XSP")/xsp_collectd}")"
[ -x "$XSP" ] || { echo "cli_smoke: no executable at $XSP" >&2; exit 1; }
[ -x "$COLLECTD" ] || { echo "cli_smoke: no executable at $COLLECTD" >&2; exit 1; }
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
grep -q "(M/L/G)" chrome_smoke.out || fail "export does not default to the M/L/G levels"
"$XSP" export --out spans_smoke.json --format spans > spans_smoke.out
python3 -m json.tool spans_smoke.json > /dev/null

# --- binary wire round trip ----------------------------------------------------
"$XSP" export --out binary_smoke.xspb --format binary
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
"$XSP" top --runs 3 --interval-ms 50 --batch 2 | tee top_smoke.out
grep -q "final" top_smoke.out
grep -q "top kernels" top_smoke.out
grep -q "slots: live" top_smoke.out
grep -q "^strtab: [0-9]* strings" top_smoke.out
grep -q "sampling:" top_smoke.out
grep -q "xsp_cli top: done" top_smoke.out
"$XSP" top --runs 3 --interval-ms 50 --batch 2 \
  --sample 0.25 --top-k 8 | tee top_sampled_smoke.out
grep -q "sampling: rate 0.250" top_sampled_smoke.out
grep -q "xsp_cli top: done" top_sampled_smoke.out

# --- usage errors ------------------------------------------------------------------
expect_usage_error "bad value 'abc' for --batch" profile --batch abc
expect_usage_error "bad value '0' for --batch" profile --batch 0
expect_usage_error "bad value '4x' for --batch" export --out unused.json --batch 4x
expect_usage_error "bad value '-4' for --max-batch" sweep --max-batch -4
expect_usage_error "bad value 'pytorch' for --framework" profile --framework pytorch
expect_usage_error "bad value 'a99' for --analyses" profile --analyses a99
expect_usage_error "unknown option '--shards'" export --out unused.json --shards 4
expect_usage_error "unknown option '--shards'" top --shards 2
expect_usage_error "unknown option '--runs'" export --out unused.json --runs 2
expect_usage_error "unknown option '--framework'" export --out unused.json --framework tflow
expect_usage_error "unknown option '--gpu-metrics'" top --gpu-metrics
expect_usage_error "bad value 'mx' for --level" export --out unused.json --level mx
# Each subcommand accepts only its own flags: list-* takes --csv alone,
# sweep takes no per-run flag and profile no sweep bound.
expect_usage_error "unknown option '--export-chrome'" list-models --export-chrome unused.json
expect_usage_error "unknown option '--analyses'" list-systems --analyses a2
expect_usage_error "unknown option '--model'" list-models --model MLPerf_ResNet50_v1.5
expect_usage_error "unknown option '--batch'" sweep --batch 8
expect_usage_error "unknown option '--analyses'" sweep --analyses a2
expect_usage_error "unknown option '--library-level'" sweep --library-level
expect_usage_error "unknown option '--export-spans'" sweep --export-spans unused.json
expect_usage_error "unknown option '--max-batch'" profile --max-batch 4
[ ! -e unused.json ] || fail "a rejected command line still wrote its output"
"$XSP" list-models --csv | grep -q "MLPerf_ResNet50_v1.5" || fail "list-models --csv failed"

# --- xsp_collectd usage errors --------------------------------------------------------
# expect_collectd_error <needle> <args...>: xsp_collectd <args> must exit 2
# with <needle> on its first stderr line, without binding its socket.
expect_collectd_error() {
  local needle="$1"
  shift
  local rc=0
  "$COLLECTD" --listen "unix:$WORK/collectd.sock" "$@" > collectd.out 2> collectd.err || rc=$?
  [ "$rc" -eq 2 ] || fail "xsp_collectd $* exited $rc, want 2"
  head -n1 collectd.err | grep -qF -- "$needle" \
    || fail "xsp_collectd $* said '$(head -n1 collectd.err)', want '$needle'"
  [ ! -e "$WORK/collectd.sock" ] || fail "xsp_collectd $* bound its socket"
}
expect_collectd_error "bad value '+5' for --stats-interval-ms" --stats-interval-ms +5
expect_collectd_error "bad value ' 5' for --stats-interval-ms" --stats-interval-ms " 5"
expect_collectd_error "bad value '5ms' for --stats-interval-ms" --stats-interval-ms 5ms
expect_collectd_error "bad value '0' for --stats-interval-ms" --stats-interval-ms 0
expect_collectd_error "bad value '4294967297' for --stats-interval-ms" \
  --stats-interval-ms 4294967297
expect_collectd_error "bad value '2147483648' for --drain-timeout-ms" \
  --drain-timeout-ms 2147483648
expect_collectd_error "bad value '-1' for --drain-timeout-ms" --drain-timeout-ms -1
expect_collectd_error "bad value '-1' for --strtab-budget" --strtab-budget -1
expect_collectd_error "bad value '0' for --max-frame-bytes" --max-frame-bytes 0
expect_collectd_error "bad value '18446744073709551616' for --max-frame-bytes" \
  --max-frame-bytes 18446744073709551616
expect_collectd_error "unknown option '--shards'" --shards 2
expect_collectd_error "--drain-timeout-ms needs a value" --drain-timeout-ms

echo "cli_smoke: OK"
