#!/usr/bin/env bash
# Multi-process collection smoke: one xsp_collectd daemon on a UDS, a
# fleet of example_remote_producer processes streaming real profiled
# traces into it, then exact accounting — the daemon's spans_ingested
# must equal the fleet's published-minus-dropped sum, every footer must
# arrive, and the daemon's merged binary export must decode back to
# valid JSON via xsp_cli export --decode, with a footer that sums the
# producers' drops. The daemon also serves /metrics (live Prometheus exposition) on
# a loopback TCP port: the script scrapes it mid-run, requires the
# exposition to parse, and asserts the wire-level accounting invariant —
# xsp_ingested_spans_total equals the same fleet sum — then drives one
# xsp_cli top --daemon scrape against it.
#
# Bounded interning rides the same harness: the daemon runs with a
# string-table byte budget and every producer also streams a
# high-cardinality synthetic workload (--inline-tags: unique request-id
# values carried as inline tag bytes, not interned strings). The final
# scrape asserts xsp_strtab_bytes stayed under the budget and
# xsp_strtab_rejected_total stayed zero — the values never touched the
# table, and legitimate names never hit the ceiling. Run by CI's
# multiproc job and usable locally:
#
#   tests/ci/multiproc_smoke.sh [BUILD_DIR] [PRODUCERS] [RUNS]
set -euo pipefail

BUILD_DIR="${1:-build}"
PRODUCERS="${2:-4}"
RUNS="${3:-2}"
# Comfortable headroom for the fleet's real vocabulary (kernel/layer
# names, tag keys) and far less than PRODUCERS*RUNS*INLINE_TAGS unique
# values would cost if they interned.
STRTAB_BUDGET=262144
INLINE_TAGS=64

SOCK="/tmp/xsp_multiproc_$$.sock"
OUT_DIR="$(mktemp -d /tmp/xsp_multiproc_out.XXXXXX)"
DPID=""
HPID=""

cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  [ -n "$HPID" ] && kill "$HPID" 2>/dev/null || true
  rm -f "$SOCK"
  rm -rf "$OUT_DIR"
}
trap cleanup EXIT

fail() {
  echo "multiproc_smoke: FAIL: $*" >&2
  echo "--- collectd stdout ---" >&2
  cat "$OUT_DIR/collectd.out" >&2 || true
  echo "--- collectd stderr ---" >&2
  cat "$OUT_DIR/collectd.err" >&2 || true
  exit 1
}

# field <name> <file>: extract the integer after "name=" (greppable
# stats lines are the daemon/producer machine interface).
field() {
  grep -o "$1=[0-9][0-9]*" "$2" | head -n1 | cut -d= -f2
}

# scrape <url> <out-file>: fetch one URL to a file (python3 stdlib; no
# curl dependency on the runner).
scrape() {
  python3 -c '
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as r:
    sys.stdout.buffer.write(r.read())
' "$1" > "$2"
}

"$BUILD_DIR/tools/xsp_collectd" \
  --listen "unix:$SOCK" --out "$OUT_DIR/fleet.xspb" --online \
  --metrics tcp://127.0.0.1:0 --stats-json --stats-interval-ms 200 \
  --strtab-budget "$STRTAB_BUDGET" \
  > "$OUT_DIR/collectd.out" 2> "$OUT_DIR/collectd.err" &
DPID=$!

# Readiness: the daemon binds before printing "listening", so the socket
# file appearing means "connect now".
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$DPID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon never bound $SOCK"

# The metrics endpoint resolves its ephemeral port before run() starts;
# the daemon prints it (and flushes) right after "listening".
for _ in $(seq 1 100); do
  grep -q 'metrics on tcp://' "$OUT_DIR/collectd.out" && break
  sleep 0.1
done
METRICS_PORT="$(grep -o 'metrics on tcp://127.0.0.1:[0-9]*' "$OUT_DIR/collectd.out" \
  | grep -o '[0-9]*$' || true)"
[ -n "$METRICS_PORT" ] || fail "daemon never announced its metrics endpoint"
METRICS_URL="http://127.0.0.1:$METRICS_PORT/metrics"

# The fleet: PRODUCERS concurrent processes, each profiling RUNS runs and
# streaming every publication span to the daemon.
pids=()
for p in $(seq 1 "$PRODUCERS"); do
  "$BUILD_DIR/examples/example_remote_producer" \
    --endpoint "unix:$SOCK" --runs "$RUNS" --batch 1 \
    --inline-tags "$INLINE_TAGS" \
    > "$OUT_DIR/producer_$p.out" &
  pids+=("$!")
done

# An idle producer connection held open across the mid-run scrape: the
# fleet's producers can finish before the first scrape lands, and the
# per-connection checks below need at least one open connection.
python3 -c '
import socket, sys, time
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
print("connected", flush=True)
time.sleep(60)
' "$SOCK" > "$OUT_DIR/holder.out" &
HPID=$!
for _ in $(seq 1 100); do
  grep -q connected "$OUT_DIR/holder.out" && break
  sleep 0.05
done

# Mid-run scrape: with the fleet still streaming, /metrics must answer
# with exposition that parses — every non-comment line "name[{labels}]
# value", every comment a HELP/TYPE header — and every open producer
# connection must expose its ingested span count.
scrape "$METRICS_URL" "$OUT_DIR/metrics_midrun.txt" \
  || fail "mid-run /metrics scrape failed"
python3 - "$OUT_DIR/metrics_midrun.txt" <<'EOF' || fail "mid-run exposition does not parse"
import re, sys
families = 0
samples = 0
series = {}
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("#"):
        assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ", line), line
        families += line.startswith("# TYPE")
        continue
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? \S+$', line)
    assert m, line
    series.setdefault(m.group(1), set()).add(m.group(2))
    samples += 1
assert families > 0 and samples > 0, "empty exposition"
conns = series.get("xsp_connection_bytes_total", set())
assert conns, "no open producer connection in the scrape"
missing = conns - series.get("xsp_connection_spans_total", set())
assert not missing, "connections without xsp_connection_spans_total: %s" % missing
EOF
kill "$HPID"
wait "$HPID" 2>/dev/null || true
HPID=""
grep -q '^xsp_ingested_spans_total ' "$OUT_DIR/metrics_midrun.txt" \
  || fail "mid-run scrape lacks xsp_ingested_spans_total"

for pid in "${pids[@]}"; do
  wait "$pid" || fail "a producer exited non-zero"
done

# Fleet-side accounting: what must have reached the daemon — the
# session stream plus each producer's inline-tag side channel.
expected=0
fleet_dropped=0
for p in $(seq 1 "$PRODUCERS"); do
  published="$(field published "$OUT_DIR/producer_$p.out")"
  dropped="$(field dropped "$OUT_DIR/producer_$p.out")"
  inline_published="$(field inline_published "$OUT_DIR/producer_$p.out")"
  inline_dropped="$(field inline_dropped "$OUT_DIR/producer_$p.out")"
  [ -n "$published" ] || fail "producer $p printed no accounting"
  [ -n "$inline_published" ] || fail "producer $p printed no inline accounting"
  expected=$((expected + published - dropped + inline_published - inline_dropped))
  fleet_dropped=$((fleet_dropped + dropped + inline_dropped))
done

# The accounting invariant on the live endpoint: with the fleet drained,
# the daemon's own exposition must agree with the producers' sum.
scrape "$METRICS_URL" "$OUT_DIR/metrics_final.txt" \
  || fail "post-fleet /metrics scrape failed"
scraped_ingested="$(grep '^xsp_ingested_spans_total ' "$OUT_DIR/metrics_final.txt" \
  | awk '{print $2}')"
[ "$scraped_ingested" = "$expected" ] \
  || fail "/metrics xsp_ingested_spans_total $scraped_ingested != fleet published-dropped $expected"

# Bounded interning: the high-cardinality inline-tag values rode inside
# the spans, so the daemon's string table must sit under its budget with
# zero rejections (the budget is a backstop, not a tripwire, here).
scraped_strtab="$(grep '^xsp_strtab_bytes ' "$OUT_DIR/metrics_final.txt" | awk '{print $2}')"
scraped_rejected="$(grep '^xsp_strtab_rejected_total ' "$OUT_DIR/metrics_final.txt" \
  | awk '{print $2}')"
[ -n "$scraped_strtab" ] || fail "/metrics lacks xsp_strtab_bytes"
[ -n "$scraped_rejected" ] || fail "/metrics lacks xsp_strtab_rejected_total"
[ "$scraped_strtab" -le "$STRTAB_BUDGET" ] \
  || fail "xsp_strtab_bytes $scraped_strtab exceeds the $STRTAB_BUDGET budget"
[ "$scraped_rejected" -eq 0 ] \
  || fail "xsp_strtab_rejected_total $scraped_rejected != 0: legitimate interns were capped"

# RemoteSink ids are dense, so no span reached past its connection's id
# namespace.
scraped_wide="$(grep '^xsp_collector_wide_id_spans_total ' "$OUT_DIR/metrics_final.txt" \
  | awk '{print $2}')"
[ "$scraped_wide" = "0" ] \
  || fail "xsp_collector_wide_id_spans_total '$scraped_wide' != 0 for a dense-id fleet"

# One fleet-view scrape through the dashboard's daemon mode.
"$BUILD_DIR/tools/xsp_cli" top --daemon "tcp://127.0.0.1:$METRICS_PORT" --runs 1 \
  > "$OUT_DIR/top_daemon.out" || fail "xsp_cli top --daemon scrape failed"
grep -q "ingested $expected spans" "$OUT_DIR/top_daemon.out" \
  || fail "xsp_cli top --daemon did not report the ingested span count"
grep -q 'xsp_cli top: done' "$OUT_DIR/top_daemon.out" \
  || fail "xsp_cli top --daemon did not finish cleanly"

# Graceful drain: SIGTERM, then the daemon must exit 0 on its own.
kill -TERM "$DPID"
wait "$DPID" || fail "daemon exited non-zero on SIGTERM"
DPID=""

# Exit accounting rides stderr; --stats-json snapshots ride stdout (one
# JSON object per line, each of which must parse).
ingested="$(field spans_ingested "$OUT_DIR/collectd.err")"
footers="$(field footers_seen "$OUT_DIR/collectd.err")"
errored="$(field errored "$OUT_DIR/collectd.err")"
[ "$ingested" -eq "$expected" ] || fail "ingested $ingested != fleet published-dropped $expected"
# Two streams per producer: the session's RemoteSink and the inline-tag
# side channel each close with their own footer.
[ "$footers" -eq $((2 * PRODUCERS)) ] \
  || fail "footers_seen $footers != $((2 * PRODUCERS)) (2 per producer)"
[ "$errored" -eq 0 ] || fail "daemon counted $errored errored connections"
grep '^{' "$OUT_DIR/collectd.out" > "$OUT_DIR/stats_json.out" \
  || fail "--stats-json printed no snapshots"
python3 - "$OUT_DIR/stats_json.out" <<'EOF' || fail "--stats-json line does not parse"
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "no JSON snapshots"
for l in lines:
    snap = json.loads(l)
    assert "spans_ingested" in snap, l
EOF

# The merged export must be a decodable wire stream whose span count
# matches, and the decode must be real JSON.
"$BUILD_DIR/tools/xsp_cli" export \
  --decode "$OUT_DIR/fleet.xspb" --out "$OUT_DIR/fleet.json" --format spans \
  > "$OUT_DIR/decode.out"
python3 -m json.tool "$OUT_DIR/fleet.json" > /dev/null \
  || fail "decoded fleet trace is not valid JSON"
decoded="$(grep -o 'decoded [0-9]*' "$OUT_DIR/decode.out" | cut -d' ' -f2)"
[ "$decoded" -eq "$ingested" ] || fail "decode saw $decoded spans, daemon ingested $ingested"

# The footer end to end (producer footers -> daemon -> .xspb -> decode ->
# JSON): the daemon's footer sums the producers' transport drops, and an
# unsampled fleet sheds nothing.
python3 - "$OUT_DIR/fleet.json" "$fleet_dropped" <<'EOF' \
  || fail "decoded footer does not carry the fleet's accounting"
import json, sys
meta = json.load(open(sys.argv[1]))["metadata"]
assert meta["remote_dropped_spans"] == int(sys.argv[2]), (meta, sys.argv[2])
assert meta["sampled_dropped"] == 0, meta
EOF

echo "multiproc_smoke: OK — $PRODUCERS producers, $ingested spans ingested," \
     "$footers footers, /metrics invariant holds, strtab $scraped_strtab B" \
     "under $STRTAB_BUDGET B budget, decode and its footer match"
