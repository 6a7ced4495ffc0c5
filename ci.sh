#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run before pushing; everything must pass with zero warnings.
set -euo pipefail
cd "$(dirname "$0")"

# Each gate prints its wall-clock when the next one starts; the total
# comes last.
ci_start=$(date +%s)
step_start=$ci_start
step_name=""
step() {
    local now
    now=$(date +%s)
    if [ -n "$step_name" ]; then
        echo "-- $step_name: $((now - step_start)) s"
    fi
    step_name="$1"
    step_start=$now
    if [ -n "$step_name" ]; then
        echo "== $step_name =="
    fi
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

step "noc-lint (static verification)"
# Fan the heavier passes out across the runner's cores (stdout is
# byte-identical for every --jobs value) and report per-pass wall-clock
# timing on stderr.
JOBS="$(nproc 2>/dev/null || echo 2)"
cargo run -q --release -p nocalert-analysis --bin noc-lint -- --jobs "$JOBS" --timings

step "recovery smoke (one fault per class, 100% delivery)"
cargo run -q --release -p nocalert-bench --bin recovery -- --smoke

step "attack smoke (every attacker model loud: detected or mitigated)"
cargo run -q --release -p nocalert-bench --bin attack -- --smoke

step "aging smoke (accumulating faults to an honest partition)"
cargo run -q --release -p nocalert-bench --bin aging -- --smoke

step "service smoke (nocalertd end-to-end: submit, stream, SIGKILL, resume)"
cargo build -q --release -p nocalert-service
NOCALERTD=target/release/nocalertd
SVC_DIR="$(mktemp -d)"
# Guard against SVC_PID=0: `kill -9 0` would take down our own
# process group.
trap 'if [ "${SVC_PID:-0}" != 0 ]; then kill -9 "$SVC_PID" 2>/dev/null || true; fi; rm -rf "$SVC_DIR"' EXIT
"$NOCALERTD" serve --data-dir "$SVC_DIR" --addr 127.0.0.1:0 \
    --addr-file "$SVC_DIR/addr" --workers 1 &
SVC_PID=$!
for _ in $(seq 1 100); do [ -s "$SVC_DIR/addr" ] && break; sleep 0.1; done
SVC_ADDR="$(cat "$SVC_DIR/addr")"
# A 4x4 one-fault transient job, submitted and followed over HTTP.
SPEC='{"kind":"Transient","noc":{"mesh":{"width":4,"height":4},"vcs_per_port":2,"buffer_depth":5,"link_width_bits":128,"message_classes":1,"packet_lengths":[5],"buffer_policy":"Atomic","routing":"XY","speculative":false,"traffic":"UniformRandom","injection_rate":0.05,"hotspot_fraction":0.2,"ejection_rate":1,"seed":201986535},"warmup":200,"window":1200,"limit":1,"threads":1}'
JOB="$("$NOCALERTD" submit --addr "$SVC_ADDR" --spec "$SPEC")"
"$NOCALERTD" wait --addr "$SVC_ADDR" --job "$JOB" --timeout-secs 300
INCIDENTS="$("$NOCALERTD" events --addr "$SVC_ADDR" --job "$JOB" | grep -c Incident)"
[ "$INCIDENTS" -ge 1 ] || { echo "service smoke: empty incident stream" >&2; exit 1; }
# Second job, killed mid-run, must complete after a restart (resume).
JOB2="$("$NOCALERTD" submit --addr "$SVC_ADDR" --spec "${SPEC/\"limit\":1/\"limit\":5}")"
sleep 1
kill -9 "$SVC_PID"; wait "$SVC_PID" 2>/dev/null || true
"$NOCALERTD" serve --data-dir "$SVC_DIR" --addr 127.0.0.1:0 \
    --addr-file "$SVC_DIR/addr2" --workers 1 &
SVC_PID=$!
for _ in $(seq 1 100); do [ -s "$SVC_DIR/addr2" ] && break; sleep 0.1; done
SVC_ADDR="$(cat "$SVC_DIR/addr2")"
"$NOCALERTD" wait --addr "$SVC_ADDR" --job "$JOB2" --timeout-secs 300
# Hostile input: a deeply nested JSON body gets a 400, and the daemon
# keeps answering.
svc_status() { # METHOD PATH [BODY] -> the daemon's status line
    local body="${3:-}" line=""
    exec 3<>"/dev/tcp/${SVC_ADDR%:*}/${SVC_ADDR##*:}"
    printf '%s %s HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s' \
        "$1" "$2" "${#body}" "$body" >&3
    IFS= read -r line <&3 || true
    exec 3<&-
    printf '%s\n' "${line%$'\r'}"
}
NESTED="$(printf '%10000s' '' | tr ' ' '[')"
STATUS="$(svc_status POST /jobs "$NESTED")"
[ "$STATUS" = "HTTP/1.1 400 Bad Request" ] || { echo "service smoke: nested body got '$STATUS'" >&2; exit 1; }
STATUS="$(svc_status GET /healthz)"
[ "$STATUS" = "HTTP/1.1 200 OK" ] || { echo "service smoke: /healthz got '$STATUS'" >&2; exit 1; }
kill -9 "$SVC_PID" 2>/dev/null || true; wait "$SVC_PID" 2>/dev/null || true
SVC_PID=0
rm -rf "$SVC_DIR"
trap - EXIT

step "benchmark self-test (committed JobDriver digests, every workload)"
python3 perfbench/selftest.py

step "paper-scale differential (8x8 batched vs scalar, release)"
cargo test -q --release -p nocalert-golden --lib -- --ignored paper_scale

step "cargo test"
cargo test -q --workspace

step ""
echo "CI OK in $(( $(date +%s) - ci_start )) s"
