#!/usr/bin/env bash
# Builds the benchmark and the nocalertd daemon from source, then runs the
# benchmark with the given arguments (see src/main.rs). Build output goes
# to standard error; the benchmark's result is the last line of standard
# output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --locked --quiet --manifest-path "$root/crates/service/Cargo.toml" --bin nocalertd >&2
exec "$target/release/nocalert-perfbench" \
    --work-dir "$here/.work" --digests "$here/digests.json" \
    --nocalertd "$target/release/nocalertd" "$@"
