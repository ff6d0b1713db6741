#!/usr/bin/env bash
# Entry command of the repo benchmark: builds `pod-cli` (the program
# under test, from the repository's own workspace) and the harness
# (this directory's workspace), then hands every argument to the
# harness. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds when the caller names one
# (made absolute, since the two builds run from different directories);
# otherwise each workspace keeps its own default.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    cli_target="$CARGO_TARGET_DIR"
    harness_target="$CARGO_TARGET_DIR"
else
    cli_target="$root/target"
    harness_target="$here/target"
fi

build_start=${EPOCHREALTIME/./}
(cd "$root" && cargo build --release --offline --quiet -p pod-cli) >&2
(cd "$here" && cargo build --release --offline --quiet) >&2
build_us=$(( ${EPOCHREALTIME/./} - build_start ))

exec "$harness_target/release/pod-benchmark" \
    --pod-cli "$cli_target/release/pod-cli" --root "$root" --build-us "$build_us" "$@"
