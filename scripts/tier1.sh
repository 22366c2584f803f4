#!/usr/bin/env sh
# Tier-1 gate: the checks every change must keep green, runnable fully
# offline (all dev-dependencies are vendored in-tree under vendor/).
#
#   sh scripts/tier1.sh
#
# Mirrors .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")/.."

echo "==> module size lint (analysis + grammar + daemon + obs + policy + checker + remedy + tpl src <= 900 lines/file)"
# The analysis crate is split into pipeline stages on purpose
# (ir/lower/summary/emit); the grammar crate likewise separates the
# naive reference engine (intersect) from the prepared engine
# (prepared); the daemon separates json/store/verdict/state/protocol/
# server; the obs crate separates span collection from the metrics
# registry and the trace writer; the policy crate separates the kind
# namespace from the registry; the checker separates the check
# cascade from the engine facade and the optimized-path caches
# (qcache/pmemo/prefilter); the remedy crate separates fix planning
# from plan application and profile export; the template frontend
# separates lexer/parser/ast. A file regrowing past 900 lines means a
# stage is reabsorbing its neighbours.
for f in $(find crates/analysis/src crates/grammar/src crates/daemon/src crates/obs/src crates/policy/src crates/checker/src crates/remedy/src crates/tpl/src -name '*.rs'); do
    lines=$(wc -l < "$f")
    if [ "$lines" -gt 900 ]; then
        echo "FAIL: $f has $lines lines (limit 900)" >&2
        exit 1
    fi
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> grammar kernels vs reference (image, prepare, shortest)"
cargo test -q -p strtaint-grammar

echo "==> checker crate units (pmemo, skeletons, abstraction, engine)"
cargo test -q -p strtaint-checker

echo "==> strbench binaries build against the public API"
# The traced bench driver replays the pipeline through the crates'
# public functions; an API change that breaks it must fail here, not
# on the next bench run.
CARGO_TARGET_DIR=target cargo build --release --offline --manifest-path strbench/Cargo.toml --bins

echo "==> daemon round-trip (restart replay + corrupt-cache recovery)"
cargo test -q -p strtaint-daemon
cargo test -q --test daemon

echo "tier-1 OK"
