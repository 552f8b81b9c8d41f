#!/usr/bin/env bash
# Full local CI gate. Everything here must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> full-mode scaling + ablation match the committed goldens"
fresh="$(mktemp -d)"
for b in scaling ablation; do
    env -u COFS_SMOKE COFS_BENCH_OUT="$fresh" cargo run -q --release -p cofs-bench --bin "$b" >/dev/null
done
drifted=0
for b in scaling ablation; do
    if ! cmp "$fresh/BENCH_$b.json" "BENCH_$b.json"; then
        # Name every cell that moved before failing.
        python3 scripts/bench_check.py --golden "BENCH_$b.json" "$fresh/BENCH_$b.json" || true
        drifted=1
    fi
done
rm -rf "$fresh"
if [ "$drifted" = 1 ]; then
    echo "full-mode sweeps no longer match BENCH_scaling.json / BENCH_ablation.json" >&2
    exit 1
fi

echo "==> cargo test -q"
cargo test -q

echo "==> cofs-analyze (workspace determinism lint)"
cargo run -q -p cofs-analyze --release

echo "==> cofs-analyze self-check (gate must trip on the seeded fixture)"
if cargo run -q -p cofs-analyze --release -- --strict crates/analyze/fixtures >/dev/null 2>&1; then
    echo "cofs-analyze failed to flag the seeded fixture violations" >&2
    exit 1
fi

echo "==> bench_check.py --golden self-check (must name an edited cell)"
edited="$(mktemp)"
# Edits the second row's second cell of the first section and prints
# the line the diff must report for it.
expected="$(python3 - BENCH_ablation.json "$edited" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
sec = report["sections"][0]
row = sec["rows"][1]
print(f"{sec['title']!r}, row {sec['headers'][0]}={row[0]}, column {sec['headers'][1]!r}: {row[1]} -> 99.99")
row[1] = 99.99
json.dump(report, open(sys.argv[2], "w"), indent=2)
EOF
)"
report="$(python3 scripts/bench_check.py --golden BENCH_ablation.json "$edited")" && passed=1 || passed=0
rm -f "$edited"
if [ "$passed" = 1 ]; then
    echo "bench_check.py --golden passed an edited report" >&2
    exit 1
fi
if ! grep -qF "$expected" <<<"$report"; then
    echo "bench_check.py --golden did not name the edited cell:" >&2
    echo "$report" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo bench -p cofs-bench --no-run"
cargo bench -p cofs-bench --no-run

echo "All checks passed."
