#!/usr/bin/env bash
# Full local CI gate. Everything here must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The paper's figures and table, then the extension sweeps.
BENCHES="fig1 fig2 fig4 fig5 fig6 table1 scaling ablation"

echo "==> full-mode paper figures and sweeps match the committed goldens"
fresh="$(mktemp -d)"
for b in $BENCHES; do
    env -u COFS_SMOKE COFS_BENCH_OUT="$fresh" cargo run -q --release -p cofs-bench --bin "$b" >/dev/null
done
drifted=0
for b in $BENCHES; do
    if ! cmp "$fresh/BENCH_$b.json" "BENCH_$b.json"; then
        # Name every cell that moved before failing.
        python3 scripts/bench_check.py --golden "BENCH_$b.json" "$fresh/BENCH_$b.json" || true
        drifted=1
    fi
done
rm -rf "$fresh"
if [ "$drifted" = 1 ]; then
    echo "full-mode runs no longer match the committed BENCH_*.json goldens" >&2
    exit 1
fi

echo "==> bench_check.py gates the full-mode goldens"
# CI's smoke sweep reaches 2 shards; the 4- to 16-shard claims and the
# repeated-row audit only run against the full-mode goldens, which the
# cmp above pins.
for b in $BENCHES; do
    if ! report="$(python3 scripts/bench_check.py "BENCH_$b.json")"; then
        echo "$report" >&2
        exit 1
    fi
done

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

echo "==> bench_check.py repeat-audit self-check (must name a repeated row)"
# Gives row <to> of a golden's section row <from>'s measured cells and
# checks that the audit fails naming the edited row.
repeat_self_check() {
    local golden="$1" title="$2" from="$3" to="$4" repeated expected report passed
    repeated="$(mktemp)"
    expected="$(python3 - "$golden" "$repeated" "$title" "$from" "$to" <<'EOF'
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "scripts")
from bench_check import CONFIG_COLUMNS, config_label
golden, out, title, src, dst = sys.argv[1:]
report = json.load(open(golden))
sec = next(s for s in report["sections"] if s["title"] == title)
first, second = sec["rows"][int(src)], sec["rows"][int(dst)]
for i, h in enumerate(sec["headers"]):
    if h not in CONFIG_COLUMNS:
        second[i] = first[i]
headers = sec["headers"]
if config_label(headers, second) == config_label(headers, first):
    sys.exit(f"{title!r}: no CONFIG_COLUMNS cell tells rows {src} and {dst} apart")
print(f"{sec['title']!r}: {config_label(headers, second)} repeats {config_label(headers, first)}")
json.dump(report, open(out, "w"), indent=2)
EOF
)"
    report="$(python3 scripts/bench_check.py "$repeated")" && passed=1 || passed=0
    rm -f "$repeated"
    if [ "$passed" = 1 ]; then
        echo "bench_check.py passed $golden with an undeclared repeated row" >&2
        exit 1
    fi
    if ! grep -qF "$expected" <<<"$report"; then
        echo "bench_check.py did not name the repeated row of $golden:" >&2
        echo "$report" >&2
        exit 1
    fi
}
# A swept extension row, and a paper row keyed by its operation
# (fig 6's utime row takes the stat row's cells).
repeat_self_check BENCH_scaling.json "skewed multi-tenant storm vs shard policy" 0 1
repeat_self_check BENCH_fig6.json "operation times, shared dir, hierarchical network" 1 2

echo "==> bench_check.py paper-claim self-check (must name a Fig 4 row where COFS loses)"
# Lets COFS lose one 8-node Fig 4 row by a millisecond and checks that
# the claim gate fails naming that row.
lost="$(mktemp)"
expected="$(python3 - BENCH_fig4.json "$lost" <<'EOF'
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, "scripts")
from bench_check import row_name
report = json.load(open(sys.argv[1]))
sec = next(s for s in report["sections"] if s["title"] == "8 nodes")
row = sec["rows"][3]
g, c = (sec["headers"].index(h) for h in ("gpfs create (ms)", "cofs create (ms)"))
row[c] = round(row[g] + 1, 2)
print(f"[FAIL] {row_name(sec, row)}: cofs {row[c]} ms below gpfs {row[g]} ms")
json.dump(report, open(sys.argv[2], "w"), indent=2)
EOF
)"
report="$(python3 scripts/bench_check.py "$lost")" && passed=1 || passed=0
rm -f "$lost"
if [ "$passed" = 1 ]; then
    echo "bench_check.py passed a Fig 4 report where COFS loses a row" >&2
    exit 1
fi
if ! grep -qF "$expected" <<<"$report"; then
    echo "bench_check.py did not name the Fig 4 row where COFS loses:" >&2
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
