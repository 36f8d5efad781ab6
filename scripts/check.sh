#!/usr/bin/env bash
# Repo health gate: formatting, build, full test suite (which also runs
# complx-serve's lock-rank check on every acquisition path), clippy
# (which carries the code contracts: no unwrap/expect/panic in library
# code, no float ==, SAFETY comments, no unordered containers, wall clock
# or thread identity on the solve path, no raw .lock() in serve), and a
# CLI smoke run that validates the observability artifacts. Leaves the
# working tree as it found it. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --all --check

echo "== build (release) =="
# --workspace: the root manifest is also a package, so a bare `cargo build`
# would skip the member binaries (complx, report_check) the smoke run needs.
cargo build --release --workspace

echo "== benches compile =="
# `cargo test --workspace` never builds the `harness = false` bench
# targets, so an API change could silently break them.
cargo check -q --workspace --benches

echo "== tests (COMPLX_THREADS=1) =="
COMPLX_THREADS=1 cargo test -q --workspace

echo "== tests (COMPLX_THREADS=4) =="
COMPLX_THREADS=4 cargo test -q --workspace

echo "== clippy: token-level contracts on every target =="
# Every member crate, every target. The lint levels and their scopes live
# in the code, not on this command line (DESIGN.md §12): the panic family
# and float lints are denied per crate root (library code; float lints in
# binaries too), undocumented_unsafe_blocks and the per-crate clippy.toml
# disallowed-types/-methods lists are denied workspace-wide, and an
# #[expect] that suppresses nothing fails the build
# (unfulfilled_lint_expectations = "deny"). `-D warnings` fails the stage
# on clippy's default (warn-level) lints too, so they cannot pile up.
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== par_kernels: sequential and parallel kernels agree bit for bit =="
# The harness asserts that the anchored primal step and the projection P_C
# give identical bits at 1 thread and at the host's core count (at least
# 2), and prints the speedup table. No thread override: more threads than
# cores would time oversubscription.
./target/release/par_kernels --scale 8

echo "== s4_cog_comparison: ComPLx beats the CoG-constrained placer (paper §S4) =="
# Exits 1 unless ComPLx's legal HPWL is below the CoG preset's on each of
# the first three ISPD-2005-like designs; at --scale 4 the CoG placer
# loses by 17-24% and the stage runs in about two seconds.
./target/release/s4_cog_comparison --scale 4

echo "== CLI smoke run: report + events + profiling validate (4 threads) =="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
aux=$(cargo run -q --release --example gen_smoke -- "$smoke_dir" 2>/dev/null)
# Profiling is on for this run (and off for the --threads 1 run below):
# the later trace comparison doubles as the observe-never-perturb check.
./target/release/complx "$aux" -q --max-iterations 15 --threads 4 \
    -o "$smoke_dir/solution" \
    --report "$smoke_dir/report.json" \
    --events "$smoke_dir/events.jsonl" \
    --trace "$smoke_dir/trace_t4.csv" \
    --profile "$smoke_dir/prof.folded" \
    --profile-mem
./target/release/report_check "$smoke_dir/report.json" \
    --jsonl "$smoke_dir/events.jsonl" \
    --threads 4 --memory --timeline
# The collapsed-stack file must hold `stack us` lines for flamegraph tools.
grep -Eq '^place(;[a-z_2]+)* [0-9]+$' "$smoke_dir/prof.folded"

echo "== oracle: complx-verify validates the smoke artifacts =="
# Independent recomputation: the solution must be audit-legal and meet
# its region/alignment constraints, the trace must satisfy the paper's
# invariants (Formulas 4, 8, 12), and the report's self-reported metrics
# must match the oracle's recount.
./target/release/complx-verify "$aux" \
    --solution "$smoke_dir/solution/smoke.aux" \
    --trace "$smoke_dir/trace_t4.csv" \
    --report "$smoke_dir/report.json"

echo "== electro: FFT projection backend solves, verifies, and is thread-deterministic =="
# The same smoke bundle through --projection electro: the run must pass
# the independent oracle (audit-legal solution + paper invariants on the
# trace), and the 1-thread and 4-thread runs must produce byte-identical
# traces and solutions (parallel butterflies, spectral rows and the
# charge gather all use size-derived chunk boundaries). The profiled
# 4-thread run's report must also pass the timeline cross-check: electro
# rounds the requested grid to a power of two, so each per-iteration
# timeline bucket must carry the grid actually used, as the trace does.
./target/release/complx "$aux" -q --max-iterations 15 --threads 4 \
    --projection electro \
    -o "$smoke_dir/electro_t4" \
    --trace "$smoke_dir/trace_electro_t4.csv" \
    --report "$smoke_dir/report_electro.json" \
    --profile "$smoke_dir/prof_electro.folded"
./target/release/report_check "$smoke_dir/report_electro.json" --timeline
./target/release/complx-verify "$aux" \
    --solution "$smoke_dir/electro_t4/smoke.aux" \
    --trace "$smoke_dir/trace_electro_t4.csv"
./target/release/complx "$aux" -q --max-iterations 15 --threads 1 \
    --projection electro \
    -o "$smoke_dir/electro_t1" \
    --trace "$smoke_dir/trace_electro_t1.csv"
cmp "$smoke_dir/trace_electro_t1.csv" "$smoke_dir/trace_electro_t4.csv"
cmp "$smoke_dir/electro_t4/smoke.pl" "$smoke_dir/electro_t1/smoke.pl"

echo "== smooth: a log-sum-exp run solves, verifies, and is thread-deterministic =="
# The same smoke bundle through the smooth-model skeleton (--lse 4, paper
# §S1): the solution must be audit-legal, the trace must satisfy the
# paper's invariants, the report must validate and match the oracle's
# recount, and the 1-thread and 4-thread runs must agree byte for byte.
./target/release/complx "$aux" -q --max-iterations 15 --threads 4 --lse 4 \
    -o "$smoke_dir/lse_t4" \
    --trace "$smoke_dir/trace_lse_t4.csv" \
    --report "$smoke_dir/report_lse.json"
./target/release/report_check "$smoke_dir/report_lse.json"
./target/release/complx-verify "$aux" \
    --solution "$smoke_dir/lse_t4/smoke.aux" \
    --trace "$smoke_dir/trace_lse_t4.csv" \
    --report "$smoke_dir/report_lse.json"
./target/release/complx "$aux" -q --max-iterations 15 --threads 1 --lse 4 \
    -o "$smoke_dir/lse_t1" \
    --trace "$smoke_dir/trace_lse_t1.csv"
cmp "$smoke_dir/trace_lse_t1.csv" "$smoke_dir/trace_lse_t4.csv"
cmp "$smoke_dir/lse_t4/smoke.pl" "$smoke_dir/lse_t1/smoke.pl"

echo "== CLI determinism: --threads 1 (unprofiled) matches --threads 4 (profiled) =="
./target/release/complx "$aux" -q --max-iterations 15 --threads 1 \
    -o "$smoke_dir/solution_t1" \
    --trace "$smoke_dir/trace_t1.csv"
cmp "$smoke_dir/trace_t1.csv" "$smoke_dir/trace_t4.csv"
cmp "$smoke_dir/solution/smoke.pl" "$smoke_dir/solution_t1/smoke.pl"

echo "== resume: crash-safe checkpoint/restart reproduces the run =="
rdir="$smoke_dir/resume"
mkdir -p "$rdir"
# Reference: uninterrupted checkpointed run.
t0=$(date +%s.%N)
./target/release/complx "$aux" -q --max-iterations 15 --threads 4 \
    -o "$rdir/ref" --checkpoint "$rdir/ref.ckpt" --checkpoint-every 2 \
    --trace "$rdir/trace_ref.csv"
t1=$(date +%s.%N)
# Crash at iteration 5 (exit 10 is the injected-kill contract).
kill_rc=0
./target/release/complx "$aux" -q --max-iterations 15 --threads 4 \
    -o "$rdir/kill" --checkpoint "$rdir/run.ckpt" --checkpoint-every 2 \
    --fault-kill-at 5 || kill_rc=$?
test "$kill_rc" -eq 10
test -f "$rdir/run.ckpt"
# Resume: the final solution and trace must be byte-identical.
t2=$(date +%s.%N)
./target/release/complx "$aux" -q --max-iterations 15 --threads 4 \
    -o "$rdir/res" --resume "$rdir/run.ckpt" \
    --checkpoint "$rdir/run.ckpt" --checkpoint-every 2 \
    --trace "$rdir/trace_res.csv"
t3=$(date +%s.%N)
cmp "$rdir/trace_ref.csv" "$rdir/trace_res.csv"
cmp "$rdir/ref/smoke.pl" "$rdir/res/smoke.pl"
# The resumed solution passes the independent oracle.
./target/release/complx-verify "$aux" \
    --solution "$rdir/res/smoke.aux" \
    --trace "$rdir/trace_res.csv"
# Corrupting the primary checkpoint falls back to .prev, still exit 0.
printf '\xde\xad\xbe\xef' | dd of="$rdir/run.ckpt" bs=1 seek=64 count=4 conv=notrunc status=none
./target/release/complx "$aux" -q --max-iterations 15 --threads 4 \
    -o "$rdir/prev" --resume "$rdir/run.ckpt" --trace "$rdir/trace_prev.csv"
cmp "$rdir/trace_ref.csv" "$rdir/trace_prev.csv"
# Perf snapshot: checkpointed-run and resume wall times, in the same
# complx-bench/v1 schema the placer trajectory uses. It is written to the
# temp dir and validated there, so the committed results/BENCH_resume.json
# stays as it is.
ckpt_bytes=$(wc -c < "$rdir/ref.ckpt")
awk -v ref="$t0 $t1" -v res="$t2 $t3" -v bytes="$ckpt_bytes" 'BEGIN {
    split(ref, a, " "); split(res, b, " ");
    printf "{\n  \"schema\": \"complx-bench/v1\",\n  \"suite\": \"resume\",\n";
    printf "  \"cases\": [\n";
    printf "    {\n      \"name\": \"checkpointed\",\n      \"threads\": 4,\n";
    printf "      \"wall_seconds\": %.3f,\n      \"iterations\": 15,\n", a[2] - a[1];
    printf "      \"extra\": {\"design\": \"smoke\", \"checkpoint_every\": 2, \"checkpoint_bytes\": %d}\n    },\n", bytes;
    printf "    {\n      \"name\": \"resumed\",\n      \"threads\": 4,\n";
    printf "      \"wall_seconds\": %.3f,\n      \"iterations\": 15,\n", b[2] - b[1];
    printf "      \"extra\": {\"design\": \"smoke\", \"resumed_from_iteration\": 5, \"byte_identical\": true}\n    }\n";
    printf "  ]\n}\n";
}' > "$rdir/BENCH_resume.json"
cat "$rdir/BENCH_resume.json"
./target/release/bench_check --schema-only "$rdir/BENCH_resume.json"

echo "== serve: placement-as-a-service load test =="
# A live daemon on an ephemeral port takes ~200 jobs (8 designs x varied
# iteration caps, cycled priorities), a full duplicate wave that must be
# answered from the result cache, and 4 mid-solve cancels — then drains
# cleanly on POST /shutdown. The served solution must be byte-identical
# to a CLI run of the same bundle and configuration.
sdir="$smoke_dir/serve"
mkdir -p "$sdir"
./target/release/complx-serve --spool "$sdir/spool" --port 0 --port-file "$sdir/port" \
    --jobs 2 --threads-per-job 2 --queue-capacity 256 --cache-entries 64 &
serve_pid=$!
for _ in $(seq 1 100); do test -s "$sdir/port" && break; sleep 0.1; done
test -s "$sdir/port"
./target/release/complx-loadgen --port "$(cat "$sdir/port")" \
    --jobs 200 --designs 8 --cancels 4 --duplicates 40 --max-iterations 8 \
    --fetch-dir "$sdir/served" --snapshot "$sdir/BENCH_serve.json" \
    --expect-cache-hits --shutdown
wait "$serve_pid"
# The served run report is a valid complx-run-report/v1 manifest.
./target/release/report_check "$sdir/served/report.json"
# Byte-identity: replay the served input bundle through the CLI (different
# process, different thread count) and compare the solutions.
./target/release/complx "$sdir/served/input/lg0.aux" -q --max-iterations 8 --threads 1 \
    -o "$sdir/cli"
cmp "$sdir/cli/lg0.pl" "$sdir/served/solution/lg0.pl"
# The load test's snapshot, like the resume one, stays in the temp dir.
cat "$sdir/BENCH_serve.json"
./target/release/bench_check --schema-only "$sdir/BENCH_serve.json"

echo "== bench: perf trajectory gate =="
# Every committed snapshot must be valid complx-bench/v1, and a fresh run
# of the placer matrix must stay inside the committed tolerance bands
# (iterations / scaled HPWL / kernel counts exact, allocations tight,
# wall-clock generous). Re-bless with scripts/bench.sh after intentional
# performance changes.
./target/release/bench_check --schema-only results/BENCH_*.json
./target/release/bench_check --against results/BENCH_placer.json

echo "All checks passed."
