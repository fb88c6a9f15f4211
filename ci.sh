#!/usr/bin/env bash
# Offline CI gate: the workspace must build, test, format and lint with an
# empty registry (dependency-zero policy — see DESIGN.md "External crates").
set -euo pipefail
cd "$(dirname "$0")"

# Each leg is timed. The first three (the lint table, the build, the
# test run) stop the script when they fail: no later leg means anything
# without them. Every later leg runs through `run_leg`, so a failing one
# is recorded and the script goes on to the next. When the script ends,
# on success or on failure, it prints every leg's wall time and status,
# names every leg that failed, and exits non-zero if any did.
legs=()
failed=()
leg_name=""
leg_start=0
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
leg_end() {
  if [ -n "$leg_name" ]; then
    local ms=$(( $(now_ms) - leg_start ))
    legs+=("$leg_name|$((ms / 1000)).$(printf %03d $((ms % 1000)))|$1")
  fi
  leg_name=""
}
leg() {
  leg_end ok
  leg_name=$1
  leg_start=$(now_ms)
  echo "== $1 =="
}
# `run_leg <name> <command> [args...]`: the command runs in a subshell
# under errexit, so its first failing step ends the leg, not the script.
run_leg() {
  leg "$1"
  shift
  local status
  set +e
  ( set -e; "$@" )
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    failed+=("$leg_name")
    leg_end "FAILED (exit $status)"
  fi
}
leg_table() {
  local status=$?
  if [ -n "$leg_name" ]; then
    if [ "$status" -eq 0 ]; then leg_end ok; else failed+=("$leg_name"); leg_end FAILED; fi
  fi
  echo "== legs =="
  printf '%-72s %9s  %s\n' leg seconds status
  local row name secs st
  for row in "${legs[@]}"; do
    IFS='|' read -r name secs st <<< "$row"
    printf '%-72s %9s  %s\n' "$name" "$secs" "$st"
  done
  if [ "${#failed[@]}" -gt 0 ]; then
    echo "CI FAILED in ${#failed[@]} leg(s):"
    printf '  %s\n' "${failed[@]}"
  elif [ "$status" -ne 0 ]; then
    echo "CI FAILED before the first leg (exit $status)"
  fi
}
trap leg_table EXIT

leg "every crate inherits the workspace lint table"
# The root Cargo.toml's [workspace.lints] (unreachable_pub, unsafe_code,
# undocumented unsafe blocks) binds only the crates that opt in, so a
# crate without `[lints] workspace = true` escapes the clippy leg below.
for manifest in crates/*/Cargo.toml; do
  if ! awk '/^\[/ { table = $0 } table == "[lints]" && /^workspace *= *true/ { ok = 1 }
            END { exit !ok }' "$manifest"; then
    echo "$manifest lacks [lints] workspace = true"; exit 1
  fi
done

leg "build (release, offline)"
cargo build --release --offline

leg "test (offline)"
cargo test -q --offline

# From here on a failing leg does not stop the script.

# On a host with PCLMULQDQ/AVX2 the plain test run above only ever takes
# the dispatched kernels. The same tests under IB_SIMD=off put the
# slice-by-8 CRCs and scalar NH through every CRC/packet/security/
# transport check: ib-crypto carries tests/simd_equivalence.rs,
# ib-security the one-shot seal and admission bodies (tags byte-identical
# to the reference in crates/core/tests/one_pass_identity.rs),
# ib-transport tests/alloc_free_hotpath.rs, ib-sm the rekey lock's first
# lines (the only harness with many endpoints sharing one node's key
# table).
run_leg "test with IB_SIMD=off (the portable kernels, on hosts that never dispatch to them)" \
  env IB_SIMD=off cargo test -q --offline -p ib-crypto -p ib-packet -p ib-security -p ib-transport -p ib-sm

# tests/golden/lock/{engine,fabric,rekey,flows}.txt pin Simulator::run,
# run_fabric_sim, run_rekey_sim and flows posted into a running
# Simulator, 1024 configurations each: random topology / attack /
# enforcement / trap / fault draws for the engine (and, with posting
# rounds and host packets, for the flows), hand-picked hostile points
# then random transport / loss / attacker / key-plane draws for fabric
# and rekey, every fabric and rekey line also holding the harness's
# safety claims. The plain test run above checks
# each lock's first lines; this leg checks all of them. The next leg
# shows that the locks still catch the bugs they were built against.
run_leg "behaviour locks, every line (release)" \
  cargo test -q --release --offline -p ib-sm --test behaviour_lock -- --ignored full

# Each patch is a bug an earlier check was shown to catch (the locks, the
# admission rule's tests); mutants.sh re-applies it to a fresh export of
# HEAD (committed files, not this working tree) and requires its killing
# command to fail, so a weakened check no longer passes unnoticed. About
# 2 min on 2 CPUs from a cold target/mutants, most of it the two builds.
run_leg "mutant catalogue (every tests/mutants patch applies at HEAD and is killed)" ./mutants.sh

run_leg "fmt" cargo fmt --check

run_leg "clippy" cargo clippy --offline --workspace --all-targets -- -D warnings

# A deleted or renamed item leaves `[`links`]` to it in the docs of
# whatever mentioned it; this leg is what catches them.
run_leg "rustdoc links (no broken or private intra-doc links)" \
  env RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
  cargo doc --workspace --no-deps --offline

# The leg above documents public items only, so a broken link in a
# private item's docs (most of the engine's) passes it. This one renders
# every item and denies every rustdoc warning.
run_leg "rustdoc with private items (every doc warning denied)" \
  env RUSTDOCFLAGS="-D warnings" \
  cargo doc --workspace --no-deps --offline --document-private-items

# Every figure binary that has a smoke_twice leg below (fig1, fig5, fig6
# and the fig_* set) must match its second run *and* the copy committed
# under tests/golden/smoke/, so "simulated behaviour unchanged" is a
# gate: a change that moves a figure on purpose re-captures the golden in
# the same commit. `golden_diff <bin> full` compares against
# tests/golden/full/ instead (fig_rekey's 1024-QP run).
golden_diff() {
  diff "tests/golden/${2:-smoke}/$1.json" "BENCH_$1.json"
}
smoke_twice_body() {
  cargo run -q --release --offline -p bench --bin "$1" -- --smoke
  mv "BENCH_$1.json" "BENCH_$1.first.json"
  cargo run -q --release --offline -p bench --bin "$1" -- --smoke
  diff "BENCH_$1.first.json" "BENCH_$1.json"
  golden_diff "$1"
  rm "BENCH_$1.first.json"
}
smoke_twice() {
  run_leg "$1 smoke (twice: byte-identical to each other and to the golden)" smoke_twice_body "$1"
}

# The replay-defence gate: both sweeps (quiet 2x2 mesh, loaded 4x4 mesh)
# run through run_fabric_sim, i.e. the one co-simulation driver. The
# binary's own asserts require 100% delivery on every arm, zero admitted
# replays with the window and admitted ones without it.
smoke_twice fig_replay

# Each binary but jsonck (which takes file paths) parses its command line
# through bench::parse_args. An unknown flag must fail the run before it
# writes anything, so a misspelled or retired flag never runs the default
# grid as if asked. The list is every crates/bench/src/bin/*.rs, so a
# binary added later is checked without anyone listing it here.
reject_unknown_flags() {
  local reject_dir bin_dir src bin
  reject_dir=$(mktemp -d)
  bin_dir="$PWD/target/release"
  for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    [ "$bin" = jsonck ] && continue
    if (cd "$reject_dir" && "$bin_dir/$bin" --no-such-flag) > /dev/null 2>&1; then
      echo "$bin accepted --no-such-flag"; exit 1
    fi
    if [ -n "$(ls -A "$reject_dir")" ]; then
      echo "$bin wrote into its directory before rejecting --no-such-flag"; exit 1
    fi
  done
  rmdir "$reject_dir"
}
run_leg "every bench binary rejects an argument it does not take" reject_unknown_flags

# These print tables and write no BENCH_*.json, so nothing is diffed:
# the leg exists for their asserts (Table 4's CRC < UMAC < HMAC-MD5 <
# HMAC-SHA1 ordering and the §6 link-speed check among them), which
# would otherwise only ever be compiled. table4 and ablations time one
# arm at a time through bench::sample_arms, the sampler mac_table4 and
# sim_engine interleave their arms through, and derive every rate from
# each cell's median.
tables_smoke() {
  for bin in table1 table2 table3 table4 ablations; do
    cargo run -q --release --offline -p bench --bin "$bin" -- --smoke > /dev/null
  done
}
run_leg "table1-table4 and ablations smoke (their in-binary asserts must hold)" tables_smoke

# `cargo test` compiles the four examples but never runs them, so their
# asserts (the Table 3 rows refused, the R_Key forgery refused, the SIF
# ordering) would otherwise never execute.
examples_run() {
  for ex in quickstart key_attacks secure_rdma dos_attack_defense; do
    cargo run -q --release --offline -p ib-security --example "$ex" > /dev/null
  done
}
run_leg "examples (release: their asserts must hold)" examples_run

# The binary's own asserts gate tag equality across the two message
# paths (hard, single-shot) and its wall-clock floors (each re-measures
# its own cell up to 3 times and prints tries=n); across runs the numbers
# move with the clock, so compare the *structure* with numerics
# normalized away.
normalize_numbers() { sed -E 's/-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?/N/g' "$1"; }
mac_table4_twice() {
  cargo run -q --release --offline -p bench --bin mac_table4 -- --smoke
  mv BENCH_mac_throughput.json BENCH_mac_throughput.first.json
  cargo run -q --release --offline -p bench --bin mac_table4 -- --smoke
  diff <(normalize_numbers BENCH_mac_throughput.first.json) \
       <(normalize_numbers BENCH_mac_throughput.json)
  rm BENCH_mac_throughput.first.json
}
run_leg "mac_table4 smoke (twice: structure must be stable, asserts must hold)" mac_table4_twice

# The dispatched kernels must be observationally interchangeable with
# the scalar fallback: forcing IB_SIMD=off flips only numbers (timings,
# speedup ratios, the simd_active flag), never the document structure,
# the rows emitted, or which in-binary asserts run. The binary's own
# equivalence gates re-run under the fallback too, so this leg also
# proves the scalar path *passes* them byte-identically. It compares
# against the document the leg before left, so it fails with that leg.
mac_table4_scalar() {
  mv BENCH_mac_throughput.json BENCH_mac_throughput.simd.json
  IB_SIMD=off cargo run -q --release --offline -p bench --bin mac_table4 -- --smoke
  diff <(normalize_numbers BENCH_mac_throughput.simd.json) \
       <(normalize_numbers BENCH_mac_throughput.json)
  rm BENCH_mac_throughput.simd.json
}
run_leg "mac_table4 smoke with IB_SIMD=off (scalar fallback: structure must match)" mac_table4_scalar

# The scheduler/arena determinism gate: a calendar-queue or packet-arena
# bug that perturbs event order changes the averaged figure rows, so two
# same-seed runs diverging fails CI immediately. (The behaviour lock leg
# above pins the engine on random configurations beyond this grid.)
smoke_twice fig1

# The paper's enforcement and authentication figures on the same mesh:
# fig5 (No Filtering / DPT / IF / SIF under a 1 % DoS) and fig6 (No Key /
# With Key per load, partition- and QP-level). Each binary asserts the
# paper's ordering; the byte-diff pins every averaged cell to the seed.
smoke_twice fig5
smoke_twice fig6

# The transport-over-fabric gate: SEND / RDMA WRITE / RDMA READ across
# the attacked mesh. The binary's own asserts require 100% delivery,
# zero admitted replays, and selective-repeat >= go-back-N goodput under
# loss; the byte-diff pins the whole co-simulation (endpoints + fabric
# event order) to the seed.
smoke_twice fig_rdma

# The key-plane gate: RC fleets under epoch rotation and leader failover.
# The binary's own asserts require 100% eventual delivery in every arm,
# zero stale-epoch admissions, epoch-layer rejections on rotating arms,
# and a successor that re-keys after the leader kill; the byte-diff pins
# the replica election and MAD exchange to the seed.
smoke_twice fig_rekey

# The point the benchmark's rekey_1024qp workload times. The smoke run
# above is 48 lossless flows; this one is the fleet the wake-set
# scheduling exists for (sub-second since PR 18, 7 s before it), so a
# scheduling change that only shows at scale fails here.
fig_rekey_full() {
  cargo run -q --release --offline -p bench --bin fig_rekey
  golden_diff fig_rekey full
}
run_leg "fig_rekey full mode (512 flows = 1024 QPs, five arms: byte-identical to the golden)" \
  fig_rekey_full

# The scale-out gate: generated mesh and fat-tree fabrics with ECMP
# routing on the packet engine. The binary's own asserts require every
# flow to complete on every fabric (a routing or credit bug deadlocks or
# strands flows); the byte-diff pins topology generation, ECMP hashing
# and every completion time to the seed (wall-clock fields are zeroed in
# smoke mode so the diff can hold).
smoke_twice fig_scale

# The binary's own asserts gate (a) both scheduler arms popping the
# identical event stream on the hold-model and same-window burst scripts,
# (b) the calendar queue (inline entries, jumping wheel) keeping pace
# with the reference heap over the same entries on the hold model and
# (c) staying within 2x of it on every burst.
run_leg "sim_engine smoke (scheduler equivalence + calendar-vs-heap gates)" \
  cargo run -q --release --offline -p bench --bin sim_engine -- --smoke

run_leg "jsonck: emitted results parse back through ib_runtime::json" \
  cargo run -q --release --offline -p bench --bin jsonck -- BENCH_*.json

# benchmark/ is frozen between [benchmark] PRs but calls library names
# directly (probes, the traced fabric loop), so a deletion in crates/ can
# break it without touching it. Its traced fabric loop is a call-for-call
# copy of the two-endpoint loop run_fabric_sim was before it moved onto
# ib_transport::cosim: the package's tests compare the two reports on
# three points and `trace --smoke` on all 18 smoke points, failing the
# operation on any difference - an independent differential check of the
# driver. Both runs exit non-zero on any failed operation.
benchmark_package() {
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- trace --smoke
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke
}
run_leg "benchmark package (builds against the workspace, old-loop oracle agrees, smoke set runs clean)" \
  benchmark_package

leg_end ok
if [ "${#failed[@]}" -gt 0 ]; then exit 1; fi
echo "CI OK"
