#!/usr/bin/env bash
# Offline CI: build, test, lint. No network access required — all external
# dependencies are vendored under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== format =="
cargo fmt --all -- --check

echo "== build (release) =="
cargo build --release

echo "== the wirebench benchmark still compiles against the workspace =="
# --locked and a target directory outside wirebench/ leave its tree as it is.
cargo check --locked --offline --manifest-path wirebench/Cargo.toml --target-dir target/wirebench

echo "== test (tier-1: the whole workspace) =="
# The root manifest's default-members make this cover every crate, not just
# the root package. The passed count may not silently shrink below the
# floor; raise the floor when tests are added.
TIER1_FLOOR=887
test_log=$(mktemp)
cargo test -q 2>&1 | tee "$test_log"
passed=$(awk '/^test result:/ { sum += $4 } END { print sum + 0 }' "$test_log")
rm -f "$test_log"
if [ "$passed" -lt "$TIER1_FLOOR" ]; then
  echo "tier-1 passed $passed tests, below the floor of $TIER1_FLOOR"
  exit 1
fi

echo "== crypto in release (limb and table-index arithmetic wraps silently there) =="
cargo test --release -q -p vnfguard-crypto

echo "== crash matrix and renewal crash race on the chaos driver (sealed WAL, crash injection, recovery; >=8 seeds) =="
cargo test -q --test crash_recovery

echo "== failover chaos matrix on the chaos driver (replicated VM, node loss, oracle divergence; >=10 seeds) =="
cargo test -q --test replication

echo "== combined-fault chaos schedules (crash after promotion, storm during recovery, partition through compaction) =="
cargo test -q --test chaos

echo "== store replay properties (idempotence, prefix consistency, torn tails) =="
cargo test -q --test store_props

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude rand \
  --exclude proptest --exclude criterion --exclude crossbeam --exclude parking_lot -q

echo "== api hygiene: no positional 'now: u64' params in core =="
# The manager/remote/lifecycle API injects time via SimClock; the *_at shim
# pairs are gone and no new explicit-time entry point may appear.
violations=$(awk '
  /fn [a-z_0-9]+/ {
    name = $0; sub(/\(.*/, "", name); sub(/.*fn /, "", name)
    is_pub = ($0 ~ /pub fn/)
  }
  /now: u64/ {
    if (is_pub) print FILENAME ":" FNR ": fn " name
  }
' crates/core/src/*.rs)
if [ -n "$violations" ]; then
  echo "found pub fns taking a positional 'now: u64' (inject the SimClock instead):"
  echo "$violations"
  exit 1
fi

echo "== shard hygiene: no shard lock held across an agent hop =="
# The VmService contract: one shard lock per manager call, never around an
# agent hop. Evidence appraisal is the one network call still made under
# it: an IAS round trip over the fabric, inside the manager's
# prepare_vnf_enrollment and complete_host_attestation. Two sides of the
# gate:
#  - service.rs (where the shard locks live) must never reach the fabric;
#  - the /vm/ route handlers in serve_vm_api take no lock at all: shard
#    locking happens inside VmService methods, and the IAS handle's mutex
#    inside MultiBackend::appraise.
violations=$(grep -n -e 'HttpClient' -e 'connect(' -e 'Network' crates/core/src/service.rs || true)
if [ -n "$violations" ]; then
  echo "core/src/service.rs touches the network fabric under shard locks:"
  echo "$violations"
  exit 1
fi
violations=$(awk '
  /^pub fn serve_vm_api/ { in_region = 1 }
  in_region && /^(pub )?fn / && $0 !~ /serve_vm_api/ { in_region = 0 }
  in_region && /\.lock\(\)/ {
    print "crates/core/src/remote.rs:" FNR ": " $0
  }
' crates/core/src/remote.rs)
if [ -n "$violations" ]; then
  echo "found /vm/ route handlers taking a lock (shard locks belong inside VmService):"
  echo "$violations"
  exit 1
fi

echo "== backend hygiene: core appraises through vnfguard-attest, not raw SGX/IAS =="
# The AttestationBackend seam: relying-party code in vnfguard-core must not
# name vnfguard_sgx:: / vnfguard_ias:: types directly. The dispatcher module
# (backend.rs) is the one sanctioned home; any other reference needs a
# 'backend-opt-out' rationale within the 8 preceding lines (agent-side
# platform plumbing, IAS transport, testbed assembly). Test modules are
# exempt (they build fixtures, not appraisal paths).
violations=""
for f in crates/core/src/*.rs; do
  [ "$f" = "crates/core/src/backend.rs" ] && continue
  found=$(awk -v file="$f" '
    /^mod tests|^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    {
      if (index($0, "backend-opt-out") != 0) allow = NR + 8
      if ($0 ~ /vnfguard_(sgx|ias)::/ && NR > allow)
        print file ":" NR ": " $0
    }
  ' "$f")
  if [ -n "$found" ]; then
    violations="$violations$found
"
  fi
done
if [ -n "$violations" ]; then
  echo "found raw SGX/IAS references outside the backend adapter (route through vnfguard-attest or add a backend-opt-out rationale):"
  echo "$violations"
  exit 1
fi

echo "== attest refusal properties (forged/stale/truncated/cross-backend evidence) =="
cargo test -q --test attest_props

# Every bench bar runs even when an earlier one is red, so one known red
# bar cannot hide the verdicts after it; CI still fails at the end and
# names each bar that failed.
failed_bars=()
bar() {
  local bench=$1 label=$2
  echo "== ${bench%%_*}: $label =="
  cargo bench -p vnfguard-bench --bench "$bench" || failed_bars+=("$bench")
}

bar e11_recovery "recovery (cold start from full log vs snapshot, every enrollment restored) + compaction cost per MB"
bar e12_tracing "tracing overhead bar (<=5% vs disabled telemetry)"
bar e13_lifecycle "lifecycle (renewal vs enrollment, rotation, CRL lookup)"
bar e14_failover "failover time + replication overhead bar (<=10% vs unreplicated)"
bar e15_saturation "shard saturation (4-shard >= 2x 1-shard) + crash-under-load matrix on the chaos driver"
bar e16_overload "overload (admitted p99 <= 5x unloaded, goodput >= 60% while shedding) + storm chaos matrix on the chaos driver"
bar e17_health "health plane (overhead <=5%, burn-rate alert fires in-window, exemplar resolvable, partition staleness)"
bar e18_backends "attestation backends (SNP offline <= SGX/IAS remote, zero forged/cross-backend acceptances over >=10 seeds)"

if [ "${#failed_bars[@]}" -gt 0 ]; then
  echo "bench bars failed: ${failed_bars[*]}"
  exit 1
fi

echo "CI OK"
