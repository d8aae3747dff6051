#!/usr/bin/env bash
# Offline CI: build, test, lint. No network access required — all external
# dependencies are vendored under vendor/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== test (tier-1: the whole workspace) =="
# The root manifest's default-members make this cover every crate, not just
# the root package. The passed count may not silently shrink below the
# floor; raise the floor when tests are added.
TIER1_FLOOR=827
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

echo "== crash matrix (sealed WAL, crash injection, recovery; >=8 seeds) =="
cargo test -q --test crash_recovery

echo "== failover chaos matrix (replicated VM, node loss, oracle divergence; >=10 seeds) =="
cargo test -q --test replication

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
#  - the /vm/ route handlers in serve_vm_api must not take any lock other
#    than the IAS handle — shard locking happens inside VmService methods.
violations=$(grep -n -e 'HttpClient' -e 'connect(' -e 'Network' crates/core/src/service.rs || true)
if [ -n "$violations" ]; then
  echo "core/src/service.rs touches the network fabric under shard locks:"
  echo "$violations"
  exit 1
fi
violations=$(awk '
  /^pub fn serve_vm_api/ { in_region = 1 }
  in_region && /^(pub )?fn / && $0 !~ /serve_vm_api/ { in_region = 0 }
  in_region && /\.lock\(\)/ && $0 !~ /ias\.lock\(\)/ {
    print "crates/core/src/remote.rs:" FNR ": " $0
  }
' crates/core/src/remote.rs)
if [ -n "$violations" ]; then
  echo "found /vm/ route handlers taking a non-IAS lock (shard locks belong inside VmService):"
  echo "$violations"
  exit 1
fi

echo "== wal hygiene: manager mutations must journal before mutating =="
# WAL-before-response: any pub fn in the manager that issues/revokes through
# the CA or touches the enrollment maps must have a journal call in its body
# (WalRecord append). Keeps new workflow endpoints from bypassing the WAL.
violations=$(awk '
  function flush() {
    if (is_pub && body ~ /\.ca\.(issue|revoke|issue_crl|rotate_to)\(|enrollments\.(insert|remove)\(/ \
        && body !~ /journal/)
      print "crates/core/src/manager.rs: pub fn " name " mutates authority state without a WAL append"
    body = ""; is_pub = 0; name = ""
  }
  /^    (pub )?fn [a-z_0-9]+/ {
    flush()
    name = $0; sub(/\(.*/, "", name); sub(/.*fn /, "", name)
    is_pub = ($0 ~ /pub fn/)
  }
  { body = body "\n" $0 }
  END { flush() }
' crates/core/src/manager.rs)
if [ -n "$violations" ]; then
  echo "found manager entry points bypassing the write-ahead log:"
  echo "$violations"
  exit 1
fi

echo "== metric hygiene: exported series must carry their crate's namespace =="
# Every metric literal registered in a library crate (.counter("...") /
# .gauge("...") / .histogram("...")) must be prefixed vnfguard_<crate>_ so
# fleet-level scrapes stay collision-free, or sit within eight lines after a
# 'metric-name-opt-out' comment explaining the shared namespace.
# Test modules are exempt (throwaway series names).
violations=""
for dir in crates/*/src; do
  crate=$(basename "$(dirname "$dir")")
  for f in "$dir"/*.rs; do
    [ -f "$f" ] || continue
    found=$(awk -v prefix="vnfguard_${crate}_" -v file="$f" '
      /^mod tests|^#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      {
        if (index($0, "metric-name-opt-out") != 0) allow = NR + 8
        if (match($0, /\.(counter|gauge|histogram)\((&format!\()?"[a-z_{]+/)) {
          name = substr($0, RSTART, RLENGTH)
          sub(/.*"/, "", name)
          if (index(name, prefix) != 1 && NR > allow)
            print file ":" NR ": series \"" name "...\" lacks prefix " prefix
        }
      }
    ' "$f")
    if [ -n "$found" ]; then
      violations="$violations$found
"
    fi
  done
done
if [ -n "$violations" ]; then
  echo "found exported metrics outside their crate namespace:"
  echo "$violations"
  exit 1
fi

echo "== backend hygiene: core appraises through vnfguard-attest, not raw SGX/IAS =="
# The AttestationBackend seam: relying-party code in vnfguard-core must not
# name vnfguard_sgx:: / vnfguard_ias:: types directly. The adapter module
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

echo "== e12: tracing overhead bar (<=5% vs disabled telemetry) =="
cargo bench -p vnfguard-bench --bench e12_tracing

echo "== e13: lifecycle (renewal vs enrollment, rotation, CRL lookup) =="
cargo bench -p vnfguard-bench --bench e13_lifecycle

echo "== e14: failover time + replication overhead bar (<=10% vs unreplicated) =="
cargo bench -p vnfguard-bench --bench e14_failover

echo "== e15: shard saturation (4-shard >= 2x 1-shard) + crash-under-load matrix =="
cargo bench -p vnfguard-bench --bench e15_saturation

echo "== e16: overload (admitted p99 <= 5x unloaded, goodput >= 60% while shedding) + storm chaos matrix =="
cargo bench -p vnfguard-bench --bench e16_overload

echo "== e17: health plane (overhead <=5%, burn-rate alert fires in-window, exemplar resolvable, partition staleness) =="
cargo bench -p vnfguard-bench --bench e17_health

echo "== e18: attestation backends (SNP offline <= SGX/IAS remote, zero forged/cross-backend acceptances over >=10 seeds) =="
cargo bench -p vnfguard-bench --bench e18_backends

echo "CI OK"
