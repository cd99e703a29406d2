#!/usr/bin/env bash
# Determinism lint for the hot-path crates (sim, proto, fabric, mc).
#
# The whole stack depends on bit-identical replay: the engine's state
# hashes, the model checker's replay-based exploration, and the golden
# tests all assume a run is a pure function of its inputs. Two construct
# families break that silently:
#
#   1. Wall-clock time (SystemTime::now / Instant::now) — never legal in
#      these crates; virtual time comes from the engine. No allowlist.
#   2. HashMap/HashSet — iteration order varies per process (SipHash
#      keying), so any iteration that feeds results, digests, or message
#      order is nondeterministic. Files where every use is provably
#      order-insensitive (XOR-folded digests, keyed lookup, membership
#      tests) are listed in tools/lint_determinism_allow.txt with a
#      justification; everything else fails.
#
# A third rule keeps environment knobs out of the engine, the protocols
# and the model checker: their behaviour is set by explicit configuration
# values only.
#
#   3. env::var — never legal in sim, proto or mc. No allowlist. (fabric
#      is exempt: FabricConfig::from_env is the DSM_FABRIC parser that the
#      front ends call.)
#
# A fourth rule keeps every protocol action on the one execution history
# (crates/proto/src/history.rs), so what is counted is what is traced is
# what is checked:
#
#   4. Outside history.rs, code in proto and core never records an event,
#      a span wait or segment, or calls a checker method; it emits a
#      History record instead. No allowlist.
#
# Comment lines are ignored. Run from anywhere; CI runs it on every push.

set -u
cd "$(dirname "$0")/.."

DIRS="crates/sim/src crates/proto/src crates/fabric/src crates/mc/src"
ENV_DIRS="crates/sim/src crates/proto/src crates/mc/src"
HISTORY_DIRS="crates/proto/src crates/core/src"
HISTORY_SINK="crates/proto/src/history.rs"
ALLOW="tools/lint_determinism_allow.txt"
status=0

# Print "file:lineno:text" matches for an extended regex in the given
# directories, with lines whose code part is a // comment filtered out.
matches() {
  local re=$1
  shift
  grep -rn --include='*.rs' -E "$re" "$@" 2>/dev/null |
    awk -F':' '{
      text = $0
      sub(/^[^:]*:[^:]*:/, "", text)
      sub(/^[[:space:]]*/, "", text)
      if (text !~ /^\/\//) print $0
    }'
}

hits=$(matches 'SystemTime::now|Instant::now' $DIRS)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: wall-clock time in a deterministic crate (no allowlist for this rule)"
  status=1
fi

hits=$(matches '\bHashMap\b|\bHashSet\b' $DIRS)
if [ -n "$hits" ]; then
  allowed=$(grep -v '^#' "$ALLOW" 2>/dev/null | sed 's/[[:space:]]*$//' | grep -v '^$')
  while IFS= read -r hit; do
    file=${hit%%:*}
    if ! printf '%s\n' "$allowed" | grep -qFx "$file"; then
      echo "$hit"
      echo "lint_determinism: $file uses HashMap/HashSet but is not in $ALLOW"
      status=1
    fi
  done <<<"$hits"
fi

hits=$(matches 'env::var' $ENV_DIRS)
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: environment variable read in sim/proto/mc (no allowlist for this rule)"
  status=1
fi

hits=$(matches '\.record\(|span_wait|span_seg|\.(observe|finalize|mc_fingerprint)\(|check\.as_deref_mut' $HISTORY_DIRS |
  grep -v "^$HISTORY_SINK:")
if [ -n "$hits" ]; then
  echo "$hits"
  echo "lint_determinism: instrumentation outside $HISTORY_SINK; emit a History record (no allowlist for this rule)"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "lint_determinism: OK"
fi
exit "$status"
