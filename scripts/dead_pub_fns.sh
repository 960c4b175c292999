#!/usr/bin/env bash
# Dead public API gate: lists every `pub fn` under crates/ whose name
# appears on only one line across the sources that could call it — its
# own definition. Exits 1 if any is found, so deleted dead functions do
# not grow back. Run from anywhere; it searches relative to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

SEARCH=(crates src tests examples perfbench/src)
hits=0
while read -r name; do
  lines=$(grep -rwh --include='*.rs' -- "$name" "${SEARCH[@]}" | wc -l)
  if [ "$lines" -le 1 ]; then
    grep -rnw --include='*.rs' -- "pub fn $name" crates
    hits=$((hits + 1))
  fi
done < <(grep -rhoE --include='*.rs' 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates \
           | awk '{print $3}' | sort -u)

if [ "$hits" -gt 0 ]; then
  echo "dead_pub_fns: $hits pub fn(s) referenced only at their definition" >&2
  exit 1
fi
echo "dead_pub_fns: none"
