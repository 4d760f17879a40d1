#!/usr/bin/env bash
# Prints the analyzer coverage counter (`functions_modeled`) of a
# `pruneperf check --json` report next to the checked-in baseline
# (CHECK_COVERAGE.json), with its delta. Informational only — a growing
# tree legitimately moves the number; the point is making the movement
# visible in the CI log.
#
# Usage: scripts/coverage_delta.sh <current-check.json> <baseline.json>
set -euo pipefail

current="$1"
baseline="$2"

field() {
  grep -o "\"$2\": *[0-9][0-9]*" "$1" | head -n 1 | grep -o '[0-9][0-9]*$'
}

key=functions_modeled
cur="$(field "$current" "$key")"
base="$(field "$baseline" "$key")"
printf '%s: %s (baseline %s, delta %+d)\n' "$key" "$cur" "$base" "$((cur - base))"
