#!/usr/bin/env bash
# Fails when a pima:: function is defined in a src/ library but no shipped
# binary reaches it, unless tools/unreached_allowlist.txt lists it with a
# reason. Also fails on an allow-list entry that matches nothing unreached:
# the function became reachable or was deleted, so the entry must go.
#
# Usage: tools/check_unreached.sh [build-dir]     (default: build-reach)
#
# Method:
#   - configure perfbench/layers (the repository's own CMake files plus the
#     layer probes) at -O0 with one section per function, and link with
#     --gc-sections. CMAKE_BUILD_TYPE=None keeps CMakeLists.txt from forcing
#     Release, whose inlining would hide callers;
#   - build every src/ library and every shipped binary: the tools, the
#     benches, the examples and perfbench_layers (tests are not shipped);
#   - a function is unreached when its demangled name is a strong text
#     symbol (nm type T) of a library and appears in no binary's nm.
#
# Not covered: functions defined inline in headers, templates and other
# weak symbols (nm type W), and file-local functions (type t). A header-only
# function that no binary calls is not found.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build-reach}
allow="$root/tools/unreached_allowlist.txt"

libs=$(sed -n 's/^add_subdirectory(\(.*\))$/pima_\1/p' "$root/src/CMakeLists.txt")
bins="pima_asm pima_devd pima_fuzz perfbench_layers
$(sed -n 's/^pima_add_bench(\(.*\))$/\1/p' "$root/bench/CMakeLists.txt")
$(sed -n 's/^pima_add_example(\(.*\))$/\1/p' "$root/examples/CMakeLists.txt")"

cmake -S "$root/perfbench/layers" -B "$build" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections > /dev/null
# shellcheck disable=SC2086  # the target lists are word lists
cmake --build "$build" -j"$(nproc)" --target $libs $bins > /dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# nm -P prints "name type value size"; archives add "lib.a[member]:" lines.
for lib in $libs; do
  nm -P --defined-only "$(find "$build" -name "lib$lib.a" -print -quit)"
done | awk '$2 == "T" { print $1 }' | c++filt | grep '^pima::' \
  | sort -u > "$tmp/defined"
for bin in $bins; do
  nm -P --defined-only "$(find "$build" -type f -name "$bin" -print -quit)"
done | awk '{ print $1 }' | c++filt | sort -u > "$tmp/reached"
comm -23 "$tmp/defined" "$tmp/reached" > "$tmp/unreached"

# Allow-list lines: "<glob over the demangled signature> <reason>".
status=0
declare -A allowed=()
while read -r glob reason; do
  [[ -z "$glob" || "$glob" == \#* ]] && continue
  if [[ -z "$reason" ]]; then
    echo "allow-list entry without a reason: $glob" >&2
    status=1
  fi
  hit=0
  while IFS= read -r fn; do
    # shellcheck disable=SC2053  # the right-hand side is a glob on purpose
    if [[ "$fn" == $glob ]]; then
      allowed["$fn"]=1
      hit=1
    fi
  done < "$tmp/unreached"
  if [[ $hit -eq 0 ]]; then
    echo "allow-list entry matches no unreached function (now reached, or gone): $glob" >&2
    status=1
  fi
done < "$allow"

count=0
while IFS= read -r fn; do
  if [[ -z "${allowed[$fn]:-}" ]]; then
    echo "unreached by any shipped binary: $fn" >&2
    count=$((count + 1))
    status=1
  fi
done < "$tmp/unreached"

echo "$(wc -l < "$tmp/defined") pima:: functions defined in src/," \
  "$(wc -l < "$tmp/unreached") unreached, ${#allowed[@]} of them allow-listed," \
  "$count not"
exit $status
