#!/usr/bin/env bash
# The benchmark's one command. Builds the package (into
# $CARGO_TARGET_DIR when set, else benchmark/target) and runs it with
# the arguments given; see src/main.rs for the modes.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# glibc decides by the sizes it has seen whether a large block comes
# from mmap or from the heap, and trims the heap when its top crosses a
# moving threshold. A session's 16 MiB pair cache sits right on both
# edges, so one process paid 4 ms for a session's first tile and the
# next 9 ms (README, "Noise"). Fix the policy at what a long-lived
# process settles into: blocks under 32 MiB from the heap, no trimming.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824
exec cargo run --release --quiet --offline --manifest-path "$dir/Cargo.toml" -- --out "$dir/out" "$@"
