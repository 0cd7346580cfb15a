#!/usr/bin/env bash
# Check the refactor contract: the README command set gives the same files,
# stdout, stderr and exit codes on this checkout as on git revision REF.
# Runs this tree's tools/readme_outputs.sh on both sides, so one command set
# runs against each tree's own src/, then `diff -r` of the two output trees.
# Prints nothing and exits 0 when they agree; prints the differences and
# exits 1 when they do not.
#
#   tools/readme_diff.sh [REF]      (REF defaults to HEAD)
#
# REF is extracted with `git archive`; this side is the working tree, with
# its uncommitted changes.
set -euo pipefail

if [ $# -gt 1 ]; then
    echo "usage: $0 [REF]" >&2
    exit 2
fi
ref=${1:-HEAD}
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
# The script resolves src/ from its own location.
mkdir -p "$tmp/ref/tools"
cp "$root/tools/readme_outputs.sh" "$tmp/ref/tools/readme_outputs.sh"
bash "$tmp/ref/tools/readme_outputs.sh" "$tmp/out-ref"
bash "$root/tools/readme_outputs.sh" "$tmp/out-tree"
diff -r "$tmp/out-ref" "$tmp/out-tree"
