#!/bin/sh
# plan_range_diff.sh OLD_REV [NEW_REV]
#
# Compares the plans TestPlanIdentityGolden digests at two revisions of this
# repository, in full text rather than digests: every plan line with its
# v<i>=[lo,hi] validity fields stripped, and every candidates= count, must be
# equal, and every validity range that moved must have tightened. It prints
# each moved edge, the moved count per workload and strategy, and the total;
# it exits non-zero on any other difference or on a loosened range. Without
# NEW_REV the working tree (tracked and untracked, not ignored) is compared.
#
# Each side is checked out into a temporary directory; the dump and compare
# tests of internal/pop/testdata/rangediff_test.go run there.
set -eu
[ $# -ge 1 ] || { echo "usage: $0 OLD_REV [NEW_REV]" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
helper="$root/internal/pop/testdata/rangediff_test.go"

git -C "$root" archive "$1" | tar -x -C "$tmp" --one-top-level=old
mkdir "$tmp/new"
if [ $# -ge 2 ]; then
	git -C "$root" archive "$2" | tar -x -C "$tmp/new"
else
	(cd "$root" && git ls-files -z -co --exclude-standard --deduplicate |
		xargs -0 sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh |
		tar -c --null -T - -f -) | tar -x -C "$tmp/new"
fi

for side in old new; do
	cp "$helper" "$tmp/$side/internal/pop/zz_rangediff_test.go"
	(cd "$tmp/$side" && PLAN_TEXTS="$tmp/$side.txt" \
		go test -count=1 -run '^TestDumpPlanTexts$' ./internal/pop >/dev/null)
done
cd "$tmp/new"
OLD_TEXTS="$tmp/old.txt" NEW_TEXTS="$tmp/new.txt" \
	go test -count=1 -v -run '^TestCompareRangeTexts$' ./internal/pop |
	sed -n 's/^ *zz_rangediff_test.go:[0-9]*: //p; /^--- /p; /^FAIL/p'
