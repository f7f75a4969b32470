#!/bin/sh
# Usage: sh require-tests.sh PACKAGE PATTERN
#
# Fails unless every |-separated alternative of the `go test -run` PATTERN
# names at least one test, fuzz target or example in PACKAGE. A -run
# pattern that matches nothing makes `go test` pass having run nothing, so
# a smoke target whose tests were renamed away would pass silently; this
# check turns that into a failure. Run it before the `go test -run` it
# guards, e.g.
#
#   sh require-tests.sh ./internal/wasmvm 'TestSnapshot|TestPool'
set -eu
pkg=$1
pattern=$2
tests=$(${GO:-go} test -list . "$pkg" | grep -E '^(Test|Fuzz|Example)') || true
IFS='|'
for alt in $pattern; do
	if ! printf '%s\n' "$tests" | grep -Eq -- "$alt"; then
		echo "require-tests.sh: -run alternative '$alt' matches no test in $pkg" >&2
		exit 1
	fi
done
