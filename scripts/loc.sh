#!/usr/bin/env bash
# Prints the number of non-test Go lines in the repository — every tracked
# .go file except _test.go files, benchmark/ included — the count CHANGES.md
# reports per change (`make loc`). Files not yet added to git are not counted.
set -euo pipefail

cd "$(dirname "$0")/.."
git ls-files -z -- '*.go' ':(exclude)*_test.go' | xargs -0 cat | wc -l
