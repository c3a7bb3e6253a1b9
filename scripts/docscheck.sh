#!/usr/bin/env bash
# docscheck.sh — documentation gate for CI.
#
# Fails when:
#   1. any Go package (root, internal/*, cmd/*) lacks a package comment;
#   2. an exported top-level identifier in the public API files
#      (hsp.go, stream.go, serve.go) lacks a doc comment;
#   3. a handbook page is missing or not linked from README.md, or a
#      relative link in README.md or docs/*.md points nowhere;
#   4. the examples, commands, or any path README refers to with
#      `go run ./…` does not build.
set -u
cd "$(dirname "$0")/.."
fail=0
err() { echo "docscheck: $*" >&2; fail=1; }

# 1. Every package has a package comment: library and command packages
#    use the canonical '// Package <name>' / '// Command <name>' form;
#    example mains need any doc comment attached to the package clause.
for dir in . hspserve/ internal/*/ cmd/*/; do
    name=$(basename "$(cd "$dir" && pwd)")
    [ "$dir" = "." ] && name=hsp
    if ! grep -lq "^// Package $name\|^// Command $name" "$dir"/*.go 2>/dev/null; then
        err "package $dir has no package comment (want '// Package $name …' or '// Command $name …')"
    fi
done
for dir in examples/*/; do
    if ! grep -B1 '^package main' "$dir"/main.go | head -1 | grep -q '^//'; then
        err "example $dir has no doc comment above 'package main'"
    fi
done

# 2. Exported identifiers in the public API files carry doc comments:
#    a top-level `func|type|const|var Exported…` must be directly
#    preceded by a comment line.
for f in hsp.go stream.go serve.go stmt.go txn.go digest.go durability.go \
         hspserve/server.go hspserve/query.go hspserve/results.go \
         hspserve/registry.go hspserve/admission.go hspserve/metrics.go; do
    awk -v file="$f" '
        /^(func|type|const|var) [A-Z]/ || /^func \([a-z]+ \*?[A-Z][A-Za-z]*\) [A-Z]/ {
            if (prev !~ /^\/\//) {
                printf "docscheck: %s:%d: exported %s has no doc comment\n", file, NR, $0 > "/dev/stderr"
                bad = 1
            }
        }
        { prev = $0 }
        END { exit bad }
    ' "$f" || fail=1
done

# 3. The handbook exists and README links it.
for doc in docs/ARCHITECTURE.md docs/QUERY_GUIDE.md docs/OPERATORS.md docs/API.md docs/SERVING.md docs/REWRITES.md; do
    [ -f "$doc" ] || err "$doc is missing"
    grep -q "$doc" README.md || err "README.md does not link $doc"
done

# 3a. Every relative link in README.md and docs/*.md resolves to an
#     existing file or directory (anchors are not checked; http(s) and
#     mailto links are skipped). The exported surface itself is gated
#     by apicheck.sh against docs/api-surface.txt.
broken=$(for md in README.md docs/*.md; do
    grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//; s/#.*//' | while read -r target; do
        case "$target" in ''|http://*|https://*|mailto:*) continue ;; esac
        [ -e "$(dirname "$md")/$target" ] || echo "$md -> $target"
    done
done)
[ -z "$broken" ] || err "broken relative links: $broken"

# 4. Everything README tells the user to run still builds: all examples,
#    both commands, and each `go run ./path` target named in README.
go build ./examples/... ./cmd/... || err "examples or commands do not build"
grep -o 'go run \./[a-z/-]*' README.md | sort -u | while read -r _ _ path; do
    [ -d "$path" ] || echo "docscheck: README references $path which does not exist" >&2
done
missing=$(grep -o 'go run \./[a-z/-]*' README.md | awk '{print $3}' | sort -u | while read -r p; do [ -d "$p" ] || echo "$p"; done)
[ -z "$missing" ] || err "README references missing paths: $missing"

if [ "$fail" -ne 0 ]; then
    echo "docscheck: FAILED" >&2
    exit 1
fi
echo "docscheck: OK"
