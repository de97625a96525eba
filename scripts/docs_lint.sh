#!/usr/bin/env bash
# docs_lint.sh — dependency-free markdown link check over the repo's *.md
# files: every relative link target must exist on disk. External links
# (http/https/mailto) and pure in-page anchors are skipped; a relative link
# with an anchor is checked for the file part only. The maintained documents
# (README/ARCHITECTURE/OPERATIONS/MEMBERSHIP) also name files in backticks
# without linking them, so there a backticked `NAME.md` must exist too; the
# append-only logs (CHANGES/ROADMAP/ISSUE/...) may name files that are gone. Runs in CI's lint
# job so a doc rename or removal cannot silently strand references in the
# other documents.
#
# Usage: scripts/docs_lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r -d '' md; do
  dir=$(dirname "$md")
  # Inline links and images: [text](target) / ![alt](target). The sed pulls
  # the parenthesized target; titles ("...") and anchors (#...) are stripped
  # before the existence check. Inline code spans are dropped first: link
  # syntax quoted in backticks is not a link.
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path=${target%%#*}
    path=${path%% *}
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "$md: broken link -> $target" >&2
      fail=1
    fi
  done < <(sed 's/`[^`]*`//g' "$md" | grep -o '!\?\[[^]]*\]([^)]*)' | sed 's/.*](\([^)]*\))/\1/')
done < <(find . -name '*.md' -not -path './.git/*' -print0)

# These four live at the repo root, so the root is also their own directory.
for md in README.md ARCHITECTURE.md OPERATIONS.md MEMBERSHIP.md; do
  while IFS= read -r name; do
    if [ ! -e "$name" ]; then
      echo "$md: names a missing file -> \`$name\`" >&2
      fail=1
    fi
  done < <(grep -o '`[A-Za-z0-9_./-]*\.md`' "$md" | tr -d '`' | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "docs lint FAILED" >&2
  exit 1
fi
echo "docs lint OK"
