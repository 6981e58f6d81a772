#!/usr/bin/env bash
# Non-test line count of the workspace crates, the figure that line-delta
# claims quote.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh REV      # any revision, read through `git archive`
#
# Counts every line of every `.rs` file under `crates/`, except files in a
# `tests/` or `benches/` directory, and except each top-level `#[cfg(test)]`
# item: the attribute line through the brace that closes the item (or the
# `;` that ends a body-less one). Braces are matched by a plain count, so a
# brace inside a string or char literal of a test module would skew it.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 |
    sort -z |
    xargs -0 awk '
      FNR == 1 { skip = 0 }
      skip == 0 && /^#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
      skip == 1 {
        n = split($0, ch, "")
        for (i = 1; i <= n; i++) {
          if (ch[i] == "{") { depth++; opened = 1 }
          else if (ch[i] == "}") depth--
          else if (ch[i] == ";" && !opened) break
        }
        if (opened ? depth == 0 : i <= n) skip = 0
        next
      }
      { total++ }
      END { print total + 0 }'
}

if [ $# -eq 0 ]; then
  count crates
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  git archive "$1" crates | tar -x -C "$tmp"
  count "$tmp/crates"
fi
