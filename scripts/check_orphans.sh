#!/usr/bin/env bash
# Fail if a public item defined under crates/ is named nowhere but at its
# own definition. A `pub fn/struct/enum/trait/const/type` whose name occurs
# exactly once across the workspace's Rust sources has no caller, no test,
# no re-export and no doc link: it is dead code that still costs a reader.
#
# Occurrences are whole-word matches in every *.rs file under crates, src,
# tests, examples and hsmbench (build output directories excluded). Only
# plain grep, sort and awk are used, so the check runs on a bare CI image.
#
# The check matches names, not items, so a pass does not prove that no dead
# public surface is left. Every occurrence counts, in comments and doc text
# too, and a method that shares its name with a field or another item passes.
# Struct fields are not checked, nor are items reached only by their own
# unit tests.
#
# Usage: scripts/check_orphans.sh
set -euo pipefail
cd "$(dirname "$0")/.."

DIRS=(crates src tests examples hsmbench)

# Word frequencies over the whole corpus, one "count word" line each.
counts=$(grep -rohw --include='*.rs' --exclude-dir=target \
    '[A-Za-z_][A-Za-z0-9_]*' "${DIRS[@]}" | sort | uniq -c)

# Every public item name defined under crates/.
names=$(grep -rohE --include='*.rs' --exclude-dir=target \
    'pub (const fn|async fn|unsafe fn|fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*' \
    crates | awk '{ print $NF }' | sort -u)

orphans=$(awk 'NR == FNR { seen[$1] = 1; next }
               seen[$2] && $1 == 1 { print $2 }' \
    <(printf '%s\n' "$names") <(printf '%s\n' "$counts"))

if [ -n "$orphans" ]; then
    while IFS= read -r name; do
        # The name occurs exactly once, so this is its definition line.
        where=$(grep -rnw --include='*.rs' --exclude-dir=target "$name" crates)
        echo "FAIL: public item '$name' is never used ($where)" >&2
    done <<<"$orphans"
    echo "Delete the item, or call it from the code or tests that need it." >&2
    exit 1
fi
echo "OK: every public item under crates/ is named outside its definition."
