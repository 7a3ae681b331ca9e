#!/bin/sh
# Fails if a tool's --help runs a flag head into its description.
# Usage: check_help_layout.sh TOOL...
#
# A flag line starts with "  --". It is either the head alone (a head too
# wide for the help column, whose description follows on the next line) or
# it has a space at column 17 and its description starting at column 18.
status=0
for tool in "$@"; do
    "$tool" --help 2>&1 | awk -v tool="$tool" '
        /^  --/ {
            if ($0 ~ /^  --[A-Za-z0-9-]+( [^ ]+)?$/) next
            if (substr($0, 17, 1) == " " && substr($0, 18, 1) != " ") next
            print tool ": flag head touches its description: " $0
            bad = 1
        }
        END { exit bad }' || status=1
done
exit $status
