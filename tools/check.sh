#!/bin/sh
# Offline quality gate: tier-1 tests, self-lint of every shipped .scald
# source, and the shipped SDC files' lint and reporter agreement.  Every
# differential check between execution modes (naive, bit-blast, reverify,
# pooled, served) and the engine-vs-static crosscheck run inside tier-1,
# through repro.oracle.  No network, no arguments; run from anywhere
# inside the repository.
#
#   tools/check.sh
#
# Exit status: 0 when every stage passes, 1 on the first failure.
# REPRO_S1_SCALE is honoured by the test suite exactly as with pytest.

set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

# Run the package from src/ so the gate works without an editable install.
PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1 tests =="
python -m pytest tests/ -q

echo
echo "== scald-lint --strict over shipped .scald sources =="
# Design sources self-lint clean; the library ships macro definitions that
# lint as sources too.  find keeps the gate honest when designs are added.
designs=$(find examples src/repro/library -name '*.scald' | sort)
if [ -z "$designs" ]; then
    echo "no .scald sources found" >&2
    exit 1
fi
# shellcheck disable=SC2086
python -m repro.lint.cli --strict $designs

echo
echo "== SDC gate: shipped constraint files parse, lint and agree =="
# Every shipped .sdc must resolve against its design with zero findings
# under --strict, and the text and JSON reporters must agree on the
# verdict (same exit code, parseable stdout).
for sdc in examples/designs/*.sdc; do
    design="${sdc%.sdc}.scald"
    python -m repro.lint.cli --strict "$design" --sdc "$sdc" >/dev/null
    echo "ok: $sdc (lints clean against $design)"
done
for sdc in examples/designs/*.sdc; do
    design="${sdc%.sdc}.scald"
    text_rc=0; json_rc=0
    python -m repro.sta.cli "$design" --sdc "$sdc" >/dev/null 2>&1 || text_rc=$?
    python -m repro.sta.cli "$design" --sdc "$sdc" --json 2>/dev/null \
        | python -c 'import json,sys; json.load(sys.stdin)' || json_rc=$?
    if [ "$text_rc" -ne 0 ] || [ "$json_rc" -ne 0 ]; then
        echo "scald-sta text/JSON disagree on $design (text=$text_rc json=$json_rc)" >&2
        exit 1
    fi
    echo "ok: $design text and JSON reporters agree"
done

echo
echo "all checks passed."
