#!/bin/sh
# solver CI tier: certify the static SO-BMA solver behind its blossom kernel.
#   * tests/test_solver_backends.py — the SOLVER_BACKENDS registry (nx /
#     array): the array-vs-nx identity differential (same matchings, not
#     merely equal weight) on small sparse graphs, dense complete graphs
#     with tied and spread weights in float and exact-int arithmetic, and
#     an iterated 100-node solve; plus prefix sharing, the demand memo,
#     backend selection and run provenance;
#   * tests/test_matching_static_solver.py — greedy, iterated blossom and
#     exact b-matching quality and validity;
#   * tests/test_solver_pin.py — a digest of an 18-round solve on a
#     100-node, 3 600-pair demand, where the nx oracle is too slow to run.
# Run it after any change to src/repro/matching/blossom.py.  The same tests
# run in the default suite; this script is the focused entry point.
# Extra pytest arguments are passed through.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    exec python -m pytest -q \
    tests/test_solver_backends.py \
    tests/test_matching_static_solver.py \
    tests/test_solver_pin.py \
    "$@"
