#!/usr/bin/env bash
# A/A noise check: the whole suite as N interleaved pairs of runs of one
# build (default 5), alternating which side goes first. Prints, per
# workload and end-to-end metric, both medians, their difference, each
# side's spread and the bound; exits non-zero when a difference exceeds
# half its bound or a spread exceeds its bound. About a minute per pair
# and workload.
set -euo pipefail
exec bash "$(dirname "$0")/run.sh" -aa "${1:-5}" "${@:2}"
