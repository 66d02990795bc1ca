#!/usr/bin/env bash
# Full pre-merge check. The stage matrix lives in xtask (`STAGES` in
# xtask/src/main.rs); `--stage <name>` runs one stage.
cd "$(dirname "$0")/.." && exec cargo run -q -p xtask -- check "$@"
