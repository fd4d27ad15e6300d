#!/bin/sh
# Full gate plus the fuzz smoke; the Makefile is the one place their steps
# are written down.
cd "$(dirname "$0")/.." && exec make check fuzz-smoke
