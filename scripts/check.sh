#!/bin/sh
# The full gate; the Makefile is the one place its steps are written down.
cd "$(dirname "$0")/.." && exec make check
