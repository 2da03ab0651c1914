#!/usr/bin/env python3
"""Run a command and fail if its peak resident set exceeds a bound.

    python3 scripts/peak_rss_gate.py --max-mib 200 -- \\
        ./build/tools/edgertfleet --nodes nx:100 ...

The peak comes from the child's own rusage (ru_maxrss via os.wait4),
so it measures what the program allocates, not how fast the host is.
Linux carries the spawning process's high-water mark across exec, so
the reading never goes below this wrapper's own footprint (about
14 MiB with CPython 3.11); choose bounds well above that floor.
Exits with the command's status if that is non-zero, 1 if the peak is
above the bound, else 0.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mib", type=float, required=True,
                    help="largest allowed peak RSS in MiB")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="command to run, after --")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    child = subprocess.Popen(cmd)
    _, status, usage = os.wait4(child.pid, 0)
    # Reaped here, so tell Popen it need not wait for the child.
    child.returncode = rc = os.waitstatus_to_exitcode(status)
    peak_mib = usage.ru_maxrss / 1024.0  # Linux reports KiB
    print("peak RSS %.1f MiB (bound %.1f MiB)" % (peak_mib, args.max_mib))
    if rc != 0:
        print("command exited with status %d" % rc, file=sys.stderr)
        return rc if rc > 0 else 1  # negative: killed by a signal
    if peak_mib > args.max_mib:
        print("FAIL: peak RSS above the bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
