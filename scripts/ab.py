#!/usr/bin/env python3
"""A/B-time two `mia` binaries on one command line.

Stdlib-only. Runs the base binary and the changed binary on the same
arguments in N interleaved pairs, alternating which of the two runs
first in each pair (so a slow spell of the host, or a warm file cache,
does not favour one side). Prints each side's median and quartiles of
the wall time, the median ratio, and in how many pairs the change was
faster. Standard output of the runs is discarded; a failing run aborts
the comparison with its stderr.

With `--same-stdout`, every run's standard output must be identical
across the two sides after deleting the text that matches `--mask` (a
regex, e.g. the wall-clock fields), which checks that the change did
not alter the result while timing it.

Examples:

    scripts/ab.py old/mia new/mia -- optimize nl16.json --arbiters rr \\
        --threads 1 --seed 1 --budget-evals 1000
    scripts/ab.py -n 20 old/mia new/mia -- analyze ls16.json --arbiter rr
    scripts/ab.py --same-stdout --mask 'seconds": [0-9.e-]+|[0-9.]+s$' \\
        old/mia new/mia -- optimize rosace --budget-evals 300 --seed 7
"""

import argparse
import re
import statistics
import subprocess
import sys
import time


def run_once(binary, args):
    """Wall seconds and stdout of one run; exits on failure."""
    started = time.perf_counter()
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        sys.exit(f"{binary} {' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stderr.decode(errors='replace')}")
    return elapsed, proc.stdout.decode(errors='replace')


def summary(times):
    """Median and the first and third quartiles, in milliseconds."""
    ms = sorted(t * 1e3 for t in times)
    if len(ms) == 1:
        return ms[0], ms[0], ms[0]
    q1, med, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return med, q1, q3


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="the binary before the change")
    parser.add_argument("change", help="the binary after the change")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="arguments for both binaries, after `--`")
    parser.add_argument("-n", "--pairs", type=int, default=10,
                        help="number of interleaved pairs (default 10)")
    parser.add_argument("--same-stdout", action="store_true",
                        help="require identical standard output on both sides")
    parser.add_argument("--mask", default=None,
                        help="regex of stdout text --same-stdout deletes")
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if not args:
        parser.error("no command line to run (give it after `--`)")
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")
    mask = re.compile(opts.mask, re.MULTILINE) if opts.mask else None

    def canonical(out):
        return mask.sub("", out) if mask else out

    base_times, change_times, wins = [], [], 0
    reference = None
    for pair in range(opts.pairs):
        sides = [("base", opts.base), ("change", opts.change)]
        if pair % 2 == 1:
            sides.reverse()
        took = {}
        for name, binary in sides:
            took[name], out = run_once(binary, args)
            if opts.same_stdout:
                out = canonical(out)
                if reference is None:
                    reference = out
                elif out != reference:
                    sys.exit(f"pair {pair + 1}: {name} printed a different result")
        base_times.append(took["base"])
        change_times.append(took["change"])
        wins += took["change"] < took["base"]
        print(f"pair {pair + 1:2}: base {took['base'] * 1e3:8.1f} ms  "
              f"change {took['change'] * 1e3:8.1f} ms", flush=True)

    b_med, b_q1, b_q3 = summary(base_times)
    c_med, c_q1, c_q3 = summary(change_times)
    print(f"base   median {b_med:8.1f} ms  quartiles {b_q1:.1f}..{b_q3:.1f}  "
          f"(IQR {b_q3 - b_q1:.1f})")
    print(f"change median {c_med:8.1f} ms  quartiles {c_q1:.1f}..{c_q3:.1f}  "
          f"(IQR {c_q3 - c_q1:.1f})")
    print(f"change/base median {c_med / b_med:.3f}  "
          f"({(c_med / b_med - 1) * 100:+.1f}%), change faster in "
          f"{wins}/{opts.pairs} pairs")


if __name__ == "__main__":
    main()
