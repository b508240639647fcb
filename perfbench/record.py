"""Record the expected output of every op any seed can draw.

Usage, from the root of a checkout: python3 perfbench/record.py

Runs each op once as a cold process, the way run.py does, and rewrites
expected.json.  Reports marked "exact": false are kept whole and compared
within run.APPROX_TOL; every other stdout is kept as its SHA-256 and must
match byte for byte.  Record only from a commit whose outputs are known to
be right; run.py then holds every later commit to them.
"""

import json
import sys

import run


def main():
    run.WORK.mkdir(exist_ok=True)
    expected = {}
    for args in run.all_ops():
        proc = run.Runner().spawn(run.qh_argv(args))
        key = " ".join(args)
        if proc.code != 0 or proc.err or proc.timed_out:
            sys.exit(f"record: {key} failed with exit {proc.code}: "
                     + proc.err.decode(errors="replace")[-500:])
        if args == ["verify"] and not run.verify_semantics(proc.out):
            sys.exit("record: verify is not ok with exactly the gr:3,9 discrepancy")
        expected[key] = run.expected_record(proc.out)
        print(f"{proc.wall:7.2f} s  {key}", flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
