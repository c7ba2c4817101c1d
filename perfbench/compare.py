"""Compare two benchmark results written under ``.perfbench/results/``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both results and their ratio.  Refuses, with exit
code 2, to compare results whose Cox kernel backend, workload or input
digests differ, or a traced pass with a timed one: numbers from another
kernel path or from other inputs say nothing about the change under test.
"""

import json
import sys

MUST_MATCH = ("backend", "workload", "input_digests")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def mismatches(base, new):
    out = [key for key in MUST_MATCH if base["provenance"].get(key) != new["provenance"].get(key)]
    if set(base["metrics"]) != set(new["metrics"]):
        out.append("metric set (one is a traced pass, the other timed)")
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    bad = mismatches(base, new)
    if bad:
        print(f"refusing to compare: {', '.join(bad)} differ", file=sys.stderr)
        return 2
    for key in ("python", "numpy", "nproc"):
        if base["provenance"].get(key) != new["provenance"].get(key):
            print(f"note: {key} differs ({base['provenance'].get(key)} vs "
                  f"{new['provenance'].get(key)})")
    print(f"{'metric':<44} {'base':>12} {'new':>12} {'new/base':>9}")
    for name, entry in sorted(base["metrics"].items()):
        b, n = entry["value"], new["metrics"][name]["value"]
        ratio = f"{n / b:9.4f}" if b else f"{'-':>9}"
        print(f"{name:<44} {b:>12.6g} {n:>12.6g} {ratio} {entry['unit']}")
    print(f"failed: {base['failed']}/{base['attempted']} -> {new['failed']}/{new['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
