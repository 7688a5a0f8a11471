"""Store reference outputs for the correctness gate.

    python3 perfbench/record_references.py --seeds 1 2 [--workload NAME ...]

Runs one pass of each workload per seed with the library in this checkout's
``src`` and writes every request's checked values to
``perfbench/references/<workload>.json.gz``, keyed by request fingerprint.
Existing entries are kept; an entry that a new run disagrees with is an
error, because references must come from one version of the library.
"""

from __future__ import annotations

import argparse
import sys

import run as bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--workload", nargs="*")
    args = parser.parse_args(argv)
    bench._import_library()
    import check
    import workloads

    for name in args.workload or workloads.WORKLOADS:
        refs = check.load_references(name)
        for seed in args.seeds:
            wl = workloads.build(name, seed)
            for request in [wl.warmup, *wl.requests]:
                result = check.outcome(request.run())
                reason = check.verdict(result, refs.get(request.fingerprint))
                if reason:
                    print(f"{name} seed {seed} {request.fingerprint}: {reason}",
                          file=sys.stderr)
                    return 1
                refs[request.fingerprint] = result
            print(f"{name}: seed {seed} recorded, {len(refs)} requests stored")
        check.save_references(name, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
