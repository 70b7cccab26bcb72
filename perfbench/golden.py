#!/usr/bin/env python3
"""Rewrites perfbench/golden.json: the SHA-256 of `cpt_batch run`'s aggregate
for each benchmark manifest at base_seed 0-63.

    python3 perfbench/golden.py [--manifests sweep,e1] [--seeds 64] [--threads 4]

Run from the root of a source checkout, after perfbench/run.py has built
`.bench_build` (or $CARGO_TARGET_DIR). Aggregates are the same at every
--threads, so the digests pin rounds, messages and verdicts. Regenerate
only when a change is meant to alter them, and say so in the change.
"""
import argparse
import hashlib
import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (perfbench/run.py, next to this file)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifests", default=",".join(run.MANIFESTS))
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_args()

    batch, _ = run.ensure_built()
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text())
    work = run.build_dir() / "work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in args.manifests.split(","):
            digests = {}
            for seed in range(args.seeds):
                manifest = work / "manifest.json"
                manifest.write_text(json.dumps(dict(run.MANIFESTS[name], base_seed=seed),
                                               indent=1) + "\n")
                out = work / "aggregate.json"
                subprocess.run([batch, "run", str(manifest), f"--threads={args.threads}",
                                f"--corpus={work / 'corpus'}", f"--out={out}", "--quiet"],
                               check=True, timeout=run.CHILD_TIMEOUT_S)
                digests[str(seed)] = hashlib.sha256(out.read_bytes()).hexdigest()
                shutil.rmtree(work / "corpus", ignore_errors=True)
            golden[name] = digests
            print(f"{name}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
