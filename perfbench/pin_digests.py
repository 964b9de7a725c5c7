"""Pin the campaign digests the benchmark checks every run against.

Usage, from the repository root::

    python3 perfbench/pin_digests.py [--workload campaign_town] [--cross-check]

For each campaign workload and every input seed ``0 .. SEED_RESIDUES - 1``
this runs the workload's campaign once and writes the rows digest to
``perfbench/digests.json``.  ``--cross-check`` reruns each campaign with the
other shard count (one shard, the vectorized backend, where the workload
runs sharded; two shards where it runs on one) and refuses to pin when the
rows differ.  Re-pin only when a change is meant to alter
campaign results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import campaigns  # noqa: E402


def pin(workload: str, seed: int, cross_check: bool) -> dict:
    spec = campaigns.WORKLOADS[workload]
    households = campaigns.generate_households(spec.town, spec.households, seed)
    run = campaigns.run_campaign(campaigns.build_planner(households, seed), spec.config())
    if run.lost_days:
        raise RuntimeError(f"{workload} seed {seed}: {run.lost_days} day(s) failed")
    if cross_check:
        config = spec.config()
        config = config.replace(shards=1 if config.resolved_shards() > 1 else 2)
        other = campaigns.run_campaign(campaigns.build_planner(households, seed), config)
        if other.digest != run.digest:
            raise RuntimeError(f"{workload} seed {seed}: rows differ with {config.shards} shard(s)")
    return run.digest


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(campaigns.WORKLOADS), action="append")
    parser.add_argument("--cross-check", action="store_true")
    arguments = parser.parse_args(argv)
    path = campaigns.DIGESTS_PATH
    pinned = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in arguments.workload or sorted(campaigns.WORKLOADS):
        for seed in range(campaigns.SEED_RESIDUES):
            digest = pin(workload, seed, arguments.cross_check)
            pinned.setdefault(workload, {})[str(seed)] = digest
            print(workload, seed, digest, flush=True)
            path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
