"""Print sha256 digests of the bytes the samplers and the validator emit.

One line per record, ``name digest`` (the first 16 hex digits of a
sha256). Run it in two checkouts and compare the lines: a change that
must keep every sampled byte prints the same lines as its parent.

- ``readme_*``: each ``ginibre sample`` example in README, plus the CSV
  of its projected example (the JSON also holds the sampler's params);
- ``projected_r3_csv``: ``sample --method projected --radius 3 --count
  300 --seed 11``;
- for each ``--seeds`` value S, ``validate_S_report``: the ``validate
  --scale 0.1`` report without ``runtime_seconds``, as sorted-key JSON;
  ``validate_S_decisions``: its checks' ``(name, passed, empirical)``;
  and ``validate_S_failed``: the names of its failed checks, comma
  separated, or ``-`` (a name, not a digest, so that a change that
  re-rolls the draws shows which checks fail at which seed).

BLAS runs on one thread (OPENBLAS_NUM_THREADS=1, set before numpy
loads), because from N of about 74 up the matrix route's bytes depend
on the thread count. The package is imported from this checkout's src/.

    python tools/byte_record.py --seeds 7 17 101
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ginibre import cli, validation  # noqa: E402

SAMPLES = {
    "readme_points_csv": "--method conditioned --n 9 --radius 2 --seed 7",
    "readme_s_json": "--method projected --radius 0.5 --count 1000 --seed 1 --format json",
    "readme_s_csv": "--method projected --radius 0.5 --count 1000 --seed 1",
    "readme_m_csv": "--method matrix --n 50 --count 100 --workers 2",
    "projected_r3_csv": "--method projected --radius 3 --count 300 --seed 11",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="master seeds of the validate --scale 0.1 records")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, sample_args in SAMPLES.items():
            path = Path(tmp) / name
            if cli.main(["sample", *sample_args.split(), "-o", str(path)]) != 0:
                raise SystemExit(f"byte_record: {name} failed")
            print(name, _digest(path.read_bytes()), flush=True)
    for seed in args.seeds:
        report = json.loads(validation.run_validation_suite(seed=seed, scale=0.1).to_json())
        print("\n".join(validate_records(seed, report)), flush=True)
    return 0


def validate_records(seed: int, report: dict) -> list[str]:
    """The validate_S_* lines of a report, as parsed from its JSON."""
    report = {k: v for k, v in report.items() if k != "runtime_seconds"}
    decisions = [[c["name"], c["passed"], c["empirical"]] for c in report["checks"]]
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    return [f"validate_{seed}_report {_digest(json.dumps(report, sort_keys=True).encode())}",
            f"validate_{seed}_decisions {_digest(json.dumps(decisions).encode())}",
            f"validate_{seed}_failed {','.join(failed) or '-'}"]


if __name__ == "__main__":
    sys.exit(main())
