"""Digests of what nilcert outputs on the benchmark's inputs, for byte-identity checks.

Run ``python3 tools/identity.py`` from a checkout (it takes no options) and
compare its one JSON line across two commits on the same Python: equal
digests mean equal bytes.  The line holds

- ``python``: the interpreter version;
- ``cli``: SHA-256 over the argv, exit code and stdout of the 44 argvs of the
  ``cli`` workload's rounds at seeds 601 and 602, each run in a fresh
  ``python -m nilcert.cli`` child;
- ``workloads``: per workload, SHA-256 over the input and in-process output
  of every op of its rounds at seeds 0 to 5 (``cli`` through ``cli.run``).

The inputs come from ``perfbench/workloads.py``, which this script only
imports.  After printing the line it compares the digests with
``tools/identity.json`` and exits 1, naming each one that differs, so CI
fails on any change of output bytes.  A change that alters them on purpose
commits the new digests there.
"""

import hashlib
import json
import os
import pathlib
import platform
import random
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (found through the path set above)

CLI_SEEDS = (601, 602)
WORKLOAD_SEEDS = range(6)


def _round(wl, seed: int) -> list[dict]:
    """The workload's round at ``seed``, seeded as the benchmark seeds it."""
    return wl.make_round(random.Random("%s:%d" % (wl.name, seed)))


def cli_digest() -> str:
    wl = workloads.Cli(str(ROOT))
    digest = hashlib.sha256()
    for seed in CLI_SEEDS:
        for item in _round(wl, seed):
            argv = item["meta"]["argv"]
            proc = subprocess.run([sys.executable, "-m", "nilcert.cli"] + argv, cwd=ROOT,
                                  env=wl.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            digest.update(workloads.dumps([argv, proc.returncode]).encode() + b"\n" + proc.stdout)
    return digest.hexdigest()


def workload_digest(name: str) -> str:
    wl = workloads.WORKLOADS[name](str(ROOT))
    run = (lambda item: wl.run_in_process(item["meta"]["argv"])) if name == "cli" else wl.run
    digest = hashlib.sha256()
    for seed in WORKLOAD_SEEDS:
        for item in _round(wl, seed):
            digest.update(workloads.dumps([item["input"], run(item)]).encode() + b"\n")
    return digest.hexdigest()


def _named(digests: dict) -> dict:
    return {"cli": digests["cli"], **{"workloads " + k: v for k, v in digests["workloads"].items()}}


def differing(report: dict, expected: dict) -> list[str]:
    """The names of the digests that differ between ``report`` and ``expected``."""
    got, want = _named(report), _named(expected)
    return sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))


def main() -> int:
    os.environ.pop("NILCERT_MAX_INDEX", None)  # as the benchmark does: the verbs' default guard
    report = {
        "python": platform.python_version(),
        "cli": cli_digest(),
        "workloads": {name: workload_digest(name) for name in workloads.WORKLOADS},
    }
    print(json.dumps(report, sort_keys=True))
    changed = differing(report, json.loads((ROOT / "tools" / "identity.json").read_text()))
    for name in changed:
        print("identity: %s digest differs from tools/identity.json" % name, file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
