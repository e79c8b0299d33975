"""Run every configuration a seed can draw once, and report whether each passes its checks.

From the root of a checkout:

    python3 perfbench/verify_seeds.py

The seed only picks the order of the two polarities and the speed offset, so
this covers every seed.  Commands whose arguments do not depend on the
offset (``reproduce``, ``sweep_large``) run once per distinct command line.
Exits 1 if any configuration fails.
"""

import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> int:
    launcher = run.Launcher(run.child_env())
    failures = 0
    try:
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            for name in workloads.WORKLOADS:
                seen = set()
                for labels, offset in workloads.all_cases():
                    op = workloads.build_case(name, labels, offset)
                    if op.commands in seen:
                        continue
                    seen.add(op.commands)
                    problems = run.run_operation(launcher, op, Path(tmp) / "op").problems
                    failures += bool(problems)
                    print(f"{name:<12} {labels[0]:<10} offset {offset:.2f}: {'; '.join(problems) or 'pass'}",
                          flush=True)
    finally:
        launcher.close()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
