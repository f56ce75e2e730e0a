"""Write the reference outputs that ``checks.py`` compares against.

    python3 perfbench/make_reference.py

Runs ``errormap`` and ``compare-taylor`` of every workload that has them
and stores their CSV values in ``perfbench/reference/<workload>.npz``.
Only rerun this when an output is meant to change, and say why.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # first: it fixes the BLAS thread count before numpy loads
import checks


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tidict.cli

    run.REFERENCE.mkdir(exist_ok=True)
    for workload in run.WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(run.make_config(workload, 0)))
            for sub in ("errormap", "compare-taylor"):
                if sub in workload.subcommands:
                    code = tidict.cli.main([sub, "--config", str(config), "--out", tmp])
                    if code != 0:
                        print(f"{workload.name} {sub}: exit {code}", file=sys.stderr)
                        return 1
            checks.write_reference(Path(tmp), run.REFERENCE / f"{workload.name}.npz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
