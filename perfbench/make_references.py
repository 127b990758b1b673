"""
Record the reference values the benchmark's output checks compare with:
the odd-harmonic peaks of `gas_run` and the periodic orbits of
`records_analysis`.

    python3 perfbench/make_references.py

Run it from the root of a source checkout of the commit whose outputs are
the reference; it records both scales and rewrites
perfbench/references.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    from workloads import (ORBIT_ARGS, POINTS, REFERENCES, GasRun,
                           config_text, parse_orbits, spectrum_peaks)
    from hhg1d.storage import read_csv

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = HERE / ".work" / f"references-{os.getpid()}"
    refs = {}
    try:
        for scale in ("tiny", "reduced"):
            out = refs.setdefault(scale, {})
            w = GasRun("gas_run", scale, 0, work / "gas_run")
            w.setup_ops()
            w.reset()
            subprocess.run([sys.executable, "-m", "hhg1d", *w.ops()[0].argv],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            cols, _ = read_csv(w.records / "mean_series.csv")
            out["gas_run"] = spectrum_peaks(cols["t"], cols["accel"],
                                            POINTS[scale]["omega"]).tolist()
            print(f"{scale} gas_run: recorded", flush=True)
            cfg = work / "orbits.cfg"
            point = POINTS[scale]
            cfg.write_text(config_text(point, 1, 1, point["A_E"]))
            subprocess.run(
                [sys.executable, "-m", "hhg1d", "orbits", "--config",
                 str(cfg), "--out", str(work / "orbits"), *ORBIT_ARGS[scale]],
                env=env, check=True, stdout=subprocess.DEVNULL)
            out["orbits"] = parse_orbits(work / "orbits" / "orbits.txt")
            REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
