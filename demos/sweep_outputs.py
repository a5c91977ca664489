"""Run the bundled sweep config and show the serialized outputs.

parse_config validates the whole file before anything runs; run_sweep
evaluates the metal baseline plus the full graphene grid; emit writes
deterministic CSV (a spectra/summary pair) or a single JSON document.
The same flow is available from the command line as `thzpatch sweep`.

Run: python3 demos/sweep_outputs.py
"""

import json
import tempfile
from pathlib import Path

from thzpatch import emit, parse_config, run_sweep

config_path = Path(__file__).parent.parent / "paper.cfg"
config = parse_config(config_path.read_text())
print(f"config: {config_path.name}")
print(f"  design frequency  {config.design_frequency / 1e9:.0f} GHz")
print(f"  fermi levels      "
      f"{', '.join(f'{v:g}' for v in config.fermi_levels)} eV")
print(f"  relaxation times  "
      f"{', '.join(f'{v:g}' for v in config.relaxation_times)} ps")
print(f"  band              {config.frequency_band[0] / 1e9:.0f}-"
      f"{config.frequency_band[1] / 1e9:.0f} GHz, "
      f"{config.frequency_points} points")

results = run_sweep(config)
solved = sum(1 for c in results if c.error is None)
print(f"  cells             {solved}/{len(results)} solved")
print()

with tempfile.TemporaryDirectory() as tmp:
    base = str(Path(tmp) / "run")
    emit(results, "csv", base)
    emit(results, "json", base)

    summary = Path(f"{base}_summary.csv").read_text().splitlines()
    print("summary csv (first rows):")
    for line in summary[:6]:
        print(f"  {line}")
    print(f"  ... {len(summary) - 1} rows total")
    print()

    doc = json.loads(Path(f"{base}.json").read_text())
    best = max(doc["summary"][1:], key=lambda r: r["G_dBi"])
    print("best graphene cell from the json document:")
    print(f"  {json.dumps(best)}")
