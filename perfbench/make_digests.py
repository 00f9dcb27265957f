"""Regenerate ``expected_digests.json`` for the default seed.

    python3 perfbench/make_digests.py

Every cell the benchmark can run on :data:`plan.DEFAULT_SEED` (both grids,
the serve catalogue and the first :data:`FRESH_CELLS` never-seen serve
cells) is simulated under ``engine=interp``, the reference engine, so the
committed digests do not come from the fast path being measured. Run it
only when the simulated model changes on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import passes  # noqa: E402
import plan  # noqa: E402

#: Never-seen serve cells covered; later ones are re-simulated per run.
FRESH_CELLS = 500


def main() -> int:
    seed = plan.DEFAULT_SEED
    cells = (
        plan.paper_grid_cells(seed)
        + plan.envelope_cells(seed)
        + plan.serve_catalogue(seed)
        + [plan.fresh_cell(seed, i) for i in range(FRESH_CELLS)]
    )
    store = HERE.parent / ".perfbench_work" / "digests"
    try:
        digests = passes.reference_digests(cells, store, workers=2)
    finally:
        shutil.rmtree(store, ignore_errors=True)
        try:
            store.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    payload = {"seed": seed, "engine": "interp", "digests": dict(sorted(digests.items()))}
    (HERE / "expected_digests.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
