"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py SPANS.jsonl serve [repro serve args...]

The server behaves exactly as ``python3 -m repro.cli serve ...``; when it
has drained (SIGTERM), the spans it recorded are written to SPANS.jsonl.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    import tracing
    from repro.cli import main as repro_main

    recorder = tracing.Recorder(Path(argv[1]))
    tracing.install(recorder)
    try:
        return repro_main(argv[2:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
