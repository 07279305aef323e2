"""The README's Python examples run against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after the line `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs():
    namespace = {}
    exec(compile(_python_block("## Library quick tour"), "README.md", "exec"), namespace)
    assert abs(namespace["j_star"] - 1.9) < 1e-12
    assert namespace["summary"].n_reps == 1000
    assert len(namespace["trace"].steps) == namespace["inst"].horizon
