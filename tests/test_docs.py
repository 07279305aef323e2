"""The README's examples run against the public API."""

import io
import re
from pathlib import Path

import stodep

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str = "python") -> str:
    """The first ```language block after the line `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs():
    namespace = {}
    exec(compile(_block("## Library quick tour"), "README.md", "exec"), namespace)
    assert abs(namespace["j_star"] - 1.9) < 1e-12
    assert namespace["summary"].n_reps == 1000
    assert len(namespace["trace"].steps) == namespace["inst"].horizon


def test_instance_json_example_loads_and_round_trips():
    text = re.sub(r"\s*//[^\n]*", "", _block("### Instance JSON", "jsonc"))
    inst = stodep.load_instance(io.StringIO(text))  # validates
    assert stodep.validate_instance(inst).passed
    saved = io.StringIO()
    stodep.save_instance(inst, saved)
    saved.seek(0)
    again = stodep.load_instance(saved)
    assert stodep.instance_fingerprint(again) == stodep.instance_fingerprint(inst)
    table = stodep.solve_clairvoyant(inst)
    assert table.values[table.state_index(inst.initial_items), 0] == 1.9
