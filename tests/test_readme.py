"""The README's Library-use example runs as written and prints what it quotes."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    # The values the block's comments quote.
    assert "# ~0.867" in block and "# (17784.8..., 117174.4...)" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    margin, oracle, band = out.getvalue().splitlines()
    assert round(float(margin), 3) == 0.867
    assert abs(float(oracle) - float(margin)) < 1e-5
    assert re.fullmatch(r"\(17784\.8\d*, 117174\.4\d*\)", band), band
