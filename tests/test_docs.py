import os
import re
import subprocess
import sys
from pathlib import Path

import fhtp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_what_its_comments_state():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(Path(fhtp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["True 5", "True"]
