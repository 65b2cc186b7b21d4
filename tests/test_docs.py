"""The README names every part of the public API."""
import re
from pathlib import Path

import adaptpart

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in adaptpart.__all__ if not re.search(rf"\b{name}\b", text)]
    assert missing == []
