"""A CI step that pipes into ``tee`` still fails when its command fails.

GitHub runs a ``run:`` block under ``bash -e`` without ``pipefail`` unless
the shell is named; a named ``bash`` runs ``bash --noprofile --norc -eo
pipefail``.  So ``command | tee log`` fails its step only if the workflow
names bash for every step, which its top-level ``defaults`` do.  The
workflow is read as text (the tests job installs no YAML parser).
"""

from __future__ import annotations

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def test_every_step_runs_under_bash_with_pipefail():
    text = WORKFLOW.read_text()
    assert re.search(r"^defaults:\n  run:\n    shell: bash$", text, re.MULTILINE)
    # No job or step names another shell in its place.
    assert re.findall(r"^\s*shell:\s*(\S+)", text, re.MULTILINE) == ["bash"]
