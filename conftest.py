"""Root pytest bootstrap: src-layout path, the sanitizer plugin, hypothesis profiles.

Lives at the repository root (not under ``tests/``) because
``pytest_plugins`` must be declared in the rootdir conftest.  The path
insert makes ``import repro`` work without an explicit ``PYTHONPATH=src``.
"""

import os
import sys

from hypothesis import settings

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

pytest_plugins = ("repro.analysis.pytest_plugin",)

# Ten times tier-1's 200 examples per text-fuzz test, still derandomized:
# CI's sanitize job runs `tests/scsql/test_text_fuzz.py --hypothesis-profile=fuzz`.
settings.register_profile("fuzz", derandomize=True, database=None, deadline=None, max_examples=2000)
