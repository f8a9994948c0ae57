"""Root pytest bootstrap: src-layout path, the sanitizer modes, hypothesis profiles.

Lives at the repository root (not under ``tests/``) so that its options
are registered before the command line is parsed.  The path insert makes
``import repro`` work without an explicit ``PYTHONPATH=src``.

Two opt-in sanitizer modes:

* ``--sanitize`` — every test runs inside a
  :func:`repro.analysis.sanitize.sanitizer` scope: each
  ``Deployment.teardown()`` / ``Deployer.migrate()`` the test triggers is
  audited for leaks, and a test whose scope ends with findings **fails**
  with the ``SANxxx`` report.  Deployments torn down while their simulator
  still had queued events get their liveness audit at test end, and only
  if the queue drained by then — a test may legitimately abandon a
  half-run simulation.  Mark a test ``@pytest.mark.no_sanitize`` to exempt
  it (e.g. tests that construct deliberately-leaky wreckage).
* ``--chaos-seed N`` — tests marked ``@pytest.mark.chaos`` run under
  :func:`repro.analysis.sanitize.chaos`: every default-configured
  simulator they build gets a seeded
  :class:`~repro.sim.scheduler.ShuffleScheduler` and the order-independent
  :class:`~repro.net.jitter.KeyedJitter`.  Chaos-marked tests assert
  seed-independence of their own results, so running the suite under
  several ``--chaos-seed`` values (CI does 3) is a schedule-race sweep.

Both modes compose: ``pytest --sanitize --chaos-seed 7``.
"""

import os
import sys
from contextlib import ExitStack

import pytest
from hypothesis import settings

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis import sanitize  # noqa: E402  (needs the path above)

# Ten times tier-1's 200 examples per text-fuzz test, still derandomized:
# CI's sanitize job runs `tests/scsql/test_text_fuzz.py --hypothesis-profile=fuzz`.
settings.register_profile("fuzz", derandomize=True, database=None, deadline=None, max_examples=2000)


def pytest_addoption(parser):
    group = parser.getgroup("sanitize", "repro dynamic sanitizers")
    group.addoption(
        "--sanitize", action="store_true", default=False,
        help="audit every deployment teardown/migration for leaks "
        "(SAN2xx/SAN3xx) and fail tests whose sanitizer scope has findings",
    )
    group.addoption(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="run @pytest.mark.chaos tests under ShuffleScheduler(N) and "
        "keyed jitter (same-instant event order permuted)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: replay this test under the chaos scheduler when --chaos-seed is given",
    )
    config.addinivalue_line(
        "markers",
        "no_sanitize: exempt this test from the --sanitize leak audit "
        "(it builds deliberately-leaky state)",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    chaos_seed = item.config.getoption("--chaos-seed")
    apply_chaos = chaos_seed is not None and item.get_closest_marker("chaos") is not None
    apply_sanitizer = (
        item.config.getoption("--sanitize")
        and item.get_closest_marker("no_sanitize") is None
        # A nested scope (a test exercising the sanitizer itself) would
        # refuse to start; such tests audit themselves already.
        and not sanitize.enabled()
    )
    scope = None
    with ExitStack() as stack:
        if apply_chaos:
            stack.enter_context(sanitize.chaos(chaos_seed))
        if apply_sanitizer:
            scope = stack.enter_context(sanitize.sanitizer(label=item.nodeid, strict=False))
        result = yield
    if scope is not None and not scope.report.ok():
        pytest.fail("sanitizer findings:\n" + scope.report.format_text(), pytrace=False)
    return result
