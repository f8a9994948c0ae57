"""A run imports what it runs.

A query over synthetic arrays needs neither numpy nor the optimizer, the
benchmark harness, the workload generators or a process pool; each loads
when code that uses it runs.  And whatever a run imports first imports:
every module of ``repro`` can be the first one loaded.  Every check starts
a fresh interpreter, since the test process itself has imported everything.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

P2P_QUERY = (
    "select extract(b) from sp a, sp b "
    "where b=sp(streamof(count(extract(a))), 'bg', 0) "
    "and a=sp(gen_array(200000,5), 'bg', 1);"
)

#: The README quickstart query, then a ``signals`` deck query (FFT over numpy
#: arrays) in the same interpreter, checked against numpy's own FFT.
SCRIPT = f'''
import json, sys
from repro import SCSQSession

LAZY = ("numpy", "multiprocessing", "concurrent.futures", "repro.optimizer",
        "repro.bench", "repro.workloads")
quickstart = SCSQSession().execute("{P2P_QUERY}")
loaded = [name for name in LAZY if name in sys.modules]

from repro.bench.query_stream import SMOKE_SCALE, build_query, registered

query = build_query("signals", 0, SMOKE_SCALE)
(name, source), = query.sources.items()
with registered([query]):
    counted = SCSQSession().execute(query.query)
    spectra = SCSQSession().execute(
        "select extract(f) from sp s, sp f "
        "where f=sp(fft(extract(s)), 'bg', 0) "
        "and s=sp(receiver('" + name + "'), 'be', urr('be'));"
    )
import numpy as np

signals = list(source())
print(json.dumps({{
    "quickstart": quickstart.scalar_result,
    "loaded": loaded,
    "counted": counted.result == [query.expected_result],
    "payload": query.payload_bytes == sum(signal.nbytes for signal in signals),
    "fft": len(spectra.result) == len(signals) > 0 and all(
        np.allclose(spectrum, np.fft.fft(signal))
        for spectrum, signal in zip(spectra.result, signals)
    ),
}}))
'''


#: The observability plane and the sweep harness: no hooks-off run loads them.
PLANE = (
    "repro.obs.flow", "repro.obs.live", "repro.obs.health", "repro.obs.metrics",
    "repro.obs.profile", "repro.core.measurement", "repro.core.parallel",
)

#: Modules a hooks-off query over synthetic arrays runs no code of: the
#: plane, the sanitizer, the session front end and the operators only the
#: deck's queries use.  The workload generators (``repro.workloads.*``)
#: are checked by prefix.
NOT_RUN = PLANE + (
    "repro.analysis.sanitize", "repro.scsql.session",
    "repro.engine.operators.fft", "repro.engine.operators.filters",
    "repro.engine.operators.grep", "repro.engine.operators.groupwin",
    "repro.engine.operators.transforms", "repro.engine.operators.window",
)

#: One hooks-off lifecycle from text, as the ledger times it, then a hub.
LIFECYCLE = f'''
import json, sys
from repro.coordinator.deployer import Deployer
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.scsql.plan import compile_plan

plan = compile_plan("{P2P_QUERY}")
env = shared_template(EnvironmentConfig()).fork(seed=0)
deployer = Deployer(env)
placed = deployer.place(plan)
deployer.verify(placed).raise_if_failed()
deployment = deployer.deploy(placed)
report = deployment.run()
deployment.teardown()
loaded = sorted(
    name for name in sys.modules
    if name in {NOT_RUN!r} or name.startswith("repro.workloads.")
)
generator = "dataclasses" in sys.modules

from repro.obs.instrument import Instrumentation

Instrumentation()
print(json.dumps({{
    "result": report.result,
    "loaded": loaded,
    "dataclasses": generator,
    "hub": [name for name in ("repro.obs.flow", "repro.obs.metrics") if name in sys.modules],
}}))
'''


def test_hooks_off_lifecycle_loads_only_what_it_runs():
    """compile -> fork -> place -> verify -> deploy -> run -> teardown loads
    no module it runs no code of (a teardown reads the sanitizer's scope
    only once something has loaded it), nor ``dataclasses``, whose decorator
    compiles the methods of every class it decorates; the first hub loads
    its own."""
    result = subprocess.run([sys.executable, "-c", LIFECYCLE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "result": [5],
        "loaded": [],
        "dataclasses": False,
        "hub": ["repro.obs.flow", "repro.obs.metrics"],
    }


def _imported(argv):
    """Run ``python -X importtime argv`` and return the modules it imported."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout, {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_quickstart_query_loads_no_array_or_harness_code():
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert outcome == {
        "quickstart": 5,
        "loaded": [],
        "counted": True,
        "payload": True,
        "fft": True,
    }


def test_cli_query_imports_only_its_own_driver():
    """``python -m repro query`` registers every subcommand's parser, but
    imports no other subcommand's driver."""
    stdout, modules = _imported(["-m", "repro", "query", P2P_QUERY])
    assert "result: [5]" in stdout
    assert "numpy" not in modules
    assert "repro.core.adaptive" not in modules
    # The `bench`/`top` parsers register from repro.bench.cli; the harness
    # behind them does not load.
    assert {m for m in modules if m.startswith("repro.bench.")} <= {
        "repro.bench.cli", "repro.bench.baseline"
    }
    # Nor does the observability plane or the sweep harness.
    assert not modules & set(PLANE)


def test_cli_query_help_registers_the_figures_without_the_figure_table():
    """The figure subcommands register from their names; the table behind
    them (every experiment module) loads only when a figure runs."""
    stdout, modules = _imported(["-m", "repro", "query", "--help"])
    assert "usage: python -m repro query" in stdout
    assert {m for m in modules if m.startswith("repro.core.experiments")} == {
        "repro.core.experiments", "repro.core.experiments.cli"
    }


def _subcommands():
    from repro.__main__ import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


#: The simulation's layers: printing a command's usage runs no code of them.
LAYERS = ("repro.engine", "repro.net", "repro.sim", "repro.coordinator", "repro.hardware")


@pytest.mark.parametrize("command", _subcommands())
def test_help_loads_no_simulation_layer(command):
    """Every subcommand's parser registers on each run; its handler imports
    the layers it drives.  No usage loads ``dataclasses`` either."""
    stdout, modules = _imported(["-m", "repro", command, "--help"])
    assert f"usage: python -m repro {command}" in stdout
    assert "dataclasses" not in modules
    assert sorted(
        m for m in modules if any(m == layer or m.startswith(layer + ".") for layer in LAYERS)
    ) == []


def test_the_figure_commands_are_the_figure_table():
    from repro.core.experiments import FIGURES
    from repro.core.experiments.cli import FIGURE_COMMANDS

    assert FIGURE_COMMANDS == tuple(FIGURES)


_SRC = Path(repro.__file__).parent.parent
MODULES = sorted(
    ".".join(path.relative_to(_SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (_SRC / "repro").rglob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_first(module):
    """No import cycle is hidden by the order modules usually load in."""
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(_SRC)},
    )
    assert result.returncode == 0, result.stderr[-2000:]
