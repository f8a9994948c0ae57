#!/usr/bin/env python3
"""The paper's radix2 parallel FFT query function (section 2.4).

"Splitting of streams is specified by referencing common variables bound to
stream processes, as illustrated by the following query function, which
implements the radix2 parallelization of FFT for a stream source named s:

    create function radix2(string s) -> stream
    as select radixcombine(merge({a,b}))
    from sp a, sp b, sp c
    where a=sp(fft(odd(extract(c))))
    and b=sp(fft(even(extract(c))))
    and c=sp(receiver(s));
"

Process c streams signal arrays; a and b each extract the *same* stream
(the split), FFT the odd/even halves in parallel on separate BlueGene
nodes, and radixcombine applies the decimation-in-time butterfly.  The
result is verified against numpy's FFT and used to locate the dominant
tone of each signal.

Run:  python examples/radix_fft.py
"""

import numpy as np

from repro import SCSQSession
from repro.workloads import make_signal_source, signal_stream

RADIX2 = """
create function radix2(string s) -> stream
as select radixcombine(merge({a,b}))
from sp a, sp b, sp c
where a=sp(fft(odd(extract(c))), 'bg')
and b=sp(fft(even(extract(c))), 'bg')
and c=sp(receiver(s), 'bg');
"""

N_SIGNALS = 6
N_POINTS = 1024
SEED = 2007

FFT_QUERY = "select radix2('antenna') from integer z where z=0;"


def scsql_queries():
    """The example's SCSQL statements in session order; the test suite
    verifies them statically (``tests/analysis/test_cli.py``).

    The create-function statement registers ``radix2`` for the select that
    follows, exactly as the session executes them.
    """
    return [("radix2-def", RADIX2), ("radix2-call", FFT_QUERY)]


def main() -> None:
    session = SCSQSession()
    session.register_source(
        "antenna", make_signal_source(N_SIGNALS, n_points=N_POINTS, seed=SEED)
    )
    session.execute(RADIX2)
    report = session.execute(FFT_QUERY)

    expected = [
        np.fft.fft(x) for x in signal_stream(N_SIGNALS, n_points=N_POINTS, seed=SEED)
    ]
    print(f"radix2 FFT of {N_SIGNALS} x {N_POINTS}-point signals")
    print(f"simulated time: {report.duration * 1e3:.3f} ms")
    print()
    print(f"{'signal':>6}  {'dominant bin':>12}  {'matches numpy':>14}")
    for k, (got, want) in enumerate(zip(report.result, expected)):
        matches = np.allclose(got, want)
        dominant = int(np.argmax(np.abs(got[1 : N_POINTS // 2]))) + 1
        print(f"{k:>6}  {dominant:>12}  {str(matches):>14}")
        assert matches, f"signal {k}: parallel FFT diverged from numpy"

    placements = {
        sp.split("@")[0]: node
        for sp, node in report.rp_placements.items()
        if not sp.startswith("__")
    }
    print()
    print("the split stream ran on:", placements)
    print("(a and b both subscribe to c's output — one stream, two subscribers)")


if __name__ == "__main__":
    main()
