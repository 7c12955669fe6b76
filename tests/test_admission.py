"""Pins which thresholds every stack admits, what its layers then claim, and
its default thresholds, as one digest.

The sweep covers every row of the stack table, n = 1..7, f = 0..n and each
of t_r, t_b, t_s in -1..n+1; the defaults are taken for n = 1..13.  A change
to any admission inequality, claim or default moves the digest.
"""

import hashlib

from quesera.netsim import STACKS, configure
from quesera.tlcr import ConfigError

ADMITTED = 13587
DIGEST = "35748dcbb964c385a187abeaa0c6efe5d67b26c399f9cda6c22f97bbfdb5f348"


def _render(stack, th) -> str:
    """A row's admitted thresholds by what its layers claim over them."""
    return ";".join(
        f"{name}:{p.n}/{p.t_r}/{p.t_b}/{p.t_s}" for name, p in stack.claims(th).items()
    )


def _admitted(layer: str, n: int, f: int, *thresholds):
    try:
        return configure(layer, n, f, *thresholds)
    except ConfigError:
        return None


def admission_table() -> tuple[int, str]:
    """(admitted count, sha256) over the sweep described above."""
    h = hashlib.sha256()
    admitted = 0
    for layer, stack in STACKS.items():
        for n in range(1, 8):
            span = range(-1, n + 2)
            for f in range(n + 1):
                for t_r in span:
                    for t_b in span:
                        for t_s in span:
                            th = _admitted(layer, n, f, t_r, t_b, t_s)
                            line = "-" if th is None else _render(stack, th)
                            admitted += th is not None
                            h.update(f"{layer} {n} {f} {t_r} {t_b} {t_s} {line}\n".encode())
        for n in range(1, 14):
            for f in range(n + 1):
                th = _admitted(layer, n, f)
                line = "-" if th is None else _render(stack, th)
                h.update(f"{layer} {n} {f} defaults {line}\n".encode())
    return admitted, h.hexdigest()


def test_admission_claims_and_defaults_are_pinned():
    assert admission_table() == (ADMITTED, DIGEST)
