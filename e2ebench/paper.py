"""The paper's numeric results and the ``paper_err_pp`` metric.

Eleven values, each quoted in EXPERIMENTS.md next to the measured one.
The simulator's cost profiles were calibrated against these same
numbers, so ``paper_err_pp`` guards the reproduction against drift; it
is not a held-out validation (the repository holds no held-out
reference).
"""

#: (artefact, row key, column, paper value in %, EXPERIMENTS.md row)
PAPER_VALUES = (
    ("fig5", "mcf", "fidelius_enc_overhead_pct", 17.3,
     "Figure 5 | mcf | paper Fidelius-enc 17.3%"),
    ("fig5", "omnetpp", "fidelius_enc_overhead_pct", 16.3,
     "Figure 5 | omnetpp | paper Fidelius-enc 16.3%"),
    ("fig5", "average", "fidelius_enc_overhead_pct", 5.38,
     "Figure 5 | average | paper Fidelius-enc 5.38%"),
    ("fig5", "average", "fidelius_overhead_pct", 0.88,
     "Figure 5 | average | paper Fidelius 0.88%"),
    ("fig6", "canneal", "fidelius_enc_overhead_pct", 14.27,
     "Figure 6 | canneal | paper Fidelius-enc 14.27%"),
    ("fig6", "average", "fidelius_enc_overhead_pct", 1.97,
     "Figure 6 | average | paper Fidelius-enc 1.97%"),
    ("fig6", "average", "fidelius_overhead_pct", 0.43,
     "Figure 6 | average | paper Fidelius 0.43%"),
    ("table3", "rand-read", "slowdown_pct", 1.38,
     "Table 3 | rand-read | paper slowdown 1.38%"),
    ("table3", "seq-read", "slowdown_pct", 22.91,
     "Table 3 | seq-read | paper slowdown 22.91%"),
    ("table3", "rand-write", "slowdown_pct", 0.70,
     "Table 3 | rand-write | paper slowdown 0.70%"),
    ("table3", "seq-write", "slowdown_pct", 3.61,
     "Table 3 | seq-write | paper slowdown 3.61%"),
)

_ROW_KEY = {"fig5": "benchmark", "fig6": "benchmark", "table3": "operation"}


def paper_err_pp(rows_by_artefact):
    """Mean absolute error, in percentage points, over the eleven values.

    ``rows_by_artefact`` maps ``"fig5"``/``"fig6"``/``"table3"`` to the
    rows :mod:`repro.eval.export` produces.  Raises ``KeyError`` if a
    row the paper quotes is missing.
    """
    errors = []
    for artefact, key, column, paper, _row in PAPER_VALUES:
        rows = rows_by_artefact[artefact]
        match = [r for r in rows if r[_ROW_KEY[artefact]] == key]
        if len(match) != 1:
            raise KeyError("%s has %d rows for %r"
                           % (artefact, len(match), key))
        errors.append(abs(float(match[0][column]) - paper))
    return sum(errors) / len(errors)
