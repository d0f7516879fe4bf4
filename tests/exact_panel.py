"""Exact-law panels: many draws of one run-minimum law, answered by the program.

A panel draws ``draws x runs`` run minima from a
:class:`qevt.qaoa.RunMinimumLaw` in one ``law.draw`` call and answers every
draw in one call of :func:`qevt.pipeline.answer_minima`, the estimate's own
answer step; nothing of that step is copied here.  Each draw's answer stands
next to the law's exact run count, so a gate can bound how far the
estimator lands from the truth.  The module has no ``test_`` prefix, so
pytest does not collect it; tests import it.
"""

import math
from dataclasses import dataclass

import numpy as np

from qevt.pipeline import answer_minima
from qevt.seeding import derive_seed


@dataclass(frozen=True)
class PanelAnswer:
    """One draw's answer at one alpha, next to the law's exact run count.

    ``route`` is the estimate's route, or the entry's breakdown when the
    draw could not be fitted; ``n_evt`` is then NaN.
    """

    hits: int
    route: str
    n_evt: float
    n_exact: float

    @property
    def log2_error(self) -> float:
        """|log2(n_evt / n_exact)|, infinite when only one of them is finite
        or the draw got no answer."""
        if self.n_evt == self.n_exact:
            return 0.0
        if not (math.isfinite(self.n_evt) and math.isfinite(self.n_exact)):
            return math.inf
        return abs(math.log2(self.n_evt / self.n_exact))


def answer_panel(law, y_ideal: float, shots_s: int, runs: int, draws: int, seed: int,
                 alphas) -> dict:
    """Per alpha, the :class:`PanelAnswer` of each of ``draws`` draws of
    ``runs`` runs of ``shots_s`` shots from ``law``, in draw order.

    The uniforms come from ``seed``'s generator, draw d's jitter from
    ``derive_seed(seed, "jitter", d)``.
    """
    uniforms = np.random.default_rng(seed).random((draws, runs))
    minima = law.draw(shots_s, uniforms)
    entries = answer_minima(
        [(shots_s, row, derive_seed(seed, "jitter", d)) for d, row in enumerate(minima)],
        y_ideal, alphas,
    )
    panel = {}
    for i, alpha in enumerate(alphas):
        n_exact = law.n_exact(y_ideal, shots_s, alpha)
        panel[alpha] = [
            PanelAnswer(entry["hits"], entry["breakdown"], math.nan, n_exact)
            if "breakdown" in entry else
            PanelAnswer(entry["hits"], entry["estimates"][i]["route"],
                        entry["estimates"][i]["n_evt"], n_exact)
            for entry in entries
        ]
    return panel
