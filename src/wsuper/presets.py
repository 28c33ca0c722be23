"""Named nilpotent elements, so acceptance runs are one-liners instead of
hand-typed coordinate vectors."""

from __future__ import annotations

import re
from fractions import Fraction

class PresetError(ValueError):
    pass


def _label_coords(alg, label):
    for b in alg.basis:
        if b.label == label:
            v = [alg.field.zero] * alg.dim
            v[b.index] = alg.field.one
            return v
    raise PresetError("no basis vector labelled %r in %s%s"
                      % (label, alg.family, alg.shape))


def resolve_nilpotent(alg, name):
    """A named preset ("zero", "regular", "E12", "E34", ...) or a
    comma-separated coordinate list."""
    name = name.strip()
    if name in ("zero", "0"):
        return [alg.field.zero] * alg.dim
    if name == "regular":
        return _regular(alg)
    if re.fullmatch(r"E\d+", name):
        m = alg.shape[0]
        digits = name[1:]
        if len(digits) != 2:
            raise PresetError("elementary preset must name two indices, like E12")
        i, j = int(digits[0]), int(digits[1])
        if (i <= m) != (j <= m):
            raise PresetError("%s is odd in %s%s; the nilpotent must be even"
                              % (name, alg.family, alg.shape))
        return _label_coords(alg, name)
    if "," in name:
        try:
            parts = [Fraction(x) for x in name.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise PresetError("bad coordinate list %r: %s" % (name, exc))
        if len(parts) != alg.dim:
            raise PresetError("coordinate list has length %d, expected %d"
                              % (len(parts), alg.dim))
        return [alg.field.of(x) for x in parts]
    raise PresetError("unknown nilpotent preset %r" % name)


def _regular(alg):
    """Sum of the in-block superdiagonal elementary matrices (the principal
    nilpotent of the even part) for gl and sl; for osp only the (1|2) case is
    wired up, larger shapes take explicit coordinates."""
    m, n = alg.shape
    if alg.family in ("gl", "sl"):
        # with rank-one blocks the sum is empty: the zero orbit is the only one
        acc = [alg.field.zero] * alg.dim
        for i in list(range(1, m)) + list(range(m + 1, m + n)):
            v = _label_coords(alg, "E%d%d" % (i, i + 1))
            acc = [alg.field.add(a, b) for a, b in zip(acc, v)]
        return acc
    if alg.family == "osp" and (m, n) == (1, 2):
        # the positive even root vector: entry (m+1, m+2) of the realization
        from .superalgebra import Coordinatizer, zero_matrix
        target = zero_matrix(m + n, alg.field)
        target[m][m + 1] = alg.field.one
        return Coordinatizer(alg.field, alg.realization).coords(target)
    raise PresetError("no regular preset for %s%s; pass coordinates"
                      % (alg.family, alg.shape))
