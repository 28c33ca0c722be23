"""Dense reference routines that the sparse code is tested against: Gauss-Jordan
elimination over a Field (the oracle of `wsuper.linalg.rref` and the mod-p
kernel) and the Lie superbracket on coordinate lists."""


def dense_rref(field, mat):
    """Reduced row echelon form of a list-of-lists matrix, zero rows kept
    at the bottom.  Returns (rref_matrix, pivot_columns)."""
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if not field.is_zero(a[i][c]):
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(rows):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    return a, piv_cols


def dense_bracket(alg, v, w):
    """[v, w] for coordinate lists by a double loop over all coordinate
    pairs, read straight from the structure-constant table; the oracle of
    the sparse `LieSuperalgebra` bracket."""
    f = alg.field
    out = [f.zero] * alg.dim
    for i, ci in enumerate(v):
        if f.is_zero(ci):
            continue
        for j, cj in enumerate(w):
            if f.is_zero(cj):
                continue
            for k, c in alg.structure.get((i, j), {}).items():
                out[k] = f.add(out[k], f.mul(f.mul(ci, cj), c))
    return out
