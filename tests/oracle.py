"""Dense Gauss-Jordan elimination over a Field, kept as the oracle that the
sparse `wsuper.linalg.rref` and the mod-p kernel are tested against."""


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
