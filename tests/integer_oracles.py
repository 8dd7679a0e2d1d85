"""Integer constructions that only the tests use: Witt sums and products
of integer-lift coordinate vectors through the ghost map, and the
Serre-Tate relation matrix whose Smith normal form the closed-form
torsion of `dieudonne.serre_tate_torsion` is checked against."""

from isolab.witt import ghost_components, ghost_inverse


def witt_coordinate_sum(a, b, p):
    """Coordinates of the Witt sum of two integer-lift coordinate vectors,
    as exact integers (values of the universal sum polynomials)."""
    ga, gb = ghost_components(a, p), ghost_components(b, p)
    return ghost_inverse([x + y for x, y in zip(ga, gb)], p)


def witt_coordinate_product(a, b, p):
    ga, gb = ghost_components(a, p), ghost_components(b, p)
    return ghost_inverse([x * y for x, y in zip(ga, gb)], p)


def serre_tate_relation_matrix(exponents, p):
    """Relations u (x) lam(v) - v (x) lam(u) on Z^(g*g), lam = diag(p^e_i));
    one column per pair a < b."""
    g = len(exponents)
    cols = []
    for a in range(g):
        for b in range(a + 1, g):
            col = [0] * (g * g)
            col[a * g + b] = p ** exponents[b]
            col[b * g + a] = -(p ** exponents[a])
            cols.append(col)
    return [[col[r] for col in cols] for r in range(g * g)]
