"""Reference computations the tests compare the package against.

Each solves its problem directly, by one linear system, instead of through
the cohomology the package computes: the tangent dimension from the raw
first-order equations modulo equivalence, and H^0 of a diagram functor as
its limit over the morphism category.
"""

from fractions import Fraction

from ncdef.linalg import Matrix, kernel_basis, rank

_ZERO = Fraction(0)
_ONE = Fraction(1)


def tangent_dimension_check(ctx) -> int:
    """Dimension of the raw first-order solution space modulo equivalence.

    Unknowns are truncated psi per chart and tau per inclusion of the
    engine context ``ctx``; equations are the first-order semilinearity and
    composition identities; the equivalence directions come from truncated
    0-cochains constrained to keep their images inside the variable spaces.
    """
    d_psi = max(ck.d_star for ck in ctx.diagram.cokernels.values())
    margin = max(ck._margin for ck in ctx.diagram.cokernels.values())
    d_pi = d_psi + margin
    factor = _restriction_degree_factor(ctx)
    d_tau = factor * d_pi
    return _tangent_dim_at(ctx, d_psi, d_pi, d_tau)


def _restriction_degree_factor(ctx) -> int:
    factor = 1
    for name in ctx.inclusions:
        rho = ctx.restrictions[name]
        src = ctx.algebra_of(ctx.endpoints(name)[0])
        for g in src.generators():
            factor = max(factor, rho(g).degree())
    return factor


def _tangent_dim_at(ctx, d_psi, d_pi, d_tau):
    psi_bases = {o: ctx.algebra_of(o).nf_monomials(d_psi) for o in ctx.poset.objects}
    tau_bases = {n: ctx.target_algebra_of(n).nf_monomials(d_tau)
                 for n in ctx.inclusions}
    offsets = {}
    total = 0
    for o in ctx.poset.objects:
        offsets[("psi", o)] = total
        total += len(psi_bases[o])
    for n in ctx.inclusions:
        offsets[("tau", n)] = total
        total += len(tau_bases[n])

    def equation_rows(target_algebra, d_target):
        monos = target_algebra.nf_monomials(d_target)
        return monos, {m: i for i, m in enumerate(monos)}

    rows = []

    def add_equation(entries_by_unknown, target_algebra, d_target):
        monos, index = equation_rows(target_algebra, d_target)
        block = [[_ZERO] * total for _ in monos]
        for (kind, key), elems in entries_by_unknown.items():
            off = offsets[(kind, key)]
            for col, elem in enumerate(elems):
                for mono, c in elem.terms.items():
                    block[index[mono]][off + col] += c
        rows.extend(block)

    shift = max(1, max(ctx.charts[o].derivation.degree_shift()
                       for o in ctx.poset.objects))
    factor = _restriction_degree_factor(ctx)
    d_eq = max(d_tau + shift, factor * max(d_psi, d_tau)) + 2
    for name in ctx.inclusions:
        i, j = ctx.endpoints(name)
        rho = ctx.restrictions[name]
        A_i, A_j = ctx.algebra_of(i), ctx.algebra_of(j)
        d_j = ctx.charts[j].derivation
        entries = {
            ("psi", i): [rho(A_i.monomial_element(m)) for m in psi_bases[i]],
            ("psi", j): [-A_j.monomial_element(m) for m in psi_bases[j]],
            ("tau", name): [-d_j(A_j.monomial_element(m)) for m in tau_bases[name]],
        }
        add_equation(entries, A_j, d_eq)
    for f, g, comp in ctx.composable_pairs():
        rho_g = ctx.restrictions[g]
        A_k = ctx.target_algebra_of(g)
        entries = {
            ("tau", f): [rho_g(ctx.target_algebra_of(f).monomial_element(m))
                         for m in tau_bases[f]],
            ("tau", g): [A_k.monomial_element(m) for m in tau_bases[g]],
            ("tau", comp): [-A_k.monomial_element(m) for m in tau_bases[comp]],
        }
        add_equation(entries, A_k, d_eq)
    system = Matrix.from_rows(rows) if rows else Matrix.zero(0, total)
    sol_dim = len(kernel_basis(system))

    # equivalence directions: 0-cochains pi per chart, restricted to the
    # subspace whose derivation image stays inside the psi space (the
    # kernel of the high-degree block, so cancelling combinations count)
    eq_cols = []
    tau_index = {n: {mm: k for k, mm in enumerate(tau_bases[n])}
                 for n in ctx.inclusions}
    for o in ctx.poset.objects:
        A = ctx.algebra_of(o)
        d = ctx.charts[o].derivation
        pi_monos = A.nf_monomials(d_pi)
        psi_index = {m: i for i, m in enumerate(psi_bases[o])}
        images = [d(A.monomial_element(m)) for m in pi_monos]
        high_monos = sorted(
            {mm for img in images for mm in img.terms if mm not in psi_index},
            key=lambda mm: (A.degree(mm), mm),
        )
        high_index = {mm: k for k, mm in enumerate(high_monos)}
        high_rows = [[_ZERO] * len(pi_monos) for _ in high_monos]
        for col, img in enumerate(images):
            for mm, c in img.terms.items():
                if mm in high_index:
                    high_rows[high_index[mm]][col] = c
        if high_rows:
            high = Matrix.from_rows(high_rows)
            pi_space = kernel_basis(high)
        else:
            pi_space = [
                [(_ONE if k == i else _ZERO) for k in range(len(pi_monos))]
                for i in range(len(pi_monos))
            ]
        for v in pi_space:
            pi_elem = A.normal_form(
                {m: c for m, c in zip(pi_monos, v) if c}
            )
            col = [_ZERO] * total
            off = offsets[("psi", o)]
            for mm, c in d(pi_elem).terms.items():
                col[off + psi_index[mm]] -= c
            for name in ctx.inclusions:
                i, j = ctx.endpoints(name)
                contrib = None
                if j == o:
                    contrib = pi_elem
                if i == o:
                    piece = -ctx.restrictions[name](pi_elem)
                    contrib = piece if contrib is None else contrib + piece
                if contrib is None or contrib.is_zero():
                    continue
                off_t = offsets[("tau", name)]
                for mm, c in contrib.terms.items():
                    col[off_t + tau_index[name][mm]] += c
            eq_cols.append(col)
    if eq_cols:
        eq_rank = rank(Matrix.from_columns(eq_cols, nrows=total))
    else:
        eq_rank = 0
    return sol_dim - eq_rank


def direct_limit_dim(base, G) -> int:
    """Dimension of lim G over the morphism category (equalizer description)."""
    order = base.sorted_morphisms()
    offsets = {}
    total = 0
    for f in order:
        offsets[f] = total
        total += G.dims[f]
    rows = []
    for (f, alpha, beta, g) in base.mor_arrows():
        m = G.matrix(f, alpha, beta)
        for r in range(m.rows):
            row = [_ZERO] * total
            for c in range(m.cols):
                row[offsets[f] + c] = m[r, c]
            row[offsets[g] + r] -= _ONE
            rows.append(row)
    if not rows:
        return total
    mat = Matrix.from_rows(rows)
    return len(kernel_basis(mat))
