"""Inner loops for sparse Laurent arithmetic over F_q.

Coefficients are integer codes < q (see `ff`), exponents are arbitrary
Python ints, polynomials are plain dicts {exponent: code} with no zero
values stored.  The tower packs each six-variable monomial into one int
(see `tower`), so the same loops serve Laurent series and tower elements.

The field is passed as its context, a `FieldCtx`; each call reads the
context's tables once and runs on them: the log table, the antilog
table (length 2(q-1), so a sum of two logs indexes it directly) and the
Zech table zech[k] = log(1 + g^k) (length q-1, None where 1 + g^k = 0).
Two nonzero codes with logs l1, l2 add to alog[l1 + zech[l2 - l1]].
This module and `ff` are the only ones that read the tables.
"""


def lp_mul(a, b, ctx, out=None):
    """Product of two sparse polynomials (dict cross product).

    Exponents only need `+`, so packed monomials work as well as ints.
    With `out` given, the product is added into that dict in place and
    the dict is returned.
    """
    log, alog, zech = ctx.LOG, ctx.ALOG, ctx.ZECH
    if out is None:
        out = {}
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        la = log[ca]
        for eb, cb in b.items():
            e = ea + eb
            c = alog[la + log[cb]]
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                lp = log[prev]
                z = zech[log[c] - lp]
                if z is None:
                    del out[e]
                else:
                    out[e] = alog[lp + z]
    return out


def lp_add_scaled(a, b, c, ctx):
    """Return a + c*b for a scalar code c."""
    out = dict(a)
    if c == 0:
        return out
    log, alog, zech = ctx.LOG, ctx.ALOG, ctx.ZECH
    lc = log[c]
    for eb, cb in b.items():
        t = alog[lc + log[cb]]
        prev = out.get(eb)
        if prev is None:
            out[eb] = t
        else:
            lp = log[prev]
            z = zech[log[t] - lp]
            if z is None:
                del out[eb]
            else:
                out[eb] = alog[lp + z]
    return out


def lp_map_pow(a, scale, ctx):
    """Monomial-wise power x -> x^scale for scale = p^k.

    Exponents are multiplied by scale and each coefficient c becomes
    c^scale = alog[log[c] * scale mod (q-1)].  Valid because x -> x^(p^k)
    is additive in characteristic p and never sends a nonzero code to 0.
    """
    log, alog, m = ctx.LOG, ctx.ALOG, ctx.q - 1
    return {e * scale: alog[log[c] * scale % m] for e, c in a.items()}
