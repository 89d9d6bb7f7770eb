"""Reference matrix model of a Weyl group: the representation the root
permutations replaced.

An element is the tuple of images of the simple roots (the columns of its
matrix in the simple-root basis).  Products are matrix products, reflections
come from the invariant form (`reflect`), and [e, w] is the downward closure
along reflection edges.  Differential tests compare `weylinv.weyl` against it.
"""


def reflect(system, alpha, beta):
    """t_alpha(beta) = beta - 2(beta,alpha)/(alpha,alpha) * alpha."""
    c = 2 * system.inner_product(beta, alpha) / system.inner_product(alpha, alpha)
    if c.denominator != 1:
        raise ValueError("non-integral reflection coefficient; roots not in system?")
    c = int(c)
    out = tuple(b - c * a for b, a in zip(beta, alpha))
    if out not in system.all_roots:
        raise AssertionError("reflection left the root system")
    return out


def cols_of(w):
    """Simple-root images of a `WeylElement`."""
    return tuple(w.apply(a) for a in w.group.system.simple_roots)


def apply(cols, beta):
    n = len(cols)
    return tuple(sum(b * cols[j][i] for j, b in enumerate(beta)) for i in range(n))


def mul(cols_a, cols_b):
    return tuple(apply(cols_a, col) for col in cols_b)


def reflection(system, beta):
    return tuple(reflect(system, beta, a) for a in system.simple_roots)


def inverse(cols):
    """The inverse, by stepping through powers until the identity comes back."""
    ident = tuple(tuple(int(i == j) for i in range(len(cols))) for j in range(len(cols)))
    prev, cur = ident, cols
    while cur != ident:
        prev, cur = cur, mul(cur, cols)
    return prev


def interval(system, cols):
    """[e, w] as simple-root images, by closure along t x < x."""
    refl = [reflection(system, beta) for beta in system.positive_roots]
    seen = {cols}
    stack = [cols]
    while stack:
        x = stack.pop()
        xinv = inverse(x)
        for beta, t in zip(system.positive_roots, refl):
            # l(t x) < l(x) iff x^{-1}(beta) is negative
            if sum(apply(xinv, beta)) < 0:
                tx = mul(t, x)
                if tx not in seen:
                    seen.add(tx)
                    stack.append(tx)
    return seen
