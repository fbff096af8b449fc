"""Dictionaries assembled from scalar callables: the reference the library's
batched dictionaries are checked against, and a quick way to build a test
dictionary.

``CustomDictionary`` calls one Python function per row and basis function;
without gradients its jacobian falls back to central finite differences.
``flat_toy_callables`` is the flat toy's dictionary in that scalar form, the
oracle ``basis.FlatToyDictionary`` must reproduce bit for bit.
"""

import numpy as np

from ddnpc.basis import BasisDictionary, DictionaryEvaluationError


class CustomDictionary(BasisDictionary):
    """Dictionary assembled from scalar callables ``f(u, xi)``.

    Gradients may be supplied alongside each function; when omitted, the
    jacobian falls back to central finite differences.
    """

    def __init__(self, m, n, funcs, grads=None, name="custom", u_prefix=False):
        super().__init__(m, n, len(funcs))
        self.funcs = list(funcs)
        self.grads = list(grads) if grads is not None else None
        self.name = name
        self.u_prefix = u_prefix

    def value_batch(self, U, XI):
        P = U.shape[0]
        out = np.empty((P, self.r))
        for p in range(P):
            for j, f in enumerate(self.funcs):
                out[p, j] = f(U[p], XI[p])
        if not np.all(np.isfinite(out)):
            p, j = np.argwhere(~np.isfinite(out))[0]
            raise DictionaryEvaluationError(
                f"basis function {j} returned a non-finite value at step {p}"
            )
        return out

    def jacobian_batch(self, U, XI):
        P = U.shape[0]
        dim = self.m + self.n
        out = np.empty((P, self.r, dim))
        if self.grads is not None:
            for p in range(P):
                for j, g in enumerate(self.grads):
                    out[p, j] = np.asarray(g(U[p], XI[p]), dtype=float).reshape(dim)
            return out
        h = 1e-6
        for p in range(P):
            z = np.concatenate([U[p], XI[p]])
            for d in range(dim):
                zp, zm = z.copy(), z.copy()
                zp[d] += h
                zm[d] -= h
                fp = [f(zp[: self.m], zp[self.m :]) for f in self.funcs]
                fm = [f(zm[: self.m], zm[self.m :]) for f in self.funcs]
                out[p, :, d] = (np.array(fp) - np.array(fm)) / (2 * h)
        return out


def flat_toy_callables(extra=None) -> CustomDictionary:
    """The flat toy's dictionary (``basis.FlatToyDictionary``) as scalar
    callables, one call per row and basis function."""
    c = 0.0 if extra is None else extra

    def f3(u, xi):
        return np.sin(xi[0]) - c * np.cos(2 * xi[0])

    def g3(u, xi):
        return [0.0, np.cos(xi[0]) + 2 * c * np.sin(2 * xi[0]), 0.0]

    return CustomDictionary(
        1,
        2,
        funcs=[lambda u, xi: u[0], lambda u, xi: xi[1] ** 2, f3],
        grads=[
            lambda u, xi: [1.0, 0.0, 0.0],
            lambda u, xi: [0.0, 0.0, 2 * xi[1]],
            g3,
        ],
        name="flat_exact" if c == 0.0 else f"flat_distorted_{c:g}",
        u_prefix=True,
    )
