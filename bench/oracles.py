"""Answers computed without the code under test, to cross-check golden.json.

* cd-indexes of the recipe posets, tracked through their construction:
  the polygon law c^2 + (n-2)d, the 3-polytope law c^3 + (f0-2)dc +
  (f2-2)cd, suspension P * B_2 -> Psi.c (Stanley's product rule), dual ->
  reversed words, and the pyramid rule of Ehrenborg-Readdy ("Coproducts
  and the cd-index", 1998): Psi(Pyr P) = (c.Psi + Psi.c + D(Psi)) / 2 with
  the derivation D(c) = 2d, D(d) = cd + dc.
* toric h and g as images of Psi under the coproduct morphisms f and g
  (Bayer-Ehrenborg 2000), coded here from their recursion on words.
* local h of the barycentric subdivision of a simplex: the row of a face
  with j vertices counts derangements of j letters by excedances, and the
  total is the Eulerian polynomial (Stanley 1992).
"""
from __future__ import annotations

from itertools import permutations
from math import comb

# polynomials in noncommuting letters: dict word -> int


def add(p, q, scale=1):
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) + scale * c
    return {w: c for w, c in out.items() if c}


def mul(p, q):
    out = {}
    for u, a in p.items():
        for v, b in q.items():
            out[u + v] = out.get(u + v, 0) + a * b
    return {w: c for w, c in out.items() if c}


C = {"c": 1}


def derivation(p):
    """D(c) = 2d, D(d) = cd + dc, extended by the Leibniz rule."""
    out = {}
    for w, coeff in p.items():
        for i, letter in enumerate(w):
            image = {"d": 2} if letter == "c" else {"cd": 1, "dc": 1}
            out = add(out, mul(mul({w[:i]: coeff}, image), {w[i + 1:]: 1}))
    return out


def pyramid(p):
    twice = add(add(mul(C, p), mul(p, C)), derivation(p))
    if any(c % 2 for c in twice.values()):
        raise ArithmeticError("pyramid rule gave an odd coefficient")
    return {w: c // 2 for w, c in twice.items()}


def suspension(p):
    return mul(p, C)


def dual(p):
    return {w[::-1]: c for w, c in p.items()}


def three_polytope(f0, f2):
    return {"ccc": 1, "dc": f0 - 2, "cd": f2 - 2}


def base_cd(fam, arg):
    if fam == "polygon":
        return {"cc": 1, "d": arg - 2}
    if fam == "cube":
        return three_polytope(8, 6)
    if fam == "stacked":                     # f0 = k+3, f2 = 2k+2
        return three_polytope(arg + 3, 2 * arg + 2)
    p = {"": 1}                              # B_1; B_n = Pyr^(n-1) B_1
    for _ in range(arg - 1):
        p = pyramid(p)
    return p


def recipe_cd(recipe):
    fam, arg, ops = recipe
    p = base_cd(fam, arg)
    step = {"P": pyramid, "S": suspension, "D": dual}
    for op in ops:
        p = step[op](p)
    return p


def expand(cd):
    """ab-index from the cd-index: c -> a+b, d -> ab+ba."""
    images = {"c": {"a": 1, "b": 1}, "d": {"ab": 1, "ba": 1}}
    total = {}
    for w, coeff in cd.items():
        term = {"": coeff}
        for letter in w:
            term = mul(term, images[letter])
        total = add(total, term)
    return total


# univariate integer polynomials: coefficient lists, index = power


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                  for i in range(n)])


def _pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _kappa(word):
    """(x - 1)^len on words in a only, else 0."""
    if "b" in word:
        return []
    out = [1]
    for _ in word:
        out = _pmul(out, [-1, 1])
    return out


def _f(word, memo):
    if word not in memo[0]:
        if not word:
            memo[0][word] = [1]
        else:
            out = _kappa(word)
            for i in range(len(word)):
                out = _padd(out, _pmul(_g(word[:i], memo),
                                       _kappa(word[i + 1:])))
            memo[0][word] = out
    return memo[0][word]


def _g(word, memo):
    if word not in memo[1]:
        if not word:
            memo[1][word] = [1]
        else:
            memo[1][word] = _trim(
                _pmul([1, -1], _f(word, memo))[:len(word) // 2 + 1])
    return memo[1][word]


def morphisms(ab):
    """(f(ab), g(ab)) as coefficient lists."""
    memo = ({}, {})
    f, g = [], []
    for w, c in ab.items():
        f = _padd(f, [c * x for x in _f(w, memo)])
        g = _padd(g, [c * x for x in _g(w, memo)])
    return _trim(f), _trim(g)


def excedance_polynomials(n):
    """(Eulerian polynomial A_n, derangement polynomial d_n) by excedances
    over all permutations of n letters."""
    eulerian = [0] * max(n, 1)
    derange = [0] * max(n, 1)
    for perm in permutations(range(n)):
        exc = sum(1 for i, v in enumerate(perm) if v > i)
        eulerian[exc] += 1
        if all(v != i for i, v in enumerate(perm)):
            derange[exc] += 1
    return _trim(eulerian), _trim(derange)


def fubini(n):
    """Ordered set partitions of n letters; the barycentric subdivision of
    an (n-1)-simplex has twice as many faces, the empty face included."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, i) * a[m - i] for i in range(1, m + 1)))
    return a[n]
