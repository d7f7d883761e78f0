"""Exact-integer polynomial kernels.

Three integer polynomial rings share one base class (``_Polynomial``),
which holds every operator that does not read the storage: constants,
subtraction, the reflected operators, powers, comparison, hashing and
text.  Each subclass keeps its own storage and its own sum, negation and
product.  Noncommutative polynomials over the alphabets {a,b} and {c,d}
are stored as word -> coefficient dicts with arbitrary-precision
integers; one constructor (``_WordPolynomial``) normalises every such
dict.  The canonical term order used everywhere (printing and equality of
output) is total degree ascending, then lexicographic with a < b and
c < d.  The change of basis between a, b and c = a+b, d = ab+ba lives
here: ``expand_cd``, a sparse ring map that costs what it writes (d^k:
2^k words, not 2^2k rank sets), the sparse peel (``_peel_cd``) that serves
``to_cd`` and the cd-index of a poset alike, and ``_expand_masks``, Psi of
a poset's own Phi over its 2^n rank sets.  Polynomials in x
(``UniPolynomial``) keep a dense tuple of coefficients, index = power.
"""
from __future__ import annotations

import re
from itertools import zip_longest
from operator import add

from .errors import DegreeTooHigh, DomainError, NotCdExpressible


class _Polynomial:
    """An element of an integer polynomial ring.  A subclass supplies the
    constant k (``_const``), its stored data (``_data``, equal exactly
    when the polynomials are), its terms as (word, coefficient) pairs in
    print order (``_terms``), and its own __add__, __neg__ and __mul__."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls._const(1)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return self._coerce(other) * self

    def __pow__(self, k):
        out = self.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, int):
            return self._const(other)
        raise TypeError("cannot combine %r with %r" % (type(self), type(other)))

    def __eq__(self, other):
        if isinstance(other, int):
            return self._data() == self._const(other)._data()
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._data() == other._data()

    def __hash__(self):
        return hash((type(self).__name__, str(self)))  # the text is canonical

    def __bool__(self):
        return bool(self._data())

    def __str__(self):
        return _format_terms(self._terms())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class _WordPolynomial(_Polynomial):
    """Integer combination of words over ``alphabet``, stored as a word ->
    nonzero coefficient dict.  The constructor, given a mapping or (word,
    coefficient) pairs, is the only code that merges like terms, drops
    zeros and checks words."""

    alphabet = ""
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if hasattr(terms, "items"):
            data = dict(terms)
        else:
            data = {}
            get = data.get
            for word, coeff in terms or ():
                data[word] = get(word, 0) + coeff
        if "".join(data).strip(self.alphabet):
            bad = next(w for w in data if w.strip(self.alphabet))
            raise DomainError(
                "word %r not over alphabet %r" % (bad, self.alphabet))
        if 0 in data.values():
            data = {word: coeff for word, coeff in data.items() if coeff}
        self.terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def _const(cls, k):
        return cls({"": k})

    @classmethod
    def monomial(cls, word, coeff=1):
        return cls({word: coeff})

    def _data(self):
        return self.terms

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return type(self)({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({w: c * other for w, c in self.terms.items()})
        other = self._coerce(other)
        return type(self)([(w1 + w2, c1 * c2)
                           for w1, c1 in self.terms.items()
                           for w2, c2 in other.terms.items()])

    # -- inspection ----------------------------------------------------

    @classmethod
    def word_degree(cls, word):
        return len(word)

    def _key(self, word):
        """Canonical order: degree ascending, then lex."""
        return (self.word_degree(word), word)

    def sorted_terms(self):
        """Terms in canonical order (see ``_key``)."""
        return sorted(self.terms.items(), key=lambda it: self._key(it[0]))

    _terms = sorted_terms

    @property
    def degree(self):
        """Largest word degree present, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.word_degree(w) for w in self.terms)

    def coefficient(self, word):
        return self.terms.get(word, 0)

    def map_words(self, images):
        """Apply the algebra map sending each letter to ``images[letter]``.

        ``images`` values may live in a different word algebra; the result is
        built in the class of the image polynomials.
        """
        target = type(next(iter(images.values())))
        pairs = []
        for word, coeff in self.terms.items():
            prod = target.one()
            for letter in word:
                prod = prod * images[letter]
            pairs += [(w, c * coeff) for w, c in prod.terms.items()]
        return target(pairs)

    # -- text ------------------------------------------------------------

    def to_json_obj(self):
        return {w: str(c) for w, c in self.sorted_terms()}

    @classmethod
    def from_json_obj(cls, obj):
        return cls({w: int(c) for w, c in obj.items()})


class AbPolynomial(_WordPolynomial):
    """Integer polynomial in the noncommuting letters a, b."""

    alphabet = "ab"
    __slots__ = ()


class CdPolynomial(_WordPolynomial):
    """Integer polynomial in the noncommuting letters c, d; deg d = 2."""

    alphabet = "cd"
    __slots__ = ()

    @classmethod
    def word_degree(cls, word):
        return word.count("c") + 2 * word.count("d")


def substitute(p, image_of_a, image_of_b):
    """Homomorphic substitution a -> image_of_a, b -> image_of_b."""
    return p.map_words({"a": image_of_a, "b": image_of_b})


AB_B = AbPolynomial.monomial("b")
AB_C = AbPolynomial({"a": 1, "b": 1})  # a + b, the image of c
_LETTER_WORDS = {"c": ("a", "b"), "d": ("ab", "ba")}


def expand_cd(p):
    """Expand a cd-polynomial into ab-letters via c -> a+b, d -> ab+ba.

    From the left, a letter at a time: pending maps each unread cd-suffix
    to the expansion of what came before it, so words that share a suffix
    expand it once (word by word, a dense Phi of degree n lists ~2.7^n
    terms for its 2^n ab-words).
    """
    pending = [{} for _ in range(max(p.degree, 0) + 1)]  # by suffix degree
    for w, c in p.terms.items():
        pending[p.word_degree(w)][w] = {"": c}
    for degree in range(p.degree, 0, -1):
        for suffix, prefixes in pending[degree].items():
            for block in _LETTER_WORDS[suffix[0]]:
                rest = pending[degree - len(block)].setdefault(suffix[1:], {})
                for word, coeff in prefixes.items():
                    rest[word + block] = rest.get(word + block, 0) + coeff
    return AbPolynomial(pending[0].get("", {}))


def _sparse_masks(n):
    """The sparse subsets of {1..n}, those with no two consecutive ranks,
    as bitmasks with rank r at bit r - 1.  There are F(n+2) of them, and
    each comes after the set left by dropping its top rank."""
    masks, shorter = [0], [0]  # the sparse masks of {1..r}, {1..r-1}
    for r in range(n):
        masks, shorter = masks + [m | 1 << r for m in shorter], masks
    return masks


def _peel_cd(n, values):
    """The degree-n cd-polynomial whose flag f-vector on the sparse subsets
    of {1..n} is values, by peeling the last cd-letter.

    f_S of a cd-word is a product over its letters: c at rank i counts
    1 + [i in S], d at ranks i, i+1 counts [i in S] + [i+1 in S].  So for
    Phi = Phi_c c + Phi_d d of degree m, with F, F_c, F_d the sparse
    f-vectors of Phi, Phi_c, Phi_d and S sparse in {1..m-2}:
    F_d(S) = F(S + {m}) - 2 F(S), F_c(S) = F(S) and
    F_c(S + {m-1}) = F(S + {m-1}) - F_d(S).  At degree 0 or 1 the
    coefficient is F(empty set).  A vector of zeros peels to zero.  Only
    the F(n+1) sets without rank 1 are read, one per cd-word of degree n.
    """
    terms = {}
    stack = [(n, values, "")]
    while stack:
        m, f, word = stack.pop()
        if m <= 1:
            terms["c" * m + word] = f[0]
            continue
        top, second = 1 << (m - 1), 1 << (m - 2)
        fd = {s: f[s | top] - 2 * v for s, v in f.items() if s < second}
        fc = {s: v - fd[s ^ second] if s & second else v
              for s, v in f.items() if s < top}
        for g, k, letter in ((fc, m - 1, "c"), (fd, m - 2, "d")):
            if any(g.values()):
                stack.append((k, g, letter + word))
    return CdPolynomial(terms)


def _expand_masks(n, p):
    """expand_cd(p), p homogeneous of degree n, listed over the 2^n masks,
    bit i - 1 set when letter i is b; from the left as ``expand_cd``, but a
    list per prefix: c doubles it, d puts it twice between zero blocks."""
    pending = [{} for _ in range(n)] + [{w: [c] for w, c in p.terms.items()}]
    for degree in range(n, 0, -1):
        for suffix, arr in pending[degree].items():
            k = 1 + (suffix[0] == "d")
            z = [0] * (len(arr) * (k - 1))  # a d keeps aa and bb out
            arr, rest = z + arr + arr + z, pending[degree - k]
            old = rest.get(suffix[1:])
            rest[suffix[1:]] = arr if old is None else list(map(add, old, arr))
    return pending[0].get("", [0] * (1 << n))


def to_cd(p):
    """Rewrite an ab-polynomial in c = a+b, d = ab+ba.

    Each degree n of p is read as a flag f-vector on the sparse subsets S
    of {1..n}: f_S is the sum of [u_T]p over T in S, where u_T has b at the
    places in T, by one subset-sum pass.  ``_peel_cd`` reads Phi off f, and
    p is cd-expressible exactly when p = expand_cd(Phi).  Otherwise raises
    NotCdExpressible with the residual p - expand_cd(Phi), which is nonzero
    and whose f vanishes on the sparse sets without rank 1.
    """
    phi = CdPolynomial()
    for n in {len(word) for word in p.terms}:
        f = {m: p.coefficient("".join("ab"[m >> i & 1] for i in range(n)))
             for m in _sparse_masks(n)}
        for i in range(n):
            for m in f:
                if m >> i & 1:
                    f[m] += f[m ^ (1 << i)]
        phi += _peel_cd(n, f)
    residual = p - expand_cd(phi)
    if residual:
        raise NotCdExpressible(residual)
    return phi


class UniPolynomial(_Polynomial):
    """Dense integer polynomial in x; index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def _const(cls, k):
        return cls((k,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    def _data(self):
        return self.coeffs

    def _terms(self):
        """x^k is spelled as the word "x" * k."""
        return [("x" * k, c) for k, c in enumerate(self.coeffs) if c]

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other):
        other = self._coerce(other)
        return UniPolynomial([a + b for a, b in zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self):
        return UniPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPolynomial([c * other for c in self.coeffs])
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return UniPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return UniPolynomial(out)

    def truncate(self, m):
        """Drop all terms of degree larger than m."""
        return UniPolynomial(self.coeffs[:m + 1] if m >= 0 else ())

    def reverse(self, n):
        """x^n * p(1/x); requires deg p <= n."""
        if self.degree > n:
            raise DegreeTooHigh("degree %d exceeds reversal bound %d"
                                % (self.degree, n))
        padded = list(self.coeffs) + [0] * (n + 1 - len(self.coeffs))
        return UniPolynomial(padded[::-1])

    def is_palindrome(self, n):
        """True when p equals its own degree-n reversal."""
        return self.degree <= n and self == self.reverse(n)

    def to_json_obj(self):
        return list(self.coeffs)

    @classmethod
    def from_json_obj(cls, obj):
        return cls(int(c) for c in obj)


def coefficientwise_leq(p, q):
    """True when every coefficient of p is <= the matching one of q.

    Works for word polynomials of the same class and for UniPolynomials;
    missing terms count as zero.
    """
    return is_nonnegative(q - p)


def is_nonnegative(p):
    """Every stored coefficient is >= 0."""
    if isinstance(p, UniPolynomial):
        return all(c >= 0 for c in p.coeffs)
    return all(c >= 0 for c in p.terms.values())


# -- text formats --------------------------------------------------------

def _format_word(word):
    """Compress single-letter runs with carets: "ccd" -> "c^2d"."""
    if not word:
        return "1"
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        out.append(word[i] if run == 1 else "%s^%d" % (word[i], run))
        i = j
    return "".join(out)


def _format_terms(terms):
    """Text of (word, coefficient) pairs, in the order given."""
    text = ""
    for word, coeff in terms:
        body = _format_word(word)
        mag = abs(coeff)
        piece = (str(mag) if body == "1" else body if mag == 1
                 else "%d*%s" % (mag, body))
        if text:
            text += (" - " if coeff < 0 else " + ") + piece
        else:
            text = ("-" if coeff < 0 else "") + piece
    return text or "0"


_TERM_RE = re.compile(r"(\d+)?(\*)?([^\d*].*)?")


def _parse_terms(text, parse_word):
    """Polynomial text as (parse_word(word text), coefficient) pairs.

    Terms are joined by + or -, and the first may carry a sign too.  A term
    is a coefficient, a word, or a coefficient and a word, optionally joined
    by "*"; a constant's word text is "".  parse_word returns None, or
    raises DomainError, for text that is no word.  So does an integer longer
    than the interpreter reads, or an exponent past the longest word or
    list that memory holds.
    """
    chunks = re.split(r"(?=[+-])", text.strip().replace(" ", ""))
    if not chunks[0]:
        chunks.pop(0)  # the text is empty or opens with a sign
    out = []
    for chunk in chunks:
        sign = -1 if chunk[0] == "-" else 1
        term = chunk[1:] if chunk[0] in "+-" else chunk
        m = _TERM_RE.fullmatch(term)
        ok = m and (m[3] or m[1] and not m[2])  # a "*" needs a word
        try:
            key = parse_word(m[3] or "") if ok else None
            if key is None:
                raise DomainError("cannot parse term %r" % term)
            out.append((key, sign * int(m[1] or 1)))
        except (ValueError, OverflowError, MemoryError):
            raise DomainError("integer out of range in term %.40r"
                              % term) from None
    return out


def _parse_word(body, alphabet):
    """Parse "c^2d" style word text; carets apply to single letters."""
    word = []
    i = 0
    while i < len(body):
        letter = body[i]
        if letter not in alphabet:
            raise DomainError("unexpected letter %r in %r" % (letter, body))
        i += 1
        power = 1
        if i < len(body) and body[i] == "^":
            i += 1
            j = i
            while j < len(body) and body[j].isdigit():
                j += 1
            if j == i:
                raise DomainError("missing exponent in %r" % body)
            power = int(body[i:j])
            i = j
        word.append(letter * power)
    return "".join(word)


def parse_word_poly(text, cls):
    """Parse the text format back into an Ab/CdPolynomial."""
    return cls(_parse_terms(text,
                            lambda body: _parse_word(body, cls.alphabet)))


def _parse_monomial(body):
    """The coefficient list of x^k for "x^k" or "x" text, of 1 for a
    constant, else None; a k past any list fails in its one allocation."""
    m = re.fullmatch(r"x(?:\^(\d+))?", body or "x^0")
    return [0] * int(m[1] or 1) + [1] if m else None


def parse_unipoly(text):
    """Parse "1 + 4*x + x^2" style text into a UniPolynomial."""
    return sum((UniPolynomial(monomial) * coeff
                for monomial, coeff in _parse_terms(text, _parse_monomial)),
               UniPolynomial())
