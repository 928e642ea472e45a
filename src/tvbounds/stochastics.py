"""Innovation distributions and reproducible random streams.

Only the four laws the chain definitions need are provided: normal,
chi-square, gamma and inverse-gamma.  Each is one frozen :class:`Record`
that describes its law whole: JSON ``tag``, parameter fields, ``draw``,
``log_density`` on its support, ``abs_moment(k)``, the flag ``positive``
for laws on (0, inf) and, on those and a centred normal,
``log_scale_sup()``, the closed-form height of the density of log|Z|.
:data:`DISTS` (tag -> class) is the registry.  The module functions :func:`log_density`, :func:`density` and
:func:`abs_moment` add what every law shares: array coercion, -inf off
the support of a positive law, scalar results for scalar input and the
moment-order check.  Chi-square is Gamma(nu/2, 1/2) and takes its
formulas and its draws from it.  Every record class declares its fields'
numeric domains once, in its ``domains`` map, which :class:`Record`
enforces with the validators defined here (see there); a finite real
number is never a bool, nor a JSON integer too large for a float.

Gamma of shape 1/2 (chi-square(1), and the Gibbs X-draws) is drawn as
Z^2/(2 rate) from one standard normal, which is exact in law and about a
third of the cost of numpy's gamma sampler at that shape; other shapes
scale ``rng.standard_gamma``.  ``draw(rng, size, out=None)`` draws an
array of ``size`` values from the numpy Generator ``rng`` and fills
``out``, a float64 array of that size, when given: numpy's standard
normal or gamma sampler writes into the array and the law's scale, shift
or reciprocal follows in place, so the values are bit-identical to a
fresh draw.

:class:`NoiseStream` keys each stream by (seed, stream_id, *path), passed
to NumPy's ``SeedSequence`` as entropy and spawn key, so no two streams
alias, and draws from NumPy's SFC64 generator: numpy documents that SFC64
streams from distinct seeds do not collide for at least 2**64 draws, and
its normal and gamma draws run 10-20 % faster than PCG64's.

Gamma and inverse-gamma use the SHAPE-RATE parametrization throughout:
``Gamma(shape, rate)`` has mean ``shape/rate`` and ``InverseGamma(shape,
rate)`` has mean ``rate/(shape-1)`` for ``shape > 1``.  The closed-form
moment identities used by the bound certificates (e.g. the product
moment ``p/(k+p-2)``) hold only under this convention, so it is fixed
here rather than configurable.

All density evaluation goes through log space; shapes in the hundreds
(the regression example has shape 170.5) overflow a direct gamma-function
evaluation.
"""

from __future__ import annotations

import math
import numbers
from typing import ClassVar, Union

from ._lazy import lazy_import
from .errors import DomainError, ParameterError

np = lazy_import("numpy")  # imported on first use: closed-form certificates need only math

__all__ = [
    "Normal",
    "ChiSquare",
    "Gamma",
    "InverseGamma",
    "Dist",
    "DISTS",
    "finite",
    "finite_positive",
    "finite_nonnegative",
    "integral",
    "NoiseStream",
    "sample",
    "density",
    "log_density",
    "abs_moment",
    "dist_to_dict",
    "dist_from_dict",
]


def _is_real(v) -> bool:
    """True for a finite real number; bools (JSON true/false) are not numbers,
    and neither is an integer too large for a float (JSON allows any)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


# the domain validators: check(label, value) returns the value or raises ParameterError naming label
def finite(label: str, value):
    if not _is_real(value):
        raise ParameterError(f"{label} must be a finite real number, got {value!r}")
    return value


def finite_positive(label: str, value):
    if not (_is_real(value) and value > 0):
        raise ParameterError(f"{label} must be finite and > 0, got {value!r}")
    return value


def finite_nonnegative(label: str, value):
    if not (_is_real(value) and value >= 0):
        raise ParameterError(f"{label} must be finite and >= 0, got {value!r}")
    return value


def integral(label: str, value) -> int:
    """``value`` as an int; integral real numbers finite as a float pass, bools do not."""
    if not _is_real(value) or value % 1:
        raise ParameterError(f"{label} must be an integer, finite as a float, got {value!r}")
    return int(value)


class Record:
    """A frozen record, the base of the package's parameter and result classes.

    Its fields, ``_fields``, are the names annotated along its MRO, base
    first, except ``ClassVar`` ones; a class attribute is a default.  The
    constructor binds arguments to fields as a call binds parameters
    (TypeError for an unknown, repeated or missing one), defaults filled.
    ``domains`` maps fields to validators (``finite``, ``finite_positive``,
    ``finite_nonnegative``, ``integral``); in its order, each is called
    with the label ``"<Class> <field>"`` and the bound value, raises
    ParameterError naming that label, and its return is stored
    (``integral`` turns 3.0 into 3).  Then ``__post_init__`` runs the
    rules across fields or beyond a numeric domain, and may set a field
    with ``object.__setattr__``.  Records compare and hash by type and
    fields, and print as ``Name(field=value, ...)``, as a frozen
    dataclass does."""

    _fields: ClassVar[tuple] = ()
    domains: ClassVar[dict] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = {}  # insertion-ordered: a field keeps the place of its first annotation
        for klass in reversed(cls.__mro__):
            for name, kind in getattr(klass, "__annotations__", {}).items():  # its own, on Python >= 3.10
                if not str(kind).startswith(("ClassVar", "typing.ClassVar")):
                    names[name] = None
        cls._fields = tuple(names)

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values and not hasattr(cls, name)]
        if missing:
            raise TypeError(f"{cls.__name__}() missing required arguments {missing}")
        values = {name: values[name] if name in values else getattr(cls, name) for name in names}
        for name, check in cls.domains.items():
            values[name] = check(f"{cls.__name__} {name}", values[name])
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return [getattr(self, n) for n in self._fields] == [getattr(other, n) for n in self._fields]

    def __hash__(self):
        return hash(tuple(getattr(self, n) for n in self._fields))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


class Normal(Record):
    tag: ClassVar[str] = "normal"
    positive: ClassVar[bool] = False
    mu: float
    sigma: float
    domains = {"mu": finite, "sigma": finite_positive}

    def draw(self, rng: np.random.Generator, size, out=None):
        # bit-identical to rng.normal(mu, sigma), which is mu + sigma * Z, and
        # faster: scaled and shifted in place, and not at all when they are 1 and 0
        z = rng.standard_normal(size, out=out)
        if self.sigma != 1.0:
            z *= self.sigma
        if self.mu != 0.0:
            z += self.mu
        return z

    def log_density(self, x):
        z = (x - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2 * math.pi)

    def abs_moment(self, k: int) -> float:
        m, s = self.mu, self.sigma
        if k == 2:
            return m**2 + s**2
        if m == 0.0:
            # E|sigma Z|^k = sigma^k 2^{k/2} Gamma((k+1)/2) / sqrt(pi)
            return s**k * math.exp(0.5 * k * math.log(2) + math.lgamma((k + 1) / 2) - 0.5 * math.log(math.pi))
        if k == 1:
            # folded-normal mean
            return (s * math.sqrt(2 / math.pi) * math.exp(-(m * m) / (2 * s * s))
                    + m * math.erf(m / (s * math.sqrt(2))))
        raise DomainError(f"no closed form for Normal(mu!=0) absolute moment of order {k}")

    def log_scale_sup(self) -> float:
        """2 phi(1) for mu = 0: log|Z| has density 2 e^x f(e^x), peaking at log sigma at a height free of sigma."""
        if self.mu != 0.0:
            raise DomainError(f"no closed form for the log|Z| density height of Normal(mu!=0), got mu = {self.mu}")
        return math.sqrt(2 / math.pi) * math.exp(-0.5)


class ChiSquare(Record):
    """Chi-square with nu degrees of freedom: the law of Gamma(nu/2, 1/2),
    whose density and moments it uses."""

    tag: ClassVar[str] = "chi-square"
    positive: ClassVar[bool] = True
    nu: float
    domains = {"nu": finite_positive}

    def draw(self, rng: np.random.Generator, size, out=None):
        return Gamma(self.nu / 2, 0.5).draw(rng, size, out)

    def log_density(self, x):
        return Gamma(self.nu / 2, 0.5).log_density(x)

    def abs_moment(self, k: int) -> float:
        return Gamma(self.nu / 2, 0.5).abs_moment(k)

    def log_scale_sup(self) -> float:
        return Gamma(self.nu / 2, 0.5).log_scale_sup()


class Gamma(Record):
    """Gamma with SHAPE-RATE convention: mean = shape/rate."""

    tag: ClassVar[str] = "gamma"
    positive: ClassVar[bool] = True
    shape: float
    rate: float
    domains = {"shape": finite_positive, "rate": finite_positive}

    def draw(self, rng: np.random.Generator, size, out=None):
        if self.shape == 0.5:
            # Gamma(1/2, rate) is the law of Z^2/(2 rate): exact, and a third
            # of the cost of rng.gamma at this shape
            z = rng.standard_normal(size, out=out)
            z *= z
            z /= 2 * self.rate
            return z
        # bit-identical to rng.gamma(shape, 1/rate), which scales a standard gamma
        g = rng.standard_gamma(self.shape, size, out=out)
        g *= 1.0 / self.rate
        return g

    def log_density(self, x):
        a, b = self.shape, self.rate
        return a * math.log(b) + (a - 1) * np.log(x) - b * x - math.lgamma(a)

    def abs_moment(self, k: int) -> float:
        """The rising product a(a+1)...(a+k-1) / b^k, taken as the product of
        the ratios (a+i)/b so that no partial product overflows: a/b in one
        rounding for k = 1, where an lgamma form rounds either way."""
        a, b = self.shape, self.rate
        return math.prod((a + i) / b for i in range(k))

    def log_scale_sup(self) -> float:
        """a^a e^-a / Gamma(a) for shape a: log Z peaks at log(a/rate), at a height free of the rate.

        The exponent a log a - a - lgamma(a) cancels catastrophically as a
        grows (relative error 5e-12 at a = 1e4, the whole value from
        a = 1e16), so from a = 500 on the height is Stirling's
        sqrt(a/(2 pi)) e^-mu(a), the Binet remainder mu(a) taken as
        1/(12a) - 1/(360a^3), whose next term is below 1e-16."""
        a = self.shape
        if a < 500:
            return math.exp(a * math.log(a) - a - math.lgamma(a))
        return math.sqrt(a / (2 * math.pi)) * math.exp(-(1 - 1 / (30 * a * a)) / (12 * a))


class InverseGamma(Record):
    """Inverse gamma with SHAPE-RATE convention: mean = rate/(shape-1);
    drawn as the reciprocal of a Gamma(shape, rate) draw."""

    tag: ClassVar[str] = "inverse-gamma"
    positive: ClassVar[bool] = True
    shape: float
    rate: float
    domains = {"shape": finite_positive, "rate": finite_positive}

    def draw(self, rng: np.random.Generator, size, out=None):
        # bit-identical to 1 / rng.gamma(shape, 1/rate) at every shape
        g = rng.standard_gamma(self.shape, size, out=out)
        g *= 1.0 / self.rate
        return np.divide(1.0, g, out=g)  # in place: the same IEEE division

    def log_density(self, x):
        a, b = self.shape, self.rate
        return a * math.log(b) - (a + 1) * np.log(x) - b / x - math.lgamma(a)

    def abs_moment(self, k: int) -> float:
        a, b = self.shape, self.rate
        if a <= k:
            raise DomainError(f"InverseGamma moment of order {k} requires shape > {k}, got {a}")
        # b^k / ((a-1)(a-2)...(a-k)) as the product of the ratios b/(a-i):
        # b/(a-1) in one rounding for k = 1
        return math.prod(b / (a - i) for i in range(1, k + 1))

    log_scale_sup = Gamma.log_scale_sup  # log(1/G) = -log G reflects the density: same height


Dist = Union[Normal, ChiSquare, Gamma, InverseGamma]
DISTS = {cls.tag: cls for cls in (Normal, ChiSquare, Gamma, InverseGamma)}


class NoiseStream(Record):
    """Reproducible, splittable source of innovations.

    A stream is the key ``(seed, stream_id, *path)``; ``path`` is the
    chain of :meth:`substream` indices that derived it.  The same key
    always yields the bit-identical draw sequence and distinct keys yield
    statistically independent sequences: the generator is an SFC64
    seeded with NumPy's ``SeedSequence(seed, spawn_key=(stream_id, *path))``.  A
    stream is owned by one execution context at a time; parallel work
    must use distinct keys (see :meth:`substream`).

    ``SeedSequence`` splits an integer into 32-bit words, so a key part
    of 2**32 or more would read as two parts (and a seed of 2**128 or
    more would run into the key); both are rejected so that distinct
    keys never alias.
    """

    seed: int
    stream_id: int = 0
    path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))
        parts = [("seed", self.seed, 128), ("stream_id", self.stream_id, 32)]
        parts += [("substream index", k, 32) for k in self.path]
        for name, v, bits in parts:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not 0 <= v < 2**bits:
                raise ParameterError(f"NoiseStream {name} must be an integer in [0, 2**{bits}), got {v!r}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.SFC64(ss))

    def substream(self, k: int) -> "NoiseStream":
        """The k-th child stream: this stream's key with ``k`` appended.
        Children of distinct parents, or at distinct depths, never share
        a key."""
        return NoiseStream(self.seed, self.stream_id, (*self.path, k))


def sample(dist: Dist, rng: np.random.Generator, size, out=None):
    """``size`` draws from ``dist`` on the numpy Generator ``rng``, filling
    ``out`` when given: ``dist.draw``, as a layer boundary perfbench hooks."""
    return dist.draw(rng, size, out)


def log_density(dist: Dist, x):
    """Log density of ``dist`` at ``x`` (-inf outside the support)."""
    x = np.asarray(x, dtype=float)
    # the support: (0, inf) for a positive law, the whole line otherwise
    inside = (x > 0) | (not dist.positive)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(inside, dist.log_density(np.where(inside, x, 1.0)), -np.inf)
    return out if out.ndim else float(out)


def density(dist: Dist, x):
    """Normalized density of ``dist`` at ``x`` (0 outside the support)."""
    out = np.exp(log_density(dist, x))
    return out if out.ndim else float(out)


def abs_moment(dist: Dist, k: int) -> float:
    """E[|X|^k] in closed form.

    Raises DomainError when the moment does not exist (inverse-gamma
    with shape <= k), no closed form is implemented, or it underflows to
    0 in floating point (a certificate would read that as no noise at all).
    """
    if not isinstance(k, numbers.Integral) or k < 1:  # numpy registers np.integer
        raise ParameterError(f"moment order must be a positive integer, got {k}")
    if DISTS.get(getattr(dist, "tag", None)) is not type(dist):
        raise ParameterError(f"unknown distribution {dist!r}")
    m = float(dist.abs_moment(k))
    if m == 0.0:
        raise DomainError(f"E|Z|^{k} of {dist!r} underflows to 0 in floating point")
    return m


def dist_to_dict(dist: Dist) -> dict:
    """JSON-ready {"dist": tag, <field>: value, ...} form."""
    if DISTS.get(getattr(dist, "tag", None)) is not type(dist):
        raise ParameterError(f"unknown distribution {dist!r}")
    return {"dist": dist.tag, **{name: getattr(dist, name) for name in dist._fields}}


def dist_from_dict(d: dict) -> Dist:
    try:
        tag = d["dist"]
    except (TypeError, KeyError):
        raise ParameterError(f"distribution object must carry a 'dist' tag: {d!r}") from None
    cls = DISTS.get(str(tag))
    if cls is None:
        raise ParameterError(f"unknown distribution tag '{tag}'")
    try:
        return cls(**{k: v for k, v in d.items() if k != "dist"})
    except TypeError as exc:
        raise ParameterError(f"bad parameters for distribution '{tag}': {exc}") from None
