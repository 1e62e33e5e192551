"""Finitely generated subgroups at desk scale.

Generator presets (free Fuchsian pairs, a genus-2 surface group, and
their Levi embeddings), reduced-word balls, finite-ball gap reports,
limit-set sampling by power iteration, and sampled certificates for
proper invariant domains.
"""

from __future__ import annotations

import copy
import functools
import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BallTooLarge,
    IllConditioned,
    ModelMismatch,
    NoCertificate,
    NoGap,
    NonConvergence,
    NotInLevi,
    TooFewPoints,
    UnknownPreset,
)
from .groups import (
    GroupElement,
    GroupModel,
    _levi_index,
    cartan_projections,
    in_levi_block_form,
    lyapunov_projections,
    model_preset,
    random_lie_perturbation,
    shilov_root,
    tau_p,
)
from .causal import _random_hermitian, causal_hull
from .einstein import random_ein_point
from .kmat import adjoint, draw, embed_real, norm, product
from .linalg import frobenius_norms
from .maslov import _skip_reasons, _trial_report, maslov_indices
from .scalars import COMPLEX, QUATERNION
from .shilov import (
    ShilovPoint,
    _form_rows,
    _guard,
    _margins,
    _orthonormalize,
    _projectors,
    _view,
    act_stack,
    base_points,
    chart_coordinates_stack,
    chart_point,
    transversality_margins,
)

GAP_FLOOR = 1e-3
BALL_CAP = 10**7
DEDUP_TOL = 1e-9  # rounding-bucket width of the pipelines' word balls for reps with a relator
ATTRACT_TOL = 1e-12  # projector move that ends a word's power iteration
ATTRACT_MAX_ITER = 10_000  # power-iteration steps allowed per word
ATTRACT_RESIDUAL = 1e-8  # largest invariance residual of an attracting point
CERT_ORBIT_LEN = 4  # word length of the ball whose orbit the certificate avoids
CORE_HULL_CAP = 150  # orbit points the convex core's hull is built on
# why sample_limit_set drops a drawn word, in LimitSample.excluded
EXCLUSION_REASONS = ("no_gap", "no_convergence", "residual", "near", "margin")
_NO_GAP, _NO_CONVERGENCE, _RESIDUAL, _NEAR, _MARGIN = range(len(EXCLUSION_REASONS))
_UNDERFLOW = len(EXCLUSION_REASONS)  # an eigenvalue modulus below 1e-300; counted as no_convergence
_NEAR_PREFILTER = (2e-6) ** 2  # squared projector distance below which the dedup takes the exact norm
_DEDUP_BLOCK = 16  # candidates the dedup decides per GEMM; a larger block holds a larger GEMM result
PINGPONG_HALF_WIDTH = 0.36  # must sit in (arctan(1/3) complement bound, pi/8); see certificate
PINGPONG_SCAN = 128  # sampled angles per letter in the ping-pong contraction scan


def _inverse_name(name: str) -> str:
    return name.swapcase()


@dataclass
class Representation:
    """A finitely generated subgroup given by named generators.

    gens maps letter names to group elements and is closed under formal
    inverses (name.swapcase() is the inverse letter); relator is a word
    whose product is the identity for surface presets.  A representation
    is treated as immutable: its one memo holds every word ball and gap
    report computed on it, one entry per call (see _memoised), which a
    change to gens would leave stale.
    """

    model: GroupModel
    gens: dict
    gen_names: tuple
    preset_id: str = None
    deformation: dict = None
    relator: tuple = None
    # (function name, its arguments after rep) -> that function's result
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in self.gen_names:
            inv = _inverse_name(name)
            if name not in self.gens or inv not in self.gens:
                raise ModelMismatch(f"generator pair {name!r}/{inv!r} incomplete")
            prod = self.gens[name] @ self.gens[inv]
            defect = norm(prod.g - np.eye(len(prod.g)), self.model.tag)
            if not (defect <= 1e-9):
                raise ModelMismatch(f"inverse pairing defect {defect:.3e} for {name!r}")
        for letter in self.relator or ():
            if letter not in self.gens:
                raise ModelMismatch(f"relator letter {letter!r} is not a generator")

    @property
    def letters(self):
        out = []
        for name in self.gen_names:
            out += [name, _inverse_name(name)]
        return tuple(sorted(out))

    def word_element(self, word) -> GroupElement:
        g = GroupElement.identity(self.model)
        for letter in word:
            g = g @ self.gens[letter]
        return g

    def to_json(self):
        return {
            "model": self.model.to_json(),
            "gen_names": list(self.gen_names),
            "gens": {k: v.to_json() for k, v in self.gens.items()},
            "preset_id": self.preset_id,
            "deformation": self.deformation,
            "relator": list(self.relator) if self.relator else None,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            GroupModel.from_json(obj["model"]),
            {k: GroupElement.from_json(v) for k, v in obj["gens"].items()},
            tuple(obj["gen_names"]),
            preset_id=obj.get("preset_id"),
            deformation=obj.get("deformation"),
            relator=tuple(obj["relator"]) if obj.get("relator") else None,
        )


def relator_residual(rep: Representation) -> float:
    if rep.relator is None:
        raise ModelMismatch("representation carries no relator")
    g = rep.word_element(rep.relator)
    return norm(g.g - np.eye(len(g.g)), rep.model.tag)


# --------------------------------------------------------------------- presets


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _free_pair_sl2(lam=3.0):
    # two hyperbolic elements with crossed axes: h2 conjugated by the
    # half-angle matrix of a rotation by pi/2 of the hyperbolic plane
    h1 = np.diag([lam, 1.0 / lam])
    k = _rot(np.pi / 4)
    h2 = k @ h1 @ k.T
    return {"a": h1, "b": h2}


def _genus2_sl2():
    # regular right-angled octagon: side pairings g_k with axes at angles
    # k pi / 8 and translation length t, cosh(t/2) = 1 + sqrt(2); the
    # opposite-side relation is rewritten into canonical commutator form
    half = np.arccosh(1.0 + np.sqrt(2.0))
    H = np.array([[np.cosh(half), np.sinh(half)], [np.sinh(half), np.cosh(half)]])
    g = [_rot(k * np.pi / 8) @ H @ _rot(-k * np.pi / 8) for k in range(4)]
    inv = np.linalg.inv
    a, b, c, d = g[0], inv(g[1]), g[2], inv(g[3])
    p = a @ inv(d)
    q = b @ p
    s = d @ q
    return {"a1": c, "b1": inv(q), "a2": inv(s), "b2": p}


_GENUS2_RELATOR = ("a1", "b1", "A1", "B1", "a2", "b2", "A2", "B2")


def _lift_sl2(sl2_gens, model: GroupModel):
    gens = {}
    for name, A in sl2_gens.items():
        if model.family == "SP" and model.rank == 1:
            g = GroupElement(model, A)
        else:
            g = tau_p(A, model)
        gens[name] = g
        gens[_inverse_name(name)] = g.inv()
    return gens


_PRESET_TABLE = {
    "f2-fuchsian-sl2": ("sp2", _free_pair_sl2, None),
    "tau0-sp4-f2": ("sp4", _free_pair_sl2, None),
    "tau0-su22-f2": ("su22", _free_pair_sl2, None),
    "tau0-sostar8-f2": ("sostar8", _free_pair_sl2, None),
    "genus2-sl2": ("sp2", _genus2_sl2, _GENUS2_RELATOR),
    "tau0-sp4-genus2": ("sp4", _genus2_sl2, _GENUS2_RELATOR),
}


def preset(pid: str) -> Representation:
    if pid not in _PRESET_TABLE:
        raise UnknownPreset(f"unknown preset {pid!r}; known: {sorted(_PRESET_TABLE)}")
    model_name, builder, relator = _PRESET_TABLE[pid]
    model = model_preset(model_name)
    sl2 = builder()
    return Representation(model, _lift_sl2(sl2, model), tuple(sorted(sl2)), preset_id=pid, relator=relator)


def conjugate(rep: Representation, h: GroupElement) -> Representation:
    """The rep with every generator conjugated by h."""
    h_inv = h.inv()
    gens = {k: h @ g @ h_inv for k, g in rep.gens.items()}
    return Representation(rep.model, gens, rep.gen_names, preset_id=None,
                          deformation=rep.deformation, relator=rep.relator)


# --------------------------------------------------- ping-pong interval check


def _angles_mod_pi(V):
    """The angle in [0, pi) of each direction of a stack (..., 2) of plane vectors."""
    return np.arctan2(V[..., 1], V[..., 0]) % np.pi


def _circle_distances(a, b):
    """The distance of angles a and b (broadcast) on the circle R / pi Z."""
    return np.abs((a - b + np.pi / 2) % np.pi - np.pi / 2)


def pingpong_certificate(rep: Representation) -> dict:
    """Verify the ping-pong configuration of a rank-one pair on RP^1.

    Each letter gets the arc of half width PINGPONG_HALF_WIDTH around its
    attracting direction; the check is that the arcs are pairwise disjoint
    and every letter maps the complement of its repelling arc strictly
    inside its own arc.  The letters run as one stack: one eig, then one
    scan of PINGPONG_SCAN angles per letter.  Reports the worst margins;
    margins must be positive.
    """
    if not (rep.model.family == "SP" and rep.model.rank == 1):
        raise ModelMismatch("the interval check runs on the rank-one SL(2, R) model")
    names = [letter for name in rep.gen_names for letter in (name, _inverse_name(name))]
    mats = np.stack([A for name in rep.gen_names for A in (rep.gens[name].g, np.linalg.inv(rep.gens[name].g))])
    w, V = np.linalg.eig(mats)
    not_hyperbolic = (np.max(np.abs(w.imag), axis=1) > 1e-12) | (np.abs(np.abs(w[:, 0]) - np.abs(w[:, 1])) < 1e-9)
    if not_hyperbolic.any():
        raise NoGap(f"letter {names[np.argmax(not_hyperbolic)]!r} is not hyperbolic")
    top = np.argmax(np.abs(w.real), axis=1)
    attract = _angles_mod_pi(V.real[np.arange(len(V)), :, top])
    centers = dict(sorted(zip(names, attract.tolist())))
    # pairwise disjointness of the arcs on the circle R / pi Z, in letter order
    half_width = PINGPONG_HALF_WIDTH
    c = np.array(list(centers.values()))
    i, j = np.triu_indices(len(c), 1)
    sep = np.min(_circle_distances(c[i], c[j])) - 2 * half_width
    # contraction: each letter maps the complement of its repelling arc (its inverse's, sampled
    # including its endpoints) into its own arc
    repel = attract[np.arange(len(names)) ^ 1]
    thetas = repel[:, None] + half_width + np.linspace(0.0, np.pi - 2 * half_width, PINGPONG_SCAN)
    images = mats[:, None] @ np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)[..., None]
    contraction = np.min(half_width - _circle_distances(_angles_mod_pi(images[..., 0]), attract[:, None]))
    return {
        "half_width": half_width,
        "centers": centers,
        "separation_margin": float(sep),
        "contraction_margin": float(contraction),
        "passed": bool(sep > 0 and contraction > 0),
    }


# ------------------------------------------------------------------ word balls


def _memoised(fn):
    """fn computed once per representation and arguments, memoised on rep._memo.

    The key is fn's name and its arguments after rep, bound to fn's
    signature (taken once, here) with defaults applied, so every spelling
    of one call shares one entry.  A representation is immutable, so a
    repeated call returns a deep copy of the first result (a WordBall's
    deep copy is the ball itself); a call that raises keeps nothing.
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def memoised(rep, *args, **kwargs):
        bound = signature.bind(rep, *args, **kwargs)
        bound.apply_defaults()
        key = (fn.__name__, *list(bound.arguments.values())[1:])
        if key not in rep._memo:
            rep._memo[key] = fn(rep, *args, **kwargs)
        return copy.deepcopy(rep._memo[key])
    return memoised


@dataclass
class WordBall:
    """Reduced words up to max_len and their matrices as one embedded stack.

    stack[i] is the embedded array of the product of words[i] (see kmat);
    element(i) wraps one entry as a group element without copying it.
    A ball from enumerate_ball is the one its representation's memo holds,
    shared with every later call of the same arguments: its stack and
    lengths are read-only, and a deep copy is the ball itself.
    """

    max_len: int
    words: list
    stack: np.ndarray
    lengths: np.ndarray
    model: GroupModel
    dedup: dict = field(default_factory=lambda: {"enabled": False})

    def element(self, i) -> GroupElement:
        return GroupElement(self.model, self.stack[i], _check=False)

    def __deepcopy__(self, memo):
        return self


def _free_ball_count(n_gens: int, max_len: int) -> int:
    total = 0
    per = 2 * n_gens
    for _ in range(max_len):
        total += per
        per *= 2 * n_gens - 1
    return total


def _bucket_keys(stack: np.ndarray, tol: float) -> list:
    """One rounding-bucket key (bytes) per matrix of the stack.

    Raises IllConditioned where an entry is not finite or its bucket index
    is past the int64 range, where distinct matrices would share a key.
    """
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1).view(np.float64)
    cells = np.round(flat / tol)
    if not -2.0**63 < cells.min() <= cells.max() < 2.0**63:  # NaN fails both
        raise IllConditioned(f"a word matrix entry of {np.max(np.abs(flat)):.3e} has no int64 "
                             f"rounding bucket of width {tol:.0e}")
    cells = cells.astype(np.int64)
    return cells.view(np.dtype((np.void, cells.shape[1] * 8))).ravel().tolist()


@_memoised
def enumerate_ball(rep: Representation, max_len: int, dedup_tol=None) -> WordBall:
    """All reduced words up to max_len, lexicographic within each length.

    Each length is one batched product frontier[parent] gen[letter]
    (kmat.product, so each matrix is that of word_element) over the
    (parent, letter) grid without inverse letters; the grid is read
    row-major, which keeps the (length, word) order.  With dedup_tol set
    (positive and finite), words whose matrices land in the same rounding
    bucket as an earlier word are dropped (surface relators force such
    coincidences; free presets are unaffected).  A free ball of more than
    BALL_CAP words raises BallTooLarge.  The ball is memoised on rep like
    the gap reports (see _memoised); its stack and lengths are read-only.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if dedup_tol is not None and not 0.0 < dedup_tol < np.inf:
        raise ValueError(f"dedup_tol must be None or positive and finite, got {dedup_tol!r}")
    expected = _free_ball_count(len(rep.gen_names), max_len)
    if expected > BALL_CAP:
        raise BallTooLarge(f"free ball size {expected} exceeds the cap {BALL_CAP}")
    letters = sorted(rep.letters)
    inverse = np.array([letters.index(_inverse_name(l)) for l in letters])
    gens = np.stack([rep.gens[l].g for l in letters])
    frontier = np.eye(gens.shape[1], dtype=gens.dtype)[None]
    last = np.array([-1])  # letter index ending each frontier word
    frontier_words = [()]
    seen = set(_bucket_keys(frontier, dedup_tol)) if dedup_tol else None
    words, levels, removed = [], [], 0
    for _ in range(max_len):
        parent, letter = np.nonzero(inverse[None, :] != last[:, None])
        level = product(frontier[parent], gens[letter], rep.model.tag)
        if dedup_tol:
            keep = []
            for i, key in enumerate(_bucket_keys(level, dedup_tol)):
                if key not in seen:
                    seen.add(key)
                    keep.append(i)
            removed += len(level) - len(keep)
            parent, letter, level = parent[keep], letter[keep], level[keep]
        frontier_words = [frontier_words[p] + (letters[l],)
                          for p, l in zip(parent.tolist(), letter.tolist())]
        words += frontier_words
        levels.append(level)
        frontier, last = level, letter
    stack = np.concatenate(levels)
    lengths = np.repeat(np.arange(1, max_len + 1), [len(level) for level in levels])
    stack.flags.writeable = lengths.flags.writeable = False
    dedup = {"enabled": bool(dedup_tol), "tol": dedup_tol, "removed": removed}
    return WordBall(max_len, words, stack, lengths, rep.model, dedup=dedup)


# ------------------------------------------------------------------ gap report


def _pipeline_ball(rep: Representation, max_len: int) -> WordBall:
    """The ball every pipeline enumerates: deduplicated at DEDUP_TOL when rep has a relator."""
    return enumerate_ball(rep, max_len, dedup_tol=DEDUP_TOL if rep.relator else None)


@_memoised
def anosov_gap_report(rep: Representation, max_len: int) -> dict:
    """Fit a linear lower bound for the Shilov root of mu(w) over the word ball.

    The root is groups.shilov_root: 2 mu_r on the Lagrangian families and
    mu_1 - mu_2 on SO(n, 2).  This is finite-ball evidence only: PASS means
    the fitted slope over the per-length minima exceeds 0.05 and no word
    past the identity has a vanishing gap.
    """
    ball = _pipeline_ball(rep, max_len)
    alphas = shilov_root(rep.model, cartan_projections(rep.model, ball.stack))
    lengths = ball.lengths
    per_length_min = {}
    for L in range(1, max_len + 1):
        mask = lengths == L
        if np.any(mask):
            per_length_min[L] = float(np.min(alphas[mask]))
    Ls = np.array(sorted(per_length_min))
    mins = np.array([per_length_min[L] for L in Ls])
    if len(Ls) >= 2:
        slope, intercept = np.polyfit(Ls, mins, 1)
    else:
        slope, intercept = 0.0, float(mins[0]) if len(mins) else 0.0
    min_margin = float(np.min(alphas)) if len(alphas) else 0.0
    zero_words = int(np.sum(alphas <= 0.0))
    return {
        "max_len": max_len,
        "n_words": len(ball.words),
        "slope": float(slope),
        "intercept": float(intercept),
        "min_margin": min_margin,
        "zero_gap_words": zero_words,
        "per_length_min": {str(k): v for k, v in per_length_min.items()},
        "passed": bool(slope > 0.05 and zero_words == 0),
    }


# ------------------------------------------------------------- limit sampling


def _attracting_frames(model: GroupModel, E, seed):
    """One stacked power iteration toward the attracting points of a stack of embedded elements.

    Returns (Z, residuals, reason): Z[k] is the settled orthonormal column
    frame of E[k], residuals[k] its invariance residual, and reason[k] the
    index in EXCLUSION_REASONS of the guard it failed (_UNDERFLOW for an
    eigenvalue modulus underflow), or -1.  Each element runs exactly the
    steps of a power iteration of its own: the gap test
    shilov_root(lyapunov_projection(g)) > GAP_FLOOR (2 log|lambda_r| on the
    Lagrangian families, log|lambda_1| - log|lambda_2| on SO(n, 2)), one
    starting frame kmat.draw(tag, (dim, r), default_rng(seed)) (one column on
    SO(n, 2); real on SP and SO(n, 2), whose frames stay real),
    _orthonormalize steps (chi frames from one interleaved QR on SO*) until the
    projector moves less than ATTRACT_TOL (an element that has settled is
    frozen), at most ATTRACT_MAX_ITER steps, and a residual of at most
    ATTRACT_RESIDUAL.  Projector moves are in the units of
    ShilovPoint.distance: chi units on SO*, where ATTRACT_TOL is
    ATTRACT_TOL / sqrt(2) in field units.
    """
    N = len(E)
    reason = np.full(N, -1)
    lam, underflow = lyapunov_projections(model, E)
    reason[~(shilov_root(model, lam) > GAP_FLOOR)] = _NO_GAP
    reason[underflow] = _UNDERFLOW
    shape = (model.dim, model.rank if model.is_lagrangian else 1)
    Z0, _ = _orthonormalize(model.tag, draw(model.tag, shape, np.random.default_rng(seed)))
    live = np.flatnonzero(reason < 0)
    # times the reciprocal of the largest modulus, as numpy divides complex by real: real stacks scale alike
    En = E[live] * (1.0 / np.max(np.abs(E[live]), axis=(1, 2), keepdims=True))
    Z = np.repeat(Z0[None], len(live), axis=0)
    P = Z @ np.conj(np.swapaxes(Z, -1, -2))
    active = np.arange(len(live))
    for _ in range(ATTRACT_MAX_ITER):
        if not len(active):
            break
        Zk, _ = _orthonormalize(model.tag, En[active] @ Z[active])
        Pk = Zk @ np.conj(np.swapaxes(Zk, -1, -2))
        moved = ~(frobenius_norms(Pk - P[active], COMPLEX) < ATTRACT_TOL)
        Z[active], P[active] = Zk, Pk
        active = active[moved]
    GZ = En @ Z
    residuals = np.full(N, np.nan)
    off = GZ - Z @ (np.conj(np.swapaxes(Z, -1, -2)) @ GZ)
    residuals[live] = frobenius_norms(off, COMPLEX) / np.maximum(frobenius_norms(GZ, COMPLEX), 1e-300)
    settled = np.ones(len(live), bool)
    settled[active] = False
    reason[live[~settled]] = _NO_CONVERGENCE
    reason[live[settled & (residuals[live] > ATTRACT_RESIDUAL)]] = _RESIDUAL
    frames = np.zeros((N,) + Z0.shape, Z.dtype)
    frames[live] = Z
    return frames, residuals, reason


def _limit_frames(model: GroupModel, Z):
    """The points spanned by a stack of settled power-iteration frames, as (frames, orthos) arrays.

    frames are embedded frames (unit lifts on SO(n, 2)), as act_stack gives
    them: the settled frames themselves, chi frames on SO*.  The point
    guards run on the whole stack.
    """
    if not model.is_lagrangian:
        V = _guard(model, np.ascontiguousarray(Z[:, :, 0]))
        return V, V
    return Z, _guard(model, Z)


def attracting_point(g: GroupElement, seed=0) -> ShilovPoint:
    """Attracting boundary point of a gapped element: the stacked power iteration on a stack of one.

    Raises NoGap without an eigenvalue-modulus gap at the boundary rank and
    NonConvergence when the iteration does not settle within
    ATTRACT_MAX_ITER steps or leaves an invariance residual above
    ATTRACT_RESIDUAL.
    """
    Z, residuals, reason = _attracting_frames(g.model, g.g[None], seed)
    if reason[0] == _NO_GAP:
        raise NoGap("no eigenvalue-modulus gap at the boundary rank")
    if reason[0] == _UNDERFLOW:
        raise NonConvergence("eigenvalue modulus underflow")
    if reason[0] == _NO_CONVERGENCE:
        raise NonConvergence(f"power iteration did not settle below {ATTRACT_TOL:.1e}")
    if reason[0] == _RESIDUAL:
        raise NonConvergence(f"invariance residual {residuals[0]:.3e}")
    frames, orthos = _limit_frames(g.model, Z)
    return _view(g.model, frames[0], orthos[0])


@dataclass
class LimitSample:
    """Kept limit points with their words; excluded counts the dropped words by reason."""

    points: list
    word_lengths: list
    residuals: list
    words: list
    excluded: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.points)

    @functools.cached_property
    def _orthos(self):
        """The points' orthos as one stack, built on first use."""
        return np.stack([p.ortho for p in self.points])


def _dedup(model: GroupModel, orthos, margin_floor) -> np.ndarray:
    """The greedy keep/merge scan of sample_limit_set over a stack of orthos, in stack order.

    Returns the verdict on each point: -1 where it is kept, _NEAR where its
    projector is within 1e-6 of a point kept before it (frobenius_norms of
    the difference, tag COMPLEX), else _MARGIN where its transversality
    margin to one is at most margin_floor.

    The points are decided in blocks of _DEDUP_BLOCK.  The kept orthos sit
    side by side as the columns of one buffer, followed by the block's
    own, so one GEMM of the block's rows [X^H; X^H J] gives the overlaps
    A = X^H Y and the pairings P = X^H J Y of every pair a block point
    meets: each point kept before the block, and each block point before
    it.  For orthonormal frames |P_X - P_Y|^2 = 2d - 2 |A|^2, which flags
    every pair within 2e-6; the projector norm decides on the flagged ones
    only.  The margins are _margins of the pairings, skipped where the
    overlaps clear the floor: [X, JX] is unitary up to the isotropy defect
    e = |X^H J X| (read off the block's own pairings), so
    P^H P >= (1 - e) I - A^H A, and the margin, a product of r sines, is at
    least (1 - e - |A|^2)^(r/2) with |A|^2 in field units; a pair with
    |A|^2 < 1 - (2 margin_floor)^(2/r) - 1e-9 - e is above the floor.
    SO(n, 2) lifts take |b| on every pair.  Each point first takes the
    margin of its largest overlap, and the others only if that one and its
    projector norms leave it open.  Then the block's points are decided in
    stack order against the points kept before them, in the block too.
    """
    Q = orthos if model.is_lagrangian else orthos[..., None]  # lifts as one-column frames
    n, D, d = Q.shape
    rows = np.concatenate([adjoint(Q), _form_rows(model, Q)], axis=-2)
    cols = np.empty((D, n * d), Q.dtype)
    # the real components of one overlap block; summed by a matvec, which beats a short-row sum
    ones = np.ones(2 * d if Q.dtype == complex else d)
    projectors = _projectors(model, orthos)
    if model.is_lagrangian:
        field = 2.0 if model.tag == QUATERNION else 1.0  # chi doubles |A|^2 over H
        clear = 1.0 - (2.0 * margin_floor) ** (2.0 / model.rank) - 1e-9

    def under_floor(P):
        return _margins(model, P if model.is_lagrangian else P[:, 0, 0]) <= margin_floor

    verdicts = np.full(n, -1)
    kept = np.empty(n, dtype=int)
    k = 0
    for start in range(0, n, _DEDUP_BLOCK):
        block = np.arange(start, min(start + _DEDUP_BLOCK, n))
        b, m = len(block), k + len(block)
        cols[:, k * d:m * d] = np.swapaxes(Q[block], 0, 1).reshape(D, b * d)
        G = (rows[block].reshape(2 * b * d, D) @ cols[:, :m * d]).reshape(b, 2 * d, m * d)
        A = G[:, :d].view(float) if Q.dtype == complex else G[:, :d]
        overlap = (np.square(A).sum(axis=1).reshape(b * m, -1) @ ones).reshape(b, m)
        pairings = G[:, d:].reshape(b, d, m, d)
        met = np.ones((b, m), bool)
        met[:, k:] = np.tri(b, k=-1, dtype=bool)
        points = np.concatenate([kept[:k], block])
        near = np.zeros((b, m), bool)
        i, j = np.nonzero(met & (2.0 * d - 2.0 * overlap < _NEAR_PREFILTER))
        near[i, j] = frobenius_norms(projectors[points[j]] - projectors[block[i]], COMPLEX) < 1e-6
        if model.is_lagrangian:
            defect = frobenius_norms(pairings[np.arange(b), :, k + np.arange(b)], COMPLEX)
            met &= overlap / field >= clear - defect[:, None]
        low = np.zeros((b, m), bool)
        i = np.flatnonzero(met.any(axis=1))
        j = np.where(met[i], overlap[i], -1.0).argmax(axis=1)
        low[i, j] = under_floor(pairings[i, :, j])
        met[i, j] = False
        met[near[:, :k].any(axis=1) | low[:, :k].any(axis=1)] = False
        i, j = np.nonzero(met)
        low[i, j] = under_floor(pairings[i, :, j])
        # per block point: near to (under the floor against) a point kept before the block, and the bit
        # mask of the block points it is near to (under the floor against); keep is the mask of those kept
        bits = 1 << np.arange(b)
        near_before, near_in = near[:, :k].any(axis=1).tolist(), (near[:, k:] @ bits).tolist()
        low_before, low_in = low[:, :k].any(axis=1).tolist(), (low[:, k:] @ bits).tolist()
        keep = 0
        for c in range(b):
            if near_before[c] or near_in[c] & keep:
                verdicts[block[c]] = _NEAR
            elif low_before[c] or low_in[c] & keep:
                verdicts[block[c]] = _MARGIN
            else:
                keep |= 1 << c
        new = block[(keep & bits) > 0]
        cols[:, k * d:(k + len(new)) * d] = np.swapaxes(Q[new], 0, 1).reshape(D, len(new) * d)
        kept[k:k + len(new)] = new
        k += len(new)
    return verdicts


def sample_limit_set(rep: Representation, max_len: int, per_length_cap=100, seed=0,
                     margin_floor=1e-6) -> LimitSample:
    """Attracting points of seed-sampled words, deduplicated by separation.

    Up to per_length_cap words per length from 3 on are drawn (a max_len
    below 3 draws none and raises TooFewPoints), and their attracting
    points come from one stacked power iteration
    (_attracting_frames); the converged ones are guarded and
    orthonormalized in one stacked pass, and only the kept points become
    ShilovPoint objects.  In candidate order (_dedup), a point is kept only
    when it is at least 1e-6 away in frame distance (ShilovPoint.distance:
    chi units on SO*, where that is 1e-6 / sqrt(2) in field units) and more
    than margin_floor away in transversality margin from every point kept
    before it; the second clause merges boundary points so close that
    downstream triple computations would sit inside the tolerance band
    anyway.  The candidates are decided in blocks of _DEDUP_BLOCK, one
    GEMM each against the kept points and the block's own; the distance is
    the projector norm wherever the GEMM's overlaps put a pair within 2e-6,
    and the margin a determinant wherever they cannot clear margin_floor.
    excluded counts the dropped words by reason
    (EXCLUSION_REASONS; a word both near and under the margin counts as
    near); with the kept points they add up to the words drawn.
    """
    if per_length_cap < 1:
        raise ValueError("per_length_cap must be at least 1")
    if not 0.0 <= margin_floor < np.inf:
        raise ValueError(f"margin_floor must be finite and nonnegative, got {margin_floor!r}")
    if max_len < 3:
        raise TooFewPoints(f"words are drawn from length 3 on; max_len {max_len} draws none")
    model = rep.model
    ball = _pipeline_ball(rep, max_len)
    lengths = ball.lengths
    rng = np.random.default_rng(seed)
    chosen = []
    for L in range(3, max_len + 1):
        idx = np.nonzero(lengths == L)[0]
        if len(idx) > per_length_cap:
            idx = np.sort(rng.choice(idx, size=per_length_cap, replace=False))
        chosen.extend(int(i) for i in idx)
    Z, res, reason = _attracting_frames(model, ball.stack[chosen], seed)
    live = np.flatnonzero(reason < 0)
    frames, orthos = _limit_frames(model, Z[live])
    reason[live] = _dedup(model, orthos, margin_floor)
    kept = np.flatnonzero(reason[live] < 0)
    points = [_view(model, frames[i], orthos[i]) for i in kept]
    words = [ball.words[chosen[c]] for c in live[kept]]
    residuals = [float(res[c]) for c in live[kept]]
    word_lengths = [len(word) for word in words]
    reason[reason == _UNDERFLOW] = _NO_CONVERGENCE
    counts = np.bincount(reason[reason >= 0], minlength=len(EXCLUSION_REASONS))
    excluded = dict(zip(EXCLUSION_REASONS, counts.tolist()))
    return LimitSample(points, word_lengths, residuals, words, excluded)


def _distinct_triples(rng, n: int, m: int) -> np.ndarray:
    """m ordered triples of distinct indices below n (n >= 3), each uniform over all n (n - 1) (n - 2).

    One integers call draws i < n, j < n - 1 and k < n - 2 per triple; j
    steps over i, and k over the smaller of i and j, then over the larger.
    This is the distribution of rng.choice(n, 3, replace=False).
    """
    t = rng.integers(0, [n, n - 1, n - 2], size=(m, 3))
    i, j, k = t.T
    j += j >= i
    k += k >= np.minimum(i, j)
    k += k >= np.maximum(i, j)
    return t


def verify_maslov_zero(sample: LimitSample, n_triples: int, seed=0) -> dict:
    """Random transverse triples from the sample should all have index zero; those in a guard band are skipped.

    The n_triples triples of distinct points come from one stacked draw
    (_distinct_triples on default_rng(seed)), and one maslov_indices call
    decides them.
    """
    if n_triples < 1:
        raise ValueError("n_triples must be at least 1")
    n = len(sample)
    if n < 3:
        raise TooFewPoints(f"need at least 3 limit points, have {n}")
    triples = _distinct_triples(np.random.default_rng(seed), n, n_triples)
    Q = sample._orthos[triples]
    idx, margin, valid = maslov_indices(sample.points[0].model, Q[:, 0], Q[:, 1], Q[:, 2])
    return {"triples": n_triples, **_trial_report(_skip_reasons([margin], valid), idx != 0, margin, 2)}


# ---------------------------------------------------------------- certificates


def _center(model: GroupModel, sign):
    """The chart point sign * I on the Lagrangian families, sign * e_n (time axis) on SO(n, 2)."""
    if model.is_lagrangian:
        return chart_point(model, sign * embed_real(np.eye(model.rank), model.tag))
    return chart_point(model, np.append(np.zeros(model.rank - 1), sign))


def domain_center(model: GroupModel):
    """Interior point of the standard diamond (positive cone in the chart)."""
    return _center(model, 1.0)


def dual_center(model: GroupModel):
    """Interior point of the dual diamond, the natural certificate candidate."""
    return _center(model, -1.0)


def proper_domain_certificate(rep: Representation, sample: LimitSample, probe_count=50,
                              seed=0) -> dict:
    """Sampled evidence for a proper invariant domain: a point z0 avoided by the action.

    The certificate passes when the orbit of the standard diamond's
    center under the ball of length CERT_ORBIT_LEN (one stacked action)
    and every limit point stay transverse to z0 with margin above 1e-6;
    this is CERTIFICATE(SAMPLED) evidence, not a proof.  The first
    candidate is the dual diamond's center, which every graph over a
    definite matrix misses; the chart's base point itself generically
    touches fixed Lagrangians of block-diagonal elements, so it comes
    second.  An empty sample raises TooFewPoints.
    """
    if probe_count < 0:
        raise ValueError("probe_count must be at least 0")
    if not len(sample):
        raise TooFewPoints("need at least 1 limit point, have 0")
    model = rep.model
    ball = _pipeline_ball(rep, CERT_ORBIT_LEN)
    center = domain_center(model)
    _, orbit = act_stack(ball.stack, center)
    targets = np.concatenate([center.ortho[None], orbit, sample._orthos])

    def margin_against(z0):
        return float(np.min(transversality_margins(model, targets, z0.ortho)))

    def candidates():
        # built one at a time, so that no probe is drawn past the first passing candidate
        yield "dual_center", dual_center(model)
        yield "p_minus", base_points(model)[1]
        rng = np.random.default_rng(seed)
        for k in range(probe_count):
            yield f"probe_{k}", (chart_point(model, 4.0 * _random_hermitian(model, rng)) if model.is_lagrangian
                                 else random_ein_point(model, rng))

    best = None
    for label, z0 in candidates():
        m = margin_against(z0)
        if best is None or m > best[2]:
            best = (label, z0, m)
        if m > 1e-6:
            return {"z0": z0, "min_margin": float(m), "candidate": label,
                    "orbit_size": 1 + len(orbit), "passed": True}
    raise NoCertificate(f"best candidate {best[0]} has margin {best[2]:.3e}")


def convex_core_sample(rep: Representation, sample: LimitSample, base_pts, max_len) -> dict:
    """Causal hull of a finite orbit plus its ideal residual against the limit sample.

    The orbit is the base points and their images under the ball of
    length max_len (one stacked action per base point, word-major), with
    chart coordinates from one batched solve.  The residual is the
    Hausdorff frame distance between the orbit points and the sampled
    limit set; it should shrink as max_len grows.  The hull itself is
    built on a deterministic subsample of at most CORE_HULL_CAP orbit
    points to keep the pair scan affordable.
    """
    model = rep.model
    frames = np.stack([bp.frame for bp in base_pts])
    orthos = np.stack([bp.ortho for bp in base_pts])
    if max_len >= 1:
        ball = _pipeline_ball(rep, max_len)
        # word-major: the images of every base point under word i, then under word i + 1
        F, Q = zip(*(act_stack(ball.stack, bp) for bp in base_pts))
        frames = np.concatenate([frames, np.stack(F, axis=1).reshape(-1, *frames.shape[1:])])
        orthos = np.concatenate([orthos, np.stack(Q, axis=1).reshape(-1, *orthos.shape[1:])])
    coords = chart_coordinates_stack(model, frames, orthos)
    n = len(coords)
    keep = np.arange(n)
    if n > CORE_HULL_CAP:
        keep = np.unique(np.linspace(0, n - 1, CORE_HULL_CAP).astype(int))
    core = causal_hull(model, coords[keep])
    if max_len < 1 or not len(sample):
        residual = None
    else:
        # how far the sampled ideal points still are from the finite orbit (ShilovPoint.distance,
        # one orbit point at a time); nonincreasing in max_len since the orbit only grows
        S = _projectors(model, sample._orthos)
        nearest = np.full(len(S), np.inf)
        for P in _projectors(model, orthos):
            nearest = np.minimum(nearest, frobenius_norms(S - P, COMPLEX))
        residual = float(np.max(nearest))
    return {"core": core, "ideal_residual": residual,
            "orbit_size": n, "hull_points": len(keep)}


# ---------------------------------------------------------------- deformation


def deform(rep: Representation, eps: float, seed=0) -> Representation:
    """Perturb each generator along a random Lie direction of size eps."""
    gens = {}
    for i, name in enumerate(rep.gen_names):
        h = random_lie_perturbation(rep.gens[name], eps, seed + i)
        gens[name] = h
        gens[_inverse_name(name)] = h.inv()
    record = {"base": rep.preset_id or (rep.deformation or {}).get("base"),
              "eps": eps, "seed": seed}
    out = Representation(rep.model, gens, rep.gen_names, preset_id=None,
                         deformation=record, relator=rep.relator)
    if rep.relator is not None:
        record["relator_residual"] = relator_residual(out)
    return out


# ------------------------------------------------------------------ Levi gaps


@_memoised
def levi_gap_report(rep: Representation, max_len: int) -> dict:
    """Half the Levi-block singular values must exceed 1 for long words.

    Applies to reps landing in the block-diagonal Levi subgroup; words of
    length at most 2 are exempt (short products may be balanced).  Only
    the first 20 violating words are spelled out.
    """
    model = rep.model
    if not model.is_lagrangian or model.rank % 2 != 0:
        raise NotInLevi("the Levi gap needs a Lagrangian model of even rank")
    for name in rep.gen_names:
        if not in_levi_block_form(rep.gens[name]):
            raise NotInLevi(f"generator {name!r} is not block-diagonal")
    ball = _pipeline_ball(rep, max_len)
    half = model.rank // 2
    mult = 2 if model.tag == QUATERNION else 1
    idx = _levi_index(model)  # the Levi block's embedded rows and columns
    long = np.flatnonzero(ball.lengths > 2)
    blocks = ball.stack[long[:, None, None], idx[:, None], idx]
    s = np.linalg.svd(blocks, compute_uv=False)
    upper = np.log(s[:, (half - 1) * mult])
    lower = np.log(s[:, half * mult])
    violations = long[~((upper > 0.0) & (0.0 > lower))]
    checked = len(long)
    return {
        "max_len": max_len,
        "words_checked": checked,
        "violations": ["".join(ball.words[i]) for i in violations[:20]],
        "n_violations": len(violations),
        "min_upper": float(np.min(upper)) if checked else None,
        "max_lower": float(np.max(lower)) if checked else None,
        "passed": bool(checked and not len(violations)),
    }
