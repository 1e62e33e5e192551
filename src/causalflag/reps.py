"""Finitely generated subgroups at desk scale.

Generator presets (free Fuchsian pairs, a genus-2 surface group, and
their Levi embeddings), reduced-word balls, finite-ball gap reports,
limit-set sampling by power iteration, and sampled certificates for
proper invariant domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BallTooLarge,
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
    in_levi_block_form,
    model_preset,
    random_lie_perturbation,
    tau_p,
)
from .kmat import KMat, _chi, norm, product
from .scalars import QUATERNION, REAL
from .linalg import _flat_norms
from .shilov import (
    ShilovPoint,
    _guard,
    _projectors,
    _quat_frame_from_embedded,
    _view,
    act_stack,
    base_points,
    chart_coordinates_stack,
    chart_point,
    transversality_margins,
)

GAP_FLOOR = 1e-3
BALL_CAP = 10**7
ATTRACT_TOL = 1e-12  # projector move that ends a word's power iteration
ATTRACT_MAX_ITER = 10_000  # power-iteration steps allowed per word
ATTRACT_RESIDUAL = 1e-8  # largest invariance residual of an attracting point
CERT_ORBIT_LEN = 4  # word length of the ball whose orbit the certificate avoids
CORE_HULL_CAP = 150  # orbit points the convex core's hull is built on
# why sample_limit_set drops a drawn word, in LimitSample.excluded
EXCLUSION_REASONS = ("no_gap", "no_convergence", "residual", "near", "margin")
_NO_GAP, _NO_CONVERGENCE, _RESIDUAL, _NEAR, _MARGIN = range(len(EXCLUSION_REASONS))
_UNDERFLOW = len(EXCLUSION_REASONS)  # an eigenvalue modulus below 1e-300; counted as no_convergence
PINGPONG_HALF_WIDTH = 0.36  # must sit in (arctan(1/3) complement bound, pi/8); see certificate
PINGPONG_SCAN = 128  # sampled angles per letter in the ping-pong contraction scan


def _inverse_name(name: str) -> str:
    return name.swapcase()


@dataclass
class Representation:
    """A finitely generated subgroup given by named generators.

    gens maps letter names to group elements and is closed under formal
    inverses (name.swapcase() is the inverse letter).  sl2 keeps the
    underlying 2x2 matrices for presets built from SL(2, R), relator is a
    word whose product is the identity for surface presets.
    """

    model: GroupModel
    gens: dict
    gen_names: tuple
    preset_id: str = None
    deformation: dict = None
    relator: tuple = None
    sl2: dict = None

    def __post_init__(self):
        for name in self.gen_names:
            inv = _inverse_name(name)
            if name not in self.gens or inv not in self.gens:
                raise ModelMismatch(f"generator pair {name!r}/{inv!r} incomplete")
            prod = self.gens[name] @ self.gens[inv]
            defect = norm(prod.g - np.eye(len(prod.g)), self.model.tag)
            if not (defect <= 1e-9):
                raise ModelMismatch(f"inverse pairing defect {defect:.3e} for {name!r}")

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


_F2_RELATOR = None
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
    gens = _lift_sl2(sl2, model)
    return Representation(
        model,
        gens,
        tuple(sorted(sl2)),
        preset_id=pid,
        relator=relator,
        sl2=sl2,
    )


def conjugate(rep: Representation, h: GroupElement) -> Representation:
    """The rep with every generator conjugated by h."""
    h_inv = h.inv()
    gens = {k: h @ g @ h_inv for k, g in rep.gens.items()}
    return Representation(rep.model, gens, rep.gen_names, preset_id=None,
                          deformation=rep.deformation, relator=rep.relator)


# --------------------------------------------------- ping-pong interval check


def _angle_mod_pi(v):
    return float(np.arctan2(v[1], v[0]) % np.pi)


def _act_angle(A, theta):
    v = A @ np.array([np.cos(theta), np.sin(theta)])
    return _angle_mod_pi(v)


def _arc_contains(center, half_width, theta):
    """Signed depth of theta inside the arc (center - w, center + w) mod pi."""
    d = (theta - center + np.pi / 2) % np.pi - np.pi / 2
    return half_width - abs(d)


def pingpong_certificate(rep: Representation) -> dict:
    """Verify the ping-pong configuration of a rank-one pair on RP^1.

    Each letter gets the arc of half width PINGPONG_HALF_WIDTH around its
    attracting direction; the check is that the arcs are pairwise disjoint
    and every letter maps the complement of its repelling arc strictly
    inside its own arc.  Reports the worst margins; margins must be positive.
    """
    if rep.sl2 is None and not (rep.model.family == "SP" and rep.model.rank == 1):
        raise ModelMismatch("the interval check runs on the rank-one SL(2, R) model")
    mats = {}
    for name in rep.gen_names:
        A = rep.sl2[name] if rep.sl2 else rep.gens[name].g
        mats[name] = A
        mats[_inverse_name(name)] = np.linalg.inv(A)
    centers = {}
    for letter, A in mats.items():
        w, V = np.linalg.eig(A)
        if np.max(np.abs(np.imag(w))) > 1e-12 or abs(abs(w[0]) - abs(w[1])) < 1e-9:
            raise NoGap(f"letter {letter!r} is not hyperbolic")
        top = np.argmax(np.abs(np.real(w)))
        centers[letter] = _angle_mod_pi(np.real(V[:, top]))
    # pairwise disjointness of the four arcs on the circle R / pi Z
    letters = sorted(mats)
    half_width = PINGPONG_HALF_WIDTH
    sep = np.inf
    for i in range(len(letters)):
        for j in range(i + 1, len(letters)):
            d = abs((centers[letters[i]] - centers[letters[j]] + np.pi / 2) % np.pi - np.pi / 2)
            sep = min(sep, d - 2 * half_width)
    # contraction: letter maps the complement of its repelling arc into its arc
    contraction = np.inf
    for letter in letters:
        A = mats[letter]
        c_att = centers[letter]
        c_rep = centers[_inverse_name(letter)]
        # complement of the repelling arc, sampled including its endpoints
        thetas = c_rep + half_width + np.linspace(0.0, np.pi - 2 * half_width, PINGPONG_SCAN)
        for th in thetas:
            contraction = min(contraction, _arc_contains(c_att, half_width, _act_angle(A, th)))
    return {
        "half_width": half_width,
        "centers": {k: centers[k] for k in letters},
        "separation_margin": float(sep),
        "contraction_margin": float(contraction),
        "passed": bool(sep > 0 and contraction > 0),
    }


# ------------------------------------------------------------------ word balls


@dataclass
class WordBall:
    """Reduced words up to max_len and their matrices as one embedded stack.

    stack[i] is the embedded array of the product of words[i] (see kmat);
    element(i) wraps one entry as a group element without copying it.
    """

    max_len: int
    words: list
    stack: np.ndarray
    lengths: np.ndarray
    model: GroupModel
    dedup: dict = field(default_factory=lambda: {"enabled": False})

    def element(self, i) -> GroupElement:
        return GroupElement(self.model, self.stack[i], _check=False)


def _free_ball_count(n_gens: int, max_len: int) -> int:
    total = 0
    per = 2 * n_gens
    for _ in range(max_len):
        total += per
        per *= 2 * n_gens - 1
    return total


def _bucket_keys(stack: np.ndarray, tol: float) -> list:
    """One rounding-bucket key (bytes) per matrix of the stack."""
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1).view(np.float64)
    cells = np.round(flat / tol).astype(np.int64)
    return cells.view(np.dtype((np.void, cells.shape[1] * 8))).ravel().tolist()


def enumerate_ball(rep: Representation, max_len: int, dedup_tol=None, cap=BALL_CAP) -> WordBall:
    """All reduced words up to max_len, lexicographic within each length.

    Each length is one batched product frontier[parent] gen[letter]
    (kmat.product, so each matrix is that of word_element) over the
    (parent, letter) grid without inverse letters; the grid is read
    row-major, which keeps the (length, word) order.  With dedup_tol set,
    words whose matrices land in the same rounding bucket as an earlier
    word are dropped (surface relators force such coincidences; free
    presets are unaffected).
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    expected = _free_ball_count(len(rep.gen_names), max_len)
    if expected > cap:
        raise BallTooLarge(f"free ball size {expected} exceeds the cap {cap}")
    letters = sorted(rep.letters)
    inverse = np.array([letters.index(_inverse_name(l)) for l in letters])
    gens = np.stack([rep.gens[l].g for l in letters])
    frontier = np.eye(gens.shape[1], dtype=gens.dtype)[None]
    last = np.array([-1])  # letter index ending each frontier word
    frontier_words = [()]
    seen = set(_bucket_keys(frontier, dedup_tol)) if dedup_tol else None
    words, levels = [], []
    removed = 0
    for _ in range(max_len):
        parent, letter = np.nonzero(inverse[None, :] != last[:, None])
        level = product(frontier[parent], gens[letter], rep.model.tag)
        if dedup_tol:
            keep = []
            for i, key in enumerate(_bucket_keys(level, dedup_tol)):
                if key in seen:
                    removed += 1
                else:
                    seen.add(key)
                    keep.append(i)
            parent, letter, level = parent[keep], letter[keep], level[keep]
        frontier_words = [frontier_words[p] + (letters[l],)
                          for p, l in zip(parent.tolist(), letter.tolist())]
        words += frontier_words
        levels.append(level)
        frontier, last = level, letter
    return WordBall(
        max_len,
        words,
        np.concatenate(levels),
        np.repeat(np.arange(1, max_len + 1), [len(level) for level in levels]),
        rep.model,
        dedup={"enabled": bool(dedup_tol), "tol": dedup_tol, "removed": removed},
    )


# ------------------------------------------------------------------ gap report


def _batched_alpha(model: GroupModel, stack) -> np.ndarray:
    """alpha_r of the Cartan projection for a stack of embedded elements."""
    s = np.linalg.svd(stack, compute_uv=False)
    if model.is_lagrangian:
        mult = 2 if model.tag == QUATERNION else 1
        eps_r = np.log(s[:, (model.rank - 1) * mult])
    else:
        eps_r = np.log(s[:, 1])
    return 2.0 * np.maximum(eps_r, 0.0)


def anosov_gap_report(rep: Representation, max_len: int, cap=BALL_CAP) -> dict:
    """Fit a linear lower bound for alpha_r(mu(w)) over the word ball.

    This is finite-ball evidence only: PASS means the fitted slope over
    the per-length minima exceeds 0.05 and no word past the identity has
    a vanishing gap.
    """
    ball = enumerate_ball(rep, max_len, dedup_tol=1e-9 if rep.relator else None, cap=cap)
    alphas = _batched_alpha(rep.model, ball.stack)
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
    steps of a power iteration of its own: the gap test of
    alpha_r(lyapunov_projection(g)) > GAP_FLOOR, one starting frame drawn
    from default_rng(seed), QR steps until the projector moves less than
    ATTRACT_TOL (an element that has settled is frozen), at most
    ATTRACT_MAX_ITER steps, and a residual of at most ATTRACT_RESIDUAL.
    """
    N, d = len(E), E.shape[-1]
    reason = np.full(N, -1)
    mods = np.sort(np.abs(np.linalg.eigvals(E)), axis=-1)[:, ::-1]
    if model.tag == QUATERNION:
        mods = mods[:, ::2]
    boundary = model.rank if model.is_lagrangian else 2
    alpha = 2.0 * np.maximum(np.log(mods[:, boundary - 1]), 0.0)
    reason[~(alpha > GAP_FLOOR)] = _NO_GAP
    reason[np.any(mods < 1e-300, axis=1)] = _UNDERFLOW
    ncols = model.rank * (2 if model.tag == QUATERNION else 1) if model.is_lagrangian else 1
    rng = np.random.default_rng(seed)
    Z0 = rng.standard_normal((d, ncols)) + 1j * rng.standard_normal((d, ncols))
    Z0, _ = np.linalg.qr(Z0)
    live = np.flatnonzero(reason < 0)
    # times the reciprocal of the largest modulus, as numpy divides complex by real: real stacks scale alike
    En = E[live] * (1.0 / np.max(np.abs(E[live]), axis=(1, 2), keepdims=True))
    Z = np.repeat(Z0[None], len(live), axis=0)
    P = Z @ np.conj(np.swapaxes(Z, -1, -2))
    active = np.arange(len(live))
    for _ in range(ATTRACT_MAX_ITER):
        if not len(active):
            break
        Zk, _ = np.linalg.qr(En[active] @ Z[active])
        Pk = Zk @ np.conj(np.swapaxes(Zk, -1, -2))
        moved = ~(_flat_norms(Pk - P[active]) < ATTRACT_TOL)
        Z[active], P[active] = Zk, Pk
        active = active[moved]
    GZ = En @ Z
    residuals = np.full(N, np.nan)
    off = GZ - Z @ (np.conj(np.swapaxes(Z, -1, -2)) @ GZ)
    residuals[live] = _flat_norms(off) / np.maximum(_flat_norms(GZ), 1e-300)
    settled = np.ones(len(live), bool)
    settled[active] = False
    reason[live[~settled]] = _NO_CONVERGENCE
    reason[live[settled & (residuals[live] > ATTRACT_RESIDUAL)]] = _RESIDUAL
    frames = np.zeros((N, d, ncols), complex)
    frames[live] = Z
    return frames, residuals, reason


def _limit_frames(model: GroupModel, Z):
    """The points spanned by a stack of settled power-iteration frames, as (frames, orthos) arrays.

    frames are embedded frames (unit lifts on SO(n, 2)), as act_stack gives
    them: the real part of the frame over R, the quaternionic frame
    recovered from the j-invariant span over H.  The point guards run on
    the whole stack.
    """
    if not model.is_lagrangian:
        V = _guard(model, np.ascontiguousarray(Z[:, :, 0].real))
        return V, V
    if model.tag == QUATERNION:
        E = _chi(*_quat_frame_from_embedded(Z))
    else:
        E = Z.real if model.tag == REAL else Z
    return E, _guard(model, E)


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


def sample_limit_set(rep: Representation, max_len: int, per_length_cap=100, seed=0,
                     margin_floor=1e-6) -> LimitSample:
    """Attracting points of seed-sampled words, deduplicated by separation.

    Up to per_length_cap words per length from 3 on are drawn, and their
    attracting points come from one stacked power iteration
    (_attracting_frames); the converged ones are guarded, orthonormalized
    and projected in one stacked pass, and only the kept points become
    ShilovPoint objects.  In candidate order, a point is kept only when it
    is at least 1e-6 away in frame distance and more than margin_floor
    away in transversality margin from every point kept before it; the
    second clause merges boundary points so close that downstream triple
    computations would sit inside the tolerance band anyway.  excluded
    counts the dropped words by reason (EXCLUSION_REASONS; a word both
    near and under the margin counts as near); with the kept points they
    add up to the words drawn.
    """
    model = rep.model
    dedup_tol = 1e-9 if rep.relator else None
    ball = enumerate_ball(rep, max_len, dedup_tol=dedup_tol)
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
    projectors = _projectors(model, orthos)
    # the kept points' projectors and orthos, in keeping order
    kept_P, kept_Q = np.empty_like(projectors), np.empty_like(orthos)
    kept = []
    for i, c in enumerate(live):
        k = len(kept)
        if (np.linalg.norm(kept_P[:k] - projectors[i], axis=(1, 2)) < 1e-6).any():
            reason[c] = _NEAR
        elif (transversality_margins(model, np.broadcast_to(orthos[i], kept_Q[:k].shape), kept_Q[:k])
              <= margin_floor).any():
            reason[c] = _MARGIN
        else:
            kept_P[k], kept_Q[k] = projectors[i], orthos[i]
            kept.append(i)
    points = [_view(model, frames[i], orthos[i]) for i in kept]
    words = [ball.words[chosen[c]] for c in live[kept]]
    residuals = [float(res[c]) for c in live[kept]]
    word_lengths = [len(word) for word in words]
    reason[reason == _UNDERFLOW] = _NO_CONVERGENCE
    counts = np.bincount(reason[reason >= 0], minlength=len(EXCLUSION_REASONS))
    excluded = dict(zip(EXCLUSION_REASONS, counts.tolist()))
    return LimitSample(points, word_lengths, residuals, words, excluded)


def verify_maslov_zero(sample: LimitSample, n_triples: int, seed=0) -> dict:
    """Random transverse triples from the sample should all have index zero."""
    from .maslov import maslov_indices

    if n_triples < 1:
        raise ValueError("n_triples must be at least 1")
    n = len(sample)
    if n < 3:
        raise TooFewPoints(f"need at least 3 limit points, have {n}")
    rng = np.random.default_rng(seed)
    triples = np.array([rng.choice(n, size=3, replace=False) for _ in range(n_triples)], dtype=int)
    Q = np.stack([p.ortho for p in sample.points])[triples.reshape(-1, 3)]
    idx, margin, valid = maslov_indices(sample.points[0].model, Q[:, 0], Q[:, 1], Q[:, 2])
    margins = margin[valid]
    return {
        "triples": n_triples,
        "violations": int(np.sum(valid & (idx != 0))),
        "skipped": int(np.sum(~valid)),
        "min_margin": float(np.min(margins)) if len(margins) else None,
        "median_margin": float(np.median(margins)) if len(margins) else None,
    }


# ---------------------------------------------------------------- certificates


def domain_center(model: GroupModel):
    """Interior point of the standard diamond (positive cone in the chart)."""
    if model.is_lagrangian:
        return chart_point(model, KMat.eye(model.tag, model.rank))
    v = np.zeros(model.rank)
    v[-1] = 1.0
    return chart_point(model, v)


def dual_center(model: GroupModel):
    """Interior point of the dual diamond, the natural certificate candidate."""
    if model.is_lagrangian:
        return chart_point(model, -1.0 * KMat.eye(model.tag, model.rank))
    v = np.zeros(model.rank)
    v[-1] = -1.0
    return chart_point(model, v)


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
    second.
    """
    model = rep.model
    ball = enumerate_ball(rep, CERT_ORBIT_LEN, dedup_tol=1e-9 if rep.relator else None)
    center = domain_center(model)
    _, orbit = act_stack(ball.stack, center)
    targets = np.concatenate([center.ortho[None], orbit] + [pt.ortho[None] for pt in sample.points])

    def margin_against(z0):
        z = np.broadcast_to(z0.ortho, targets.shape)
        return float(np.min(transversality_margins(model, targets, z)))

    candidates = [("dual_center", dual_center(model))]
    _, p_minus = base_points(model)
    candidates.append(("p_minus", p_minus))
    rng = np.random.default_rng(seed)
    for k in range(probe_count):
        if model.is_lagrangian:
            from .causal import _random_hermitian

            z = chart_point(model, 4.0 * _random_hermitian(model, rng))
        else:
            from .einstein import random_ein_point

            z = random_ein_point(model, rng)
        candidates.append((f"probe_{k}", z))
    best = None
    for label, z0 in candidates:
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
    from .causal import causal_hull

    model = rep.model
    frames = np.stack([bp.frame for bp in base_pts])
    orthos = np.stack([bp.ortho for bp in base_pts])
    if max_len >= 1:
        ball = enumerate_ball(rep, max_len, dedup_tol=1e-9 if rep.relator else None)
        # word-major: the images of every base point under word i, then under word i + 1
        F, Q = zip(*(act_stack(ball.stack, bp) for bp in base_pts))
        frames = np.concatenate([frames, np.stack(F, axis=1).reshape(-1, *frames.shape[1:])])
        orthos = np.concatenate([orthos, np.stack(Q, axis=1).reshape(-1, *orthos.shape[1:])])
    coords = chart_coordinates_stack(model, frames, orthos)
    n = len(coords)
    keep = np.arange(n)
    if n > CORE_HULL_CAP:
        keep = np.unique(np.linspace(0, n - 1, CORE_HULL_CAP).astype(int))
    hull_coords = [KMat.unembed(model.tag, coords[i]) if model.is_lagrangian else coords[i] for i in keep]
    core = causal_hull(model, hull_coords)
    if max_len < 1 or not len(sample):
        residual = None
    else:
        # how far the sampled ideal points still are from the finite orbit;
        # nonincreasing in max_len since the orbit only grows
        O = _projectors(model, orthos)
        S = _projectors(model, np.stack([pt.ortho for pt in sample.points]))
        o2 = np.real(np.einsum("kij,kij->k", O, np.conj(O)))
        s2 = np.real(np.einsum("kij,kij->k", S, np.conj(S)))
        cross = np.real(np.einsum("kij,lij->kl", S, np.conj(O)))
        d2 = np.maximum(s2[:, None] + o2[None, :] - 2.0 * cross, 0.0)
        residual = float(np.max(np.sqrt(np.min(d2, axis=1))))
    return {"core": core, "ideal_residual": residual,
            "orbit_size": n, "hull_points": len(hull_coords)}


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


def levi_gap_report(rep: Representation, max_len: int) -> dict:
    """Half the Levi-block singular values must exceed 1 for long words.

    Applies to reps landing in the block-diagonal Levi subgroup; words of
    length at most 2 are exempt (short products may be balanced).
    """
    model = rep.model
    if not model.is_lagrangian or model.rank % 2 != 0:
        raise NotInLevi("the Levi gap needs a Lagrangian model of even rank")
    for name in rep.gen_names:
        if not in_levi_block_form(rep.gens[name]):
            raise NotInLevi(f"generator {name!r} is not block-diagonal")
    ball = enumerate_ball(rep, max_len, dedup_tol=1e-9 if rep.relator else None)
    half = model.rank // 2
    mult = 2 if model.tag == QUATERNION else 1
    idx = _levi_index(model)  # the Levi block's embedded rows and columns
    long = np.flatnonzero(ball.lengths > 2)
    blocks = ball.stack[long[:, None, None], idx[:, None], idx]
    s = np.linalg.svd(blocks, compute_uv=False)
    upper = np.log(s[:, (half - 1) * mult])
    lower = np.log(s[:, half * mult])
    violations = ["".join(ball.words[i]) for i in long[~((upper > 0.0) & (0.0 > lower))]]
    checked = len(long)
    return {
        "max_len": max_len,
        "words_checked": checked,
        "violations": violations[:20],
        "n_violations": len(violations),
        "min_upper": float(np.min(upper)) if checked else None,
        "max_lower": float(np.max(lower)) if checked else None,
        "passed": bool(checked and not violations),
    }
