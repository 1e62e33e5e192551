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
    alpha_r,
    in_levi_block_form,
    lyapunov_projection,
    model_preset,
    random_lie_perturbation,
    tau_p,
)
from .kmat import KMat
from .scalars import QUATERNION, REAL
from .shilov import (
    ShilovPoint,
    _quat_frame_from_embedded,
    act,
    base_points,
    chart_coordinates,
    chart_point,
    transversality_margins,
)

GAP_FLOOR = 1e-3
BALL_CAP = 10**7
PINGPONG_HALF_WIDTH = 0.36  # must sit in (arctan(1/3) complement bound, pi/8); see certificate


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
            defect = (prod.g - KMat.eye(self.model.tag, self.model.dim)).norm()
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
    return float((g.g - KMat.eye(rep.model.tag, rep.model.dim)).norm())


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
            g = GroupElement(model, KMat(REAL, A))
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


def pingpong_certificate(rep: Representation, half_width=PINGPONG_HALF_WIDTH, scan=128) -> dict:
    """Verify the ping-pong configuration of a rank-one pair on RP^1.

    Each letter gets the arc of the given half width around its attracting
    direction; the check is that the arcs are pairwise disjoint and every
    letter maps the complement of its repelling arc strictly inside its
    own arc.  Reports the worst margins; margins must be positive.
    """
    if rep.sl2 is None and not (rep.model.family == "SP" and rep.model.rank == 1):
        raise ModelMismatch("the interval check runs on the rank-one SL(2, R) model")
    mats = {}
    for name in rep.gen_names:
        A = rep.sl2[name] if rep.sl2 else rep.gens[name].g.a
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
        thetas = c_rep + half_width + np.linspace(0.0, np.pi - 2 * half_width, scan)
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

    stack[i] is the complex embedding of the product of words[i] (real
    models keep the real matrix, which is its own embedding); element(i)
    wraps one entry as a group element without copying it.
    """

    max_len: int
    words: list
    stack: np.ndarray
    lengths: np.ndarray
    model: GroupModel
    dedup: dict = field(default_factory=lambda: {"enabled": False})

    def element(self, i) -> GroupElement:
        return GroupElement(self.model, KMat.unembed(self.model.tag, self.stack[i]), _check=False)


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

    Each length is one batched product frontier[parent] @ gen[letter] over
    the (parent, letter) grid without inverse letters; the grid is read
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
    real = rep.model.tag == REAL
    gens = np.stack([rep.gens[l].g.a if real else rep.gens[l].g.embed() for l in letters])
    frontier = np.eye(gens.shape[1], dtype=gens.dtype)[None]
    last = np.array([-1])  # letter index ending each frontier word
    frontier_words = [()]
    seen = set(_bucket_keys(frontier, dedup_tol)) if dedup_tol else None
    words, levels = [], []
    removed = 0
    for _ in range(max_len):
        parent, letter = np.nonzero(inverse[None, :] != last[:, None])
        level = np.matmul(frontier[parent], gens[letter])
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
    s = np.linalg.svd(stack.astype(complex, copy=False), compute_uv=False)
    if model.is_lagrangian:
        mult = 2 if model.tag == QUATERNION else 1
        eps_r = np.log(s[:, (model.rank - 1) * mult])
    else:
        eps_r = np.log(s[:, 1])
    return 2.0 * np.maximum(eps_r, 0.0)


def anosov_gap_report(rep: Representation, max_len: int, cap=BALL_CAP, ball=None) -> dict:
    """Fit a linear lower bound for alpha_r(mu(w)) over the word ball.

    This is finite-ball evidence only: PASS means the fitted slope over
    the per-length minima exceeds 0.05 and no word past the identity has
    a vanishing gap.
    """
    if ball is None:
        dedup_tol = 1e-9 if rep.relator else None
        ball = enumerate_ball(rep, max_len, dedup_tol=dedup_tol, cap=cap)
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


def _attract(g: GroupElement, tol, max_iter, seed):
    model = g.model
    if alpha_r(lyapunov_projection(g)) <= GAP_FLOOR:
        raise NoGap("no eigenvalue-modulus gap at the boundary rank")
    E = g.g.embed()
    E = E / np.max(np.abs(E))
    if model.is_lagrangian:
        ncols = model.rank * (2 if model.tag == QUATERNION else 1)
    else:
        ncols = 1
    rng = np.random.default_rng(seed)
    if np.iscomplexobj(E):
        Z = rng.standard_normal((E.shape[0], ncols)) + 1j * rng.standard_normal((E.shape[0], ncols))
    else:
        Z = rng.standard_normal((E.shape[0], ncols))
    Z, _ = np.linalg.qr(Z)
    P_prev = Z @ np.conj(Z).T
    for _ in range(max_iter):
        Z, _ = np.linalg.qr(E @ Z)
        P = Z @ np.conj(Z).T
        move = np.linalg.norm(P - P_prev)
        P_prev = P
        if move < tol:
            break
    else:
        raise NonConvergence(f"power iteration did not settle below {tol:.1e}")
    GZ = E @ Z
    residual = float(np.linalg.norm(GZ - Z @ (np.conj(Z).T @ GZ)) / max(np.linalg.norm(GZ), 1e-300))
    if residual > 1e-8:
        raise NonConvergence(f"invariance residual {residual:.3e}")
    if model.is_lagrangian:
        if model.tag == QUATERNION:
            frame = _quat_frame_from_embedded(Z)
        else:
            frame = KMat.unembed(model.tag, Z)
        return ShilovPoint(model, frame), residual
    return ShilovPoint(model, np.real(Z[:, 0])), residual


def attracting_point(g: GroupElement, tol=1e-12, max_iter=10_000, seed=0) -> ShilovPoint:
    """Attracting boundary point of a gapped element, by power iteration."""
    pt, _ = _attract(g, tol, max_iter, seed)
    return pt


@dataclass
class LimitSample:
    points: list
    word_lengths: list
    residuals: list
    words: list

    def __len__(self):
        return len(self.points)


def sample_limit_set(rep: Representation, max_len: int, per_length_cap=100, seed=0,
                     margin_floor=1e-6) -> LimitSample:
    """Attracting points of seed-sampled words, deduplicated by separation.

    A new point is kept only when it is at least 1e-6 away in frame
    distance and at least margin_floor away in transversality margin from
    every kept point; the second clause merges boundary points so close
    that downstream triple computations would sit inside the tolerance
    band anyway.
    """
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
    # kept points, stacked for one vectorized distance and det per candidate
    probe = base_points(rep.model)[0]
    projectors = np.empty((len(chosen),) + probe.projector().shape, probe.ortho.dtype)
    orthos = np.empty((len(chosen),) + probe.ortho.shape, probe.ortho.dtype)
    points, word_lengths, residuals, words = [], [], [], []
    for i in chosen:
        try:
            pt, res = _attract(ball.element(i), 1e-12, 10_000, seed)
        except (NoGap, NonConvergence):
            continue
        k = len(points)
        P = pt.projector()
        near = np.linalg.norm(projectors[:k] - P, axis=(1, 2)) < 1e-6
        Q = np.broadcast_to(pt.ortho, orthos[:k].shape)
        margins = transversality_margins(rep.model, Q, orthos[:k])
        if near.any() or (margins <= margin_floor).any():
            continue
        projectors[k] = P
        orthos[k] = pt.ortho
        points.append(pt)
        word_lengths.append(len(ball.words[i]))
        residuals.append(res)
        words.append(ball.words[i])
    return LimitSample(points, word_lengths, residuals, words)


def verify_maslov_zero(sample: LimitSample, n_triples: int, seed=0) -> dict:
    """Random transverse triples from the sample should all have index zero."""
    from .maslov import maslov_indices

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
                              seed=0, orbit_len=4) -> dict:
    """Sampled evidence for a proper invariant domain: a point z0 avoided by the action.

    The certificate passes when the orbit of the standard diamond's
    center and every limit point stay transverse to z0 with margin above
    1e-6; this is CERTIFICATE(SAMPLED) evidence, not a proof.  The first
    candidate is the dual diamond's center, which every graph over a
    definite matrix misses; the chart's base point itself generically
    touches fixed Lagrangians of block-diagonal elements, so it comes
    second.
    """
    model = rep.model
    ball = enumerate_ball(rep, orbit_len, dedup_tol=1e-9 if rep.relator else None)
    center = domain_center(model)
    orbit = [center] + [act(ball.element(i), center) for i in range(len(ball.words))]
    targets = np.stack([pt.ortho for pt in orbit + list(sample.points)])

    def margin_against(z0):
        z = np.broadcast_to(z0.ortho, targets.shape)
        return float(np.min(transversality_margins(model, targets, z)))

    candidates = [("dual_center", dual_center(model))]
    _, p_minus = base_points(model)
    candidates.append(("p_minus", p_minus))
    rng = np.random.default_rng(seed)
    for k in range(probe_count):
        if model.is_lagrangian:
            X = KMat.random(model.tag, model.rank, model.rank, rng)
            z = chart_point(model, 4.0 * 0.5 * (X + X.H))
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
                    "orbit_size": len(orbit), "passed": True}
    raise NoCertificate(f"best candidate {best[0]} has margin {best[2]:.3e}")


def convex_core_sample(rep: Representation, sample: LimitSample, base_pts, max_len,
                       orbit_cap=150) -> dict:
    """Causal hull of a finite orbit plus its ideal residual against the limit sample.

    The residual is the Hausdorff frame distance between the longest-word
    orbit points and the sampled limit set; it should shrink as max_len
    grows.  The hull itself is built on a capped, deterministic subsample
    of the orbit to keep the pair scan affordable.
    """
    from .causal import causal_hull

    model = rep.model
    orbit_pts = list(base_pts)
    orbit_lens = [0] * len(base_pts)
    if max_len >= 1:
        ball = enumerate_ball(rep, max_len, dedup_tol=1e-9 if rep.relator else None)
        for i, w in enumerate(ball.words):
            g = ball.element(i)
            for bp in base_pts:
                orbit_pts.append(act(g, bp))
                orbit_lens.append(len(w))
    coords = [chart_coordinates(pt) for pt in orbit_pts]
    if len(coords) > orbit_cap:
        keep = np.unique(np.linspace(0, len(coords) - 1, orbit_cap).astype(int))
        hull_coords = [coords[i] for i in keep]
    else:
        hull_coords = coords
    core = causal_hull(model, hull_coords)
    L_max = max(orbit_lens)
    if L_max == 0 or not len(sample):
        residual = None
    else:
        # how far the sampled ideal points still are from the finite orbit;
        # nonincreasing in max_len since the orbit only grows
        O = np.stack([pt.projector() for pt in orbit_pts])
        S = np.stack([pt.projector() for pt in sample.points])
        o2 = np.real(np.einsum("kij,kij->k", O, np.conj(O)))
        s2 = np.real(np.einsum("kij,kij->k", S, np.conj(S)))
        cross = np.real(np.einsum("kij,lij->kl", S, np.conj(O)))
        d2 = np.maximum(s2[:, None] + o2[None, :] - 2.0 * cross, 0.0)
        residual = float(np.max(np.sqrt(np.min(d2, axis=1))))
    return {"core": core, "ideal_residual": residual,
            "orbit_size": len(orbit_pts), "hull_points": len(hull_coords)}


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
    r = model.rank
    half = r // 2
    mult = 2 if model.tag == QUATERNION else 1
    # the Levi block's embedding: rows and columns 0:r, plus dim:dim+r over H
    idx = np.r_[0:r, model.dim:model.dim + r] if mult == 2 else np.arange(r)
    long = np.flatnonzero(ball.lengths > 2)
    blocks = ball.stack[long[:, None, None], idx[:, None], idx]
    s = np.linalg.svd(blocks.astype(complex, copy=False), compute_uv=False)
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
