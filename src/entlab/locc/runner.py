"""Evaluation of dilution protocols against power-state targets.

run_protocol feeds a maximally entangled pair through a Schmidt-diagonal
protocol and scores every outcome against the target profile. Every
outcome carries its output profile in one form, run columns (count,
log2 x) over the target's sorted positions: a shift family
(StandardFormProtocol) gives runs of length 1, a symbolic block family
gives its runs for one outcome of multiplicity K. run_protocol_dense is
the full-matrix oracle for the diagonal path. The certificate checker reads
three profile queries off the outcome's runs cut at the class boundaries,
on arrays, and re-derives the communication lower bound from them and the
recorded quantities, flagging each inequality separately. Reports and
certificates hand their fields out as plain documents (to_doc), with
non-finite numbers as None; writing them as JSON is the caller's job.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

import numpy as np

from ..errors import CapExceededError, DegenerateSpectrumError, ValidationError
from ..logdomain import NEG_INF, log2_int, log2_ints, log2sub, log2sub_arrays, log2sumexp
from ..qmath import SchmidtProfile
from ..spectrum import ClassSpectrum
from ..tolerances import DENSE_DIM_CAP, DENSE_SIDE, EQUALITY_TOL
from .protocols import BlockShiftFamily, StandardFormProtocol

# below this probability an outcome cannot be scored meaningfully
PROB_FLOOR = 1e-15

# spectra must satisfy n > CERT_N_COEFF * beta^2 before the certificate
# may demand that the high-eigenvalue projector capture mass > 1/4
CERT_N_COEFF = 2500.0

# the reference instance's parameters: the high-eigenvalue projector's
# target capture and the junk register's capture
CERT_DELTA_RHO = 0.95
CERT_DELTA_GAMMA = 0.04


def _num(x):
    """A document value: non-finite floats become None (JSON has no inf)."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


@dataclass(frozen=True, eq=False)
class OutcomeState:
    """One protocol outcome: probability, error, and its output profile.

    error is the distance between the output pair state and the target.
    x_runs holds the output profile as columns (counts, log2 x) over the
    target's sorted positions; the dense oracle records no profile.
    multiplicity counts symmetry-equivalent outcomes a symbolic run does
    not enumerate.
    """

    k: int
    prob: float
    log2_prob: float
    error: float
    good: bool
    multiplicity: int = 1
    x_runs: tuple | None = None


@dataclass(frozen=True)
class ProtocolRunReport:
    """Communication and fidelity accounting for one protocol run."""

    d: int
    c: int
    s: float
    epsilon: float
    per_outcome: tuple
    n: int | None = None

    def __post_init__(self):
        if self.c < 0 or self.c != int(self.c):
            raise ValidationError("message bits must be a nonnegative integer")
        if self.success:
            if not (0.0 <= self.s < math.inf):
                raise ValidationError("success probability exponent out of range")
            if not (0.0 <= self.epsilon <= 2.0 + EQUALITY_TOL):
                raise ValidationError("error must lie in [0, 2]")

    @property
    def success(self) -> bool:
        """Some outcome is good; a run without one has s = epsilon = inf."""
        return self.s != math.inf

    @property
    def log2_d(self) -> float:
        return log2_int(self.d)

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "d": int(self.d),
            "c": self.c,
            "s": _num(self.s),
            "epsilon": _num(self.epsilon),
            "success": self.success,
            "per_outcome": [
                {
                    "k": o.k,
                    "prob": o.prob,
                    "log2_prob": _num(o.log2_prob),
                    "error": _num(o.error),
                    "good": o.good,
                    "multiplicity": o.multiplicity,
                }
                for o in self.per_outcome
            ],
        }


def _sorted_target(target, need: int):
    """First `need` sorted target probabilities, zero-padded, and the mass
    past them in linear and log2 form.  The linear tail is an exact 0.0
    whenever the target fits inside `need` entries, so a bitwise-perfect
    match still scores error 0."""
    if isinstance(target, ClassSpectrum):
        view = target.view
        eigs = view.log2_eigs
        # classes 0..k-1 hold the first cut positions, all of them when need passes the end
        k = min(view.class_at(need - 1) + 1, eigs.size)
        cum = view.bounds(k)
        cut = min(need, cum[k])
        probs = np.zeros(need)
        probs[:cut] = np.repeat(np.exp2(eigs[:k]), np.diff(cum[:k] + [cut]))
        # the part of class k - 1 past need, then every later class whole
        tail_terms = [log2_int(cum[k] - need) + eigs[k - 1]] if cum[k] > need else []
        tail_terms += (target.log2_mults[k:] + eigs[k:]).tolist()
        tail = float(np.exp2(log2sumexp(tail_terms))) if tail_terms else 0.0
        return probs, tail, _log2_mass_past(view, need)
    if not isinstance(target, SchmidtProfile):
        target = SchmidtProfile(np.asarray(target, dtype=float).reshape(-1))
    vec = target.probs
    probs = np.zeros(need)
    take = min(need, vec.size)
    probs[:take] = vec[:take]
    tail = float(vec[take:].sum()) if vec.size > take else 0.0
    return probs, tail, math.log2(tail) if tail > 0.0 else NEG_INF


def _log2_mass_past(view, covered: int) -> float:
    """log2 of the target mass past the first `covered` sorted positions."""
    lm = view.log2_mass_of_prefix(covered)
    return log2sub(0.0, lm) if lm < 0.0 else NEG_INF


def _report(d: int, c: int, n, raw) -> ProtocolRunReport:
    """Report over the (k, prob, log2 prob, multiplicity, error, x_runs)
    outcomes of a run.

    An outcome's mass is its probability times its multiplicity. It is good
    when its mass is scored and its error lies within a gap just above the
    best finite error.
    """
    # a symbolic outcome's 2^-c probability may underflow while its
    # multiplicity 2^c is past float range; their product is exactly 1
    masses = [
        p if mult == 1 else float(np.exp2(lp + log2_int(mult))) for _, p, lp, mult, _, _ in raw
    ]
    total = sum(masses)
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {total}")
    best = min((r[4] for r in raw if math.isfinite(r[4])), default=None)
    cutoff = 0.0 if best is None else max(2.0 * best, best + 1e-6)
    outcomes = tuple(
        OutcomeState(
            k=k,
            prob=p,
            log2_prob=lp,
            error=err,
            good=mass > PROB_FLOOR and err <= cutoff,
            multiplicity=mult,
            x_runs=runs,
        )
        for mass, (k, p, lp, mult, err, runs) in zip(masses, raw)
    )
    total_good = float(sum(mass for mass, o in zip(masses, outcomes) if o.good))
    if total_good <= 0.0:
        s = math.inf
        epsilon = math.inf
    else:
        s = max(0.0, -math.log2(min(1.0, total_good)))
        if s < 1e-12:  # roundoff dust from summing the outcome probabilities
            s = 0.0
        epsilon = max(o.error for o in outcomes if o.good)
    return ProtocolRunReport(
        d=d,
        c=c,
        s=s,
        epsilon=epsilon,
        per_outcome=outcomes,
        n=n,
    )


def _scored(k: int, p: float, err: float, runs=None) -> tuple:
    """One materialized outcome in the form _report reads."""
    return (k, p, math.log2(p) if p > PROB_FLOOR else NEG_INF, 1, err, runs)


def _target_n(target):
    return target.n if isinstance(target, ClassSpectrum) else None


def _require_diagonal(proto):
    if not isinstance(proto, StandardFormProtocol):
        raise ValidationError(
            "only Schmidt-diagonal protocols are scored here; check a standardized"
            " program with run_standard_form"
        )


def _hellinger_error(hell: float) -> float:
    """Trace distance of two pure states from their Hellinger deficit."""
    hell = min(1.0, hell)
    return 2.0 * math.sqrt(max(0.0, hell * (2.0 - hell)))


def _run_weights(proto: StandardFormProtocol, target):
    d = proto.dim_a
    tprof, t_tail, _ = _sorted_target(target, d)
    sqrt_t = np.sqrt(tprof)
    ones = [1] * d  # every outcome's runs share one count column
    raw = []
    for k, (weights, perm) in enumerate(proto.kraus_ops()):
        p = float(weights.sum()) / d
        v = np.zeros(d)
        if p > PROB_FLOOR:
            v[perm] = weights / (d * p)
        # overlap deficit in Hellinger form: exact zero for a perfect match,
        # where 1 - (sum sqrt(v q))^2 would lose everything to cancellation
        diff = np.sqrt(v) - sqrt_t
        err = _hellinger_error(0.5 * (float(diff @ diff) + t_tail))
        with np.errstate(divide="ignore"):
            raw.append(_scored(k, p, err, (ones, np.log2(v))))
    return _report(d, proto.message_bits, _target_n(target), raw)


def _run_dense(proto: StandardFormProtocol, target):
    """Full-matrix run of a diagonal protocol, zero-padded to the target length."""
    d = proto.dim_a
    tprof, _, log2_tail = _sorted_target(target, max(d, DENSE_SIDE))
    if d > DENSE_SIDE or log2_tail > NEG_INF:
        raise CapExceededError(f"dense dimension exceeds {DENSE_DIM_CAP} ({DENSE_SIDE} per side)")
    dd = max(d, int(np.flatnonzero(tprof)[-1]) + 1)
    phi_vec = np.diag(np.sqrt(tprof[:dd])).astype(complex).reshape(-1)
    chi0 = np.zeros((dd, dd), dtype=complex)
    chi0[:d, :d] = np.eye(d) / math.sqrt(d)

    cols = np.arange(d)

    raw = []
    for k, (weights, perm) in enumerate(proto.kraus_ops()):
        # sum_j sqrt(w_j) |perm_j><j| and its partner relabeling, zero-padded
        m_k = np.zeros((dd, dd), dtype=complex)
        m_k[perm, cols] = np.sqrt(weights)
        partner = np.zeros((dd, dd), dtype=complex)
        partner[perm, cols] = 1.0
        res = m_k @ chi0 @ partner.T
        p = float(np.vdot(res, res).real)
        if p <= PROB_FLOOR:
            raw.append(_scored(k, p, math.inf))
            continue
        amp = res / math.sqrt(p)
        mm = m_k @ m_k.conj().T
        if np.abs(amp @ amp.conj().T - mm / np.trace(mm).real).max() > 1e-9:
            raise ValidationError("reduced output disagrees with the operator square")
        vec = amp.reshape(-1)
        z = complex(np.vdot(phi_vec, vec))
        overlap = abs(z)
        if overlap < 1e-12:
            err = 2.0
        else:
            # phase-align before differencing so a bitwise match gives 0,
            # where 1 - overlap^2 loses everything to cancellation
            diffv = vec * (z.conjugate() / overlap) - phi_vec
            err = _hellinger_error(0.5 * float(np.vdot(diffv, diffv).real))
        raw.append(_scored(k, p, err))
    return _report(d, proto.message_bits, _target_n(target), raw)


def _run_symbolic(family: BlockShiftFamily, target):
    if not isinstance(target, ClassSpectrum) or (
        target is not family.spectrum
        and not np.array_equal(target.log2_eigs, family.spectrum.log2_eigs)
    ):
        raise ValidationError("symbolic run must target the family's spectrum")
    c = family.budget_c
    # one representative of the K = 2^c outcomes, each of probability 2^-c
    outcome = (
        0, float(np.exp2(-float(c))), -float(c), int(family.K), family.target_error, family.x_runs
    )
    return _report(family.d_prime, c, target.n, [outcome])


def run_protocol(proto, target):
    """Run a Schmidt-diagonal protocol on its maximally entangled input pair.

    Returns (outcomes, report). proto is a StandardFormProtocol, whose
    input has dimension dim_a, or a BlockShiftFamily, whose input
    has dimension d_prime; any other protocol raises ValidationError
    (standardized programs are checked with run_standard_form). target is
    the ideal output profile: a SchmidtProfile, a raw probability vector,
    or a ClassSpectrum for power states, which sets the report's n; a
    BlockShiftFamily accepts only the spectrum it was built from. A gap
    just above the best outcome's error separates good outcomes from junk.
    """
    if isinstance(proto, BlockShiftFamily):
        report = _run_symbolic(proto, target)
        return report.per_outcome, report
    _require_diagonal(proto)
    report = _run_weights(proto, target)
    return report.per_outcome, report


def run_protocol_dense(proto: StandardFormProtocol, d: int, target, *, n=None):
    """Score a diagonal protocol on full matrices; cross-check oracle for run_protocol.

    d must be the protocol's input dimension and n, when given, the
    target spectrum's n; both only restate what proto and target carry.
    """
    _require_diagonal(proto)
    if d != proto.dim_a:
        raise ValidationError(f"input dimension {d} given for a protocol on {proto.dim_a}")
    if n is not None and n != _target_n(target):
        raise ValidationError(f"n = {n} given for a target of n = {_target_n(target)}")
    report = _run_dense(proto, target)
    return report.per_outcome, report


@dataclass(frozen=True)
class ConcentrationResult:
    """Ensemble of maximally entangled blocks extractable without messages."""

    n: int
    expected_yield: float
    entropy_rate: float

    @property
    def deficit(self) -> float:
        """Bits of entanglement lost relative to n times the entropy rate."""
        return self.n * self.entropy_rate - self.expected_yield


def concentrate(spec: ClassSpectrum) -> ConcentrationResult:
    """Measure the type class of the n-fold power and keep the uniform block.

    spec is the n-fold power; it carries n and the base. Class c with
    multiplicity m_c arrives with its spectral mass and yields log2(m_c)
    ebits; no classical communication is involved. Only log2
    multiplicities are read, so n past the exact-integer limit runs.
    """
    # one sequential sum in class order: the summation order is part of the output
    ey = float(np.cumsum(np.exp2(spec.log2_masses) * spec.log2_mults)[-1])
    return ConcentrationResult(n=spec.n, expected_yield=ey, entropy_rate=spec.stats.entropy)


@dataclass(frozen=True)
class TheoremChainCertificate:
    """Every quantity the communication bound's chain computes, with verdicts.

    A Schmidt-diagonal run has no junk register, so the chain's Gamma steps
    (S(Gamma, delta_gamma) = 1, Tr P2 Gamma = 1, P_I = P1 x P2, product
    distance = error) are constants and are not recorded. ||x|| is recorded
    as its log2, log2_x_norm, which stays finite where the norm underflows.
    consistent() ands the eight steps that hold for any valid run, and
    past n_threshold trp1_quarter_ok and margin_quarter_ok too;
    trp1_delta_rho_ok, against the reference parameter delta_rho, is
    recorded but not judged.
    """

    n: int
    c: int
    s: float
    log2_d: float
    error: float
    log2_prob: float
    entropy: float
    alpha: float
    beta: float
    n_threshold: float
    n_past_threshold: bool
    n1: int
    log2_n1: float
    bound_n1_ok: bool
    trp1_rho: float
    trp1_quarter_ok: bool
    trp1_delta_rho_ok: bool
    margin_quarter_ok: bool
    log2_x_norm: float
    xnorm_pd_ok: bool
    xnorm_cc_ok: bool
    prob_qualifies: bool
    trpi_x: float
    trpi_x_bound_ok: bool
    witness_lower: float
    d_reduced: float
    witness_ok: bool
    dp_ok: bool
    implied_c_plus_s: float
    implied_ok: bool
    log2_capture_const: float
    delta_rho: float = CERT_DELTA_RHO
    delta_gamma: float = CERT_DELTA_GAMMA

    @property
    def consistent(self) -> bool:
        core = (
            self.prob_qualifies
            and self.bound_n1_ok
            and self.xnorm_pd_ok
            and self.xnorm_cc_ok
            and self.trpi_x_bound_ok
            and self.witness_ok
            and self.dp_ok
            and self.implied_ok
        )
        if self.n_past_threshold:
            core = core and self.trp1_quarter_ok and self.margin_quarter_ok
        return core

    def to_doc(self) -> dict:
        doc = {k: _num(v) for k, v in self.__dict__.items()}
        doc["consistent"] = self.consistent
        return doc


def _profile_queries(x_runs, view, n1: int):
    """(Tr P1 x, ||x - target||_1, log2 max x) of output runs (counts,
    log2 x), with P1 onto the first n1 sorted positions.

    The runs are cut at the class boundaries by one stable sort that merges
    the class starts inside the runs with the run ends, a class start
    before an equal run end. Piece t lies between cut points t - 1 and t;
    its class and run count the class starts and run ends before it, and
    positions past the spectrum are a class of target -inf. A class lying
    wholly inside a run has log2 length log2_mults[c], log2_int of its
    count; only a piece at a run edge pays for a big-int subtraction (an
    empty piece, where a run ends on a class start, has log2 length -inf
    and adds nothing). Both sums take their terms in position order, the
    distance's tail last.
    """
    counts, log2_x = x_runs
    lx = np.asarray(log2_x, dtype=float)
    ends = list(accumulate(counts))
    end = ends[-1]
    c_end = view.class_at(end - 1)
    bounds = view.bounds(c_end)
    eigs = view.log2_eigs[: c_end + 1]
    if eigs.size == c_end:
        eigs = np.append(eigs, NEG_INF)
    cuts = bounds[1 : c_end + 1] + ends
    order = np.array(sorted(range(len(cuts)), key=cuts.__getitem__), dtype=np.intp)
    at_end = order >= c_end
    cls = np.cumsum(~at_end) - ~at_end
    run = np.cumsum(at_end) - at_end
    edge = at_end.copy()
    edge[1:] |= at_end[:-1]
    l2len = np.empty(order.size)
    l2len[~edge] = view.log2_mults[cls[~edge]]
    te = np.flatnonzero(edge)
    pos = cuts + [0]  # pos[-1] is 0, the start of piece 0
    prev = np.append(-1, order[:-1])
    l2len[te] = log2_ints(
        list(map(sub, map(pos.__getitem__, order[te].tolist()), map(pos.__getitem__, prev[te].tolist())))
    )
    lx_p = lx[run]
    e_p = eigs[cls]
    hi, lo = np.maximum(lx_p, e_p), np.minimum(lx_p, e_p)
    live = hi != NEG_INF
    dist = np.append(l2len[live] + log2sub_arrays(hi[live], lo[live]), _log2_mass_past(view, end))

    # pieces 0..t1-1 end at or before n1; piece t1 may start before it
    n_run = bisect_right(ends, n1)
    n_cls = bisect_right(bounds, n1, 1, c_end + 1) - 1
    t1 = n_run + n_cls
    prefix = (l2len[:t1] + lx_p[:t1]).tolist()
    start = max(ends[n_run - 1] if n_run else 0, bounds[n_cls])
    if t1 < order.size and start < n1:
        prefix.append(log2_int(n1 - start) + lx[n_run])
    trpi_x = float(np.exp2(log2sumexp(prefix)))
    d_reduced = float(np.exp2(log2sumexp(dist)))
    return trpi_x, d_reduced, float(np.max(lx))


def verify_theorem_chain(
    outcome: OutcomeState,
    spec: ClassSpectrum,
    report: ProtocolRunReport,
) -> TheoremChainCertificate:
    """Re-derive the message lower bound from one good outcome's numbers.

    spec is the n-fold power target; it carries n and the base, and is the
    only source of the target the outcome's runs are measured against.
    Each inequality in the chain is evaluated on its own; consistent() ands
    together exactly the ones that must hold for any valid run.
    """
    if not outcome.good:
        raise ValidationError("certificate requires an outcome within the error threshold")
    if report.n != spec.n:
        raise ValidationError(f"run at n = {report.n} checked against a spectrum of n = {spec.n}")
    stats = spec.stats
    if stats.degenerate:
        raise DegenerateSpectrumError("flat spectrum: no deviation scale to certify against")
    n = spec.n
    view = spec.view
    ne = n * stats.entropy

    n1 = view.count_eigs_at_least(-ne)
    log2_n1 = log2_int(n1)
    bound_n1_ok = log2_n1 <= ne + 1e-9
    trp1_rho = float(np.exp2(view.log2_mass_of_prefix(n1)))
    n_threshold = CERT_N_COEFF * stats.beta * stats.beta
    n_past = n > n_threshold

    c = report.c
    s = report.s
    log2_d = report.log2_d
    if outcome.x_runs is None:
        raise ValidationError("outcome carries no output profile")
    # log2 of the largest output weight, the operator norm of the reduced
    # output, stays finite where the plain norm underflows at large n
    trpi_x, d_reduced, log2_xnorm = _profile_queries(outcome.x_runs, view, n1)
    xnorm_pd_ok = log2_xnorm <= -outcome.log2_prob - log2_d + 1e-9
    xnorm_cc_ok = log2_xnorm <= c + s - log2_d + 1e-6
    prob_qualifies = outcome.log2_prob >= -(c + s) - 1e-6

    trpi_x_bound_ok = trpi_x <= 0.0 or math.log2(trpi_x) <= log2_n1 + log2_xnorm + 1e-9

    witness_lower = 2.0 * (trp1_rho - trpi_x)
    witness_ok = witness_lower <= d_reduced + 1e-9
    # the output pair is pure with a trivial junk register, so its product
    # distance equals its error
    err = outcome.error
    dp_ok = d_reduced <= err + 1e-9

    margin = trp1_rho - d_reduced / 2.0
    if margin > 0.0:
        implied = math.log2(margin) + log2_d - log2_n1
    else:
        implied = NEG_INF
    implied_ok = (not math.isfinite(implied)) or (c + s >= implied - 1e-6)

    return TheoremChainCertificate(
        n=n,
        c=c,
        s=s,
        log2_d=log2_d,
        error=err,
        log2_prob=outcome.log2_prob,
        entropy=stats.entropy,
        alpha=stats.alpha,
        beta=stats.beta,
        n_threshold=n_threshold,
        n_past_threshold=n_past,
        n1=int(n1),
        log2_n1=log2_n1,
        bound_n1_ok=bound_n1_ok,
        trp1_rho=trp1_rho,
        trp1_quarter_ok=trp1_rho > 0.25,
        trp1_delta_rho_ok=trp1_rho >= CERT_DELTA_RHO,
        margin_quarter_ok=trp1_rho >= CERT_DELTA_GAMMA / 4.0 - 1e-12,
        log2_x_norm=log2_xnorm,
        xnorm_pd_ok=xnorm_pd_ok,
        xnorm_cc_ok=xnorm_cc_ok,
        prob_qualifies=prob_qualifies,
        trpi_x=trpi_x,
        trpi_x_bound_ok=trpi_x_bound_ok,
        witness_lower=witness_lower,
        d_reduced=d_reduced,
        witness_ok=witness_ok,
        dp_ok=dp_ok,
        implied_c_plus_s=implied,
        implied_ok=implied_ok,
        log2_capture_const=log2_d - stats.alpha * math.sqrt(n) - log2_n1,
    )
