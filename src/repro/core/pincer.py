"""The Pincer-Search algorithm (paper Section 3.5).

Pincer-Search runs the Apriori-style bottom-up breadth-first search while
simultaneously maintaining the MFCS top-down.  Each pass reads the database
once, counting both the bottom-up candidates ``C_k`` and the unclassified
MFCS elements.  MFCS elements found frequent are maximal frequent itemsets
(their supersets were excluded by earlier infrequent discoveries) and move
to the MFS; their subsets disappear from the bottom-up search
(Observation 2).  Infrequent itemsets found bottom-up split the MFCS via
MFCS-gen (Observation 1), letting the top-down front descend many levels
per pass.

The implementation follows the paper's pseudocode with the documented
amendments (DESIGN.md):

* **A1** — the loop continues while the MFCS still holds *unclassified*
  elements, even when ``C_k`` is empty; the paper's ``C_k ≠ ∅`` guard can
  terminate with maximal frequent itemsets still uncounted inside MFCS.
* **A2** — MFCS elements counted infrequent are fed back into MFCS-gen
  (they are classified-infrequent itemsets, and Definition 1 forbids the
  MFCS from keeping them covered).  A1+A2 also make the top-down half a
  complete maximal-itemset miner on its own, which guarantees overall
  completeness even in corner cases where the join+recovery bottom-up
  chain stalls (see the A6 discussion in DESIGN.md).
* **A3/A4/A6** — see :mod:`repro.core.candidates` and
  :mod:`repro.core.mfcs`.

Adaptivity (Section 3.5): a pluggable
:class:`~repro.core.adaptive.AdaptivePolicy` may abandon the MFCS mid-run;
the algorithm then completes the remaining levels bottom-up.  To stay
complete — and to keep the Observation-2 savings — the frequent
``k``-itemsets that had been pruned as subsets of discovered maximal
itemsets are *virtually* restored for candidate generation: they rejoin
the Apriori join as known-frequent itemsets and are never re-counted.
"""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple

from ..db.counting import SupportCounter, resolve_counter
from ..db.transaction_db import TransactionDatabase
from ..obs.instrument import NOOP, Instrumentation
from ..obs.logsetup import get_logger
from .adaptive import AdaptivePolicy, AlwaysMaintain, PassRateEstimator
from .bitset import candidate_upper_bound
from .candidates import first_level_candidates
from .itemset import Itemset
from .kernel import LatticeKernel, make_kernel
from .lattice import maximal_elements
from .result import MiningResult
from .stats import MiningStats, PassStats

logger = get_logger("core.pincer")


@contextmanager
def _engine_scope(engine: SupportCounter, owned: bool):
    """Close ``engine`` on exit when the miner created it itself.

    Caller-supplied counters are the caller's to manage (the bench
    harness reuses one across runs); miner-created ones would otherwise
    leak worker pools and shared-memory segments until GC.
    """
    try:
        yield engine
    finally:
        if owned:
            engine.close()


class PincerSearch:
    """Configurable Pincer-Search miner.

    Parameters
    ----------
    engine:
        Counting-engine name (see :func:`repro.db.counting.get_counter`).
        The default ``"auto"`` resolves per database at :meth:`mine` time:
        ``packed`` (vectorized NumPy) on large databases when NumPy is
        installed, else ``bitmap``.
    adaptive:
        When True (the paper's evaluated configuration) an
        :class:`AdaptivePolicy` may abandon the MFCS; when False the pure
        algorithm maintains it to the end.
    policy:
        Explicit policy prototype, overriding ``adaptive``.  Policies are
        stateful, so each :meth:`mine` call runs on its own deep copy and
        the prototype itself is never changed.
    prune_uncovered:
        Extension beyond the paper: additionally drop bottom-up candidates
        not covered by MFS ∪ MFCS.  Such candidates are provably
        infrequent (the MFCS cover includes every frequent itemset at all
        times), so this never changes the result — only the candidate
        counts.  Off by default for paper fidelity.
    kernel:
        Lattice-kernel name (see :mod:`repro.core.kernel`): ``"bitmask"``
        (interned masks, the default, also what ``"auto"``/None picks) or
        ``"tuple"`` (the seed fallback, only by name).  Both kernels
        produce identical results; the differential tests rely on it.
    """

    def __init__(
        self,
        engine: str = "auto",
        adaptive: bool = True,
        policy: Optional[AdaptivePolicy] = None,
        prune_uncovered: bool = False,
        kernel: Optional[str] = None,
    ) -> None:
        self._engine = engine
        self._adaptive = adaptive
        self._policy_prototype = policy
        self._prune_uncovered = prune_uncovered
        self._kernel = kernel

    @property
    def name(self) -> str:
        return "pincer-search" if self._adaptive else "pincer-search-pure"

    @property
    def prune_uncovered(self) -> bool:
        return self._prune_uncovered

    def _make_policy(self) -> AdaptivePolicy:
        if self._policy_prototype is not None:
            return copy.deepcopy(self._policy_prototype)
        return AdaptivePolicy() if self._adaptive else AlwaysMaintain()

    # ------------------------------------------------------------------

    def mine(
        self,
        db: TransactionDatabase,
        min_support: Optional[float] = None,
        *,
        min_count: Optional[int] = None,
        counter: Optional[SupportCounter] = None,
        obs: Optional[Instrumentation] = None,
        initial_mfcs: Optional[List[Itemset]] = None,
        bottom_up: bool = True,
    ) -> MiningResult:
        """Discover the maximum frequent set of ``db``.

        Exactly one of ``min_support`` (fraction of ``|D|``) and
        ``min_count`` (absolute transactions) must be given.  ``obs``
        (see :func:`repro.obs.capture`) enables span tracing and metrics
        for the run; the default no-op instrumentation costs nothing.

        ``initial_mfcs`` seeds the top-down front in place of the
        full-universe MFCS.  The seed must satisfy *both* MFCS
        invariants at this threshold: (a) it covers every frequent
        itemset, and (b) every strict superset of a member is
        infrequent — (b) is what licenses declaring a frequent MFCS
        element maximal.  The maximal frequent family previously mined
        on the *same database* at a threshold ``<=`` this one satisfies
        both (any itemset frequent now was frequent then, hence under
        some old maximal member; any strict superset of an old maximal
        member was infrequent then, hence infrequent now).  Sessions,
        not end callers, supply this.

        ``bottom_up=False`` runs the top-down half alone: no Apriori
        candidates, only MFCS classification and descent.  Amendments
        A1/A2 make that a complete maximal miner by itself, and with a
        tight ``initial_mfcs`` (e.g. the maximal union of per-partition
        mines, which already covers every frequent itemset) it touches
        the database only where classifications flip.  Because the
        bottom-up stream an adaptive abandonment would fall back to does
        not exist in this mode, the MFCS is unconditionally maintained
        to the end; ``initial_mfcs`` is required.
        """
        if not bottom_up and initial_mfcs is None:
            raise ValueError(
                "bottom_up=False needs an initial_mfcs seed: the top-down "
                "half alone has no candidate stream to fall back on"
            )
        threshold, fraction = resolve_threshold(db, min_support, min_count)
        engine, decision = resolve_counter(db, self._engine, counter)
        obs = obs if obs is not None else NOOP
        engine.obs = obs
        engine.begin_query()
        progress = obs.progress
        if progress.enabled:
            progress.start_run(
                algorithm=self.name,
                num_transactions=len(db),
                min_support_count=threshold,
            )
        policy = self._make_policy() if bottom_up else AlwaysMaintain()
        lattice = make_kernel(self._kernel, db.universe)
        rate_estimator = PassRateEstimator()
        started = time.perf_counter()

        stats = MiningStats(
            algorithm=self.name,
            engine=decision.engine,
            engine_evidence=decision.evidence,
        )
        supports: Dict[Itemset, int] = {}
        mfs: Set[Itemset] = set()
        mfs_cover = lattice.make_cover()
        if initial_mfcs is None:
            mfcs = lattice.make_mfcs(db.universe)
        else:
            mfcs = lattice.make_mfcs_from(initial_mfcs)
        candidates: List[Itemset] = (
            first_level_candidates(db.universe) if bottom_up else []
        )
        # judge the initial MFCS against the real level-1 candidate count:
        # a warm-start seed holds one element per known maximal itemset,
        # which is its steady size, not an explosion
        maintaining = policy.keep_mfcs(0, len(mfcs), len(candidates), 0)
        # every itemset known frequent, counted or virtual (MFS-implied)
        frequents_seen: Set[Itemset] = set()
        longest_maximal = 0
        k = 0

        run_span = obs.span(
            "run",
            algorithm=self.name,
            engine=engine.name,
            kernel=lattice.name,
            num_transactions=len(db),
            min_support_count=threshold,
        )
        with _engine_scope(engine, counter is None), run_span:
            while maintaining and (candidates or len(mfcs) > 0):
                k += 1
                if k > 2 * db.num_items + 4:
                    # bottom-up needs ≤ n levels; the pure top-down descent
                    # of A1/A2 at most n more (one level per free pass)
                    raise AssertionError("pincer-search failed to terminate")
                pass_stats = PassStats(pass_number=k)
                pass_started = time.perf_counter()
                splits_before = mfcs.splits
                exclusions_before = mfcs.exclusions
                cover_queries_before = mfcs.cover_queries
                cover_visits_before = mfcs.cover_node_visits
                with obs.span("pass", k=k) as pass_span:
                    # ----- one database read: C_k plus unclassified MFCS
                    # elements (the engine emits the nested "count" span)
                    mfcs_elements = sorted(mfcs)
                    uncounted_candidates = [
                        c for c in candidates if c not in supports
                    ]
                    batch = dict.fromkeys(uncounted_candidates)
                    for element in mfcs_elements:
                        if element not in supports:
                            batch[element] = None
                    count_started = time.perf_counter()
                    supports.update(engine.count(db, batch))
                    pass_rate = rate_estimator.observe(
                        len(batch), time.perf_counter() - count_started
                    )
                    engine.note_pass_rate(pass_rate)
                    if obs.enabled and pass_rate is not None:
                        # the same EWMA the shard scheduler consults,
                        # mirrored for the metrics document / serve's
                        # Prometheus exposition
                        obs.gauge("miner.pass_rate").set(round(pass_rate, 3))
                    pass_stats.bottom_up_candidates = len(uncounted_candidates)
                    # MFCS elements counted this pass (an element that
                    # doubles as a bottom-up candidate is billed once, as
                    # the bottom-up side)
                    pass_stats.mfcs_candidates = len(batch) - len(
                        uncounted_candidates
                    )

                    with obs.span("prune"):
                        # ----- classify the MFCS elements (paper line 7
                        # + amendment A2)
                        infrequent_mfcs: List[Itemset] = []
                        for element in mfcs_elements:
                            if supports[element] >= threshold:
                                mfs.add(element)
                                mfs_cover.add(element)
                                mfcs.remove(element)
                                pass_stats.maximal_found += 1
                                longest_maximal = max(
                                    longest_maximal, len(element)
                                )
                            else:
                                infrequent_mfcs.append(element)

                        # ----- classify the bottom-up candidates (paper
                        # lines 8-9)
                        frequent_in_ck = [
                            c for c in candidates if supports[c] >= threshold
                        ]
                        infrequent_in_ck = [
                            c for c in candidates if supports[c] < threshold
                        ]
                        level_frequents = [
                            c for c in frequent_in_ck if not mfs_cover.covers(c)
                        ]
                        pass_stats.frequent_found = len(frequent_in_ck)
                        pass_stats.infrequent_found = len(infrequent_in_ck)
                        pass_stats.pruned_as_mfs_subsets = len(
                            frequent_in_ck
                        ) - len(level_frequents)
                        frequents_seen.update(level_frequents)

                    # ----- pre-update adaptivity (Section 3.5): the
                    # policy prices keeping against rebuilding, or with an
                    # empty MFS applies the "many 2-itemsets, few
                    # frequent" cue and the Geerts–Goethals–Van den
                    # Bussche candidate bound; a hopeless pass abandons
                    # the MFCS before the expensive MFCS-gen update starts
                    bound = candidate_upper_bound(len(level_frequents), k)
                    if obs.enabled:
                        pass_span.set(candidate_bound=bound)
                        obs.gauge("miner.candidate_bound").set(bound)
                    # engines with a live telemetry plane publish the
                    # bound so `pincer obs top` can show an honest ETA
                    engine.note_candidate_bound(bound)
                    maintaining = policy.keep_after_classification(
                        k, len(frequent_in_ck), len(candidates), longest_maximal,
                        mfcs_size=len(mfcs), candidate_bound=bound,
                        mfs_size=len(mfs), infrequent_mfcs=len(infrequent_mfcs),
                    )
                    if not maintaining:
                        pass_stats.mfcs_size_after = 0
                        pass_stats.seconds = time.perf_counter() - pass_started
                        if pass_stats.total_candidates:
                            stats.passes.append(pass_stats)
                        self._finish_pass_obs(
                            obs, pass_span, pass_stats,
                            mfcs.splits - splits_before,
                            mfcs.exclusions - exclusions_before,
                            mfcs.cover_queries - cover_queries_before,
                            mfcs.cover_node_visits - cover_visits_before,
                            candidate_bound=bound,
                            mfs_size=len(mfs),
                        )
                        break

                    # ----- update MFCS (paper line 14, with A2/A4)
                    with obs.span("mfcs_gen") as mfcs_span:
                        if longest_maximal > policy.abandon_length_cap:
                            # abandonment is off the table (see
                            # AdaptivePolicy docs), so a mid-update cap
                            # abort must not fire either
                            size_cap = work_cap = None
                        else:
                            size_cap = policy.update_size_cap
                            work_cap = policy.update_work_cap
                        completed = mfcs.update(
                            infrequent_in_ck,
                            protected=mfs_cover,
                            size_cap=size_cap,
                            work_cap=work_cap,
                        )
                        if completed:
                            completed = mfcs.update(
                                infrequent_mfcs,
                                protected=mfs_cover,
                                size_cap=size_cap,
                                work_cap=work_cap,
                            )
                        if not completed:
                            # mid-update size blow-up (scattered
                            # distributions): the MFCS contents are no
                            # longer meaningful
                            policy.abandon()
                            maintaining = False
                        pass_stats.mfcs_size_after = (
                            len(mfcs) if maintaining else 0
                        )
                        mfcs_span.set(
                            completed=completed,
                            mfcs_size=pass_stats.mfcs_size_after,
                        )

                    # ----- candidate generation + adaptivity (paper
                    # lines 10-13, §3.5)
                    if maintaining:
                        with obs.span("generate"):
                            next_candidates = lattice.generate_candidates(
                                level_frequents, mfs_cover, k
                            )
                            if mfs:
                                with obs.span("recover"):
                                    pass_stats.recovered_candidates = (
                                        _count_recovered(
                                            lattice, level_frequents,
                                            next_candidates,
                                        )
                                    )
                            if self._prune_uncovered:
                                next_candidates = {
                                    c
                                    for c in next_candidates
                                    if mfcs.covers(c) or mfs_cover.covers(c)
                                }
                        maintaining = policy.keep_mfcs(
                            k,
                            len(mfcs),
                            len(next_candidates),
                            pass_stats.maximal_found,
                            longest_maximal,
                            mfs_size=len(mfs),
                        )
                        candidates = sorted(next_candidates)

                    pass_stats.seconds = time.perf_counter() - pass_started
                    if pass_stats.total_candidates:
                        stats.passes.append(pass_stats)
                    self._finish_pass_obs(
                        obs, pass_span, pass_stats,
                        mfcs.splits - splits_before,
                        mfcs.exclusions - exclusions_before,
                        mfcs.cover_queries - cover_queries_before,
                        mfcs.cover_node_visits - cover_visits_before,
                        candidate_bound=bound,
                        mfs_size=len(mfs),
                    )

            if not maintaining:
                stats.abandon_pass = k
                stats.abandon_reason = policy.abandon_reason or "policy"
                # The MFCS was abandoned (Section 3.5's adaptive fallback)
                # or never maintained: finish bottom-up with an Apriori
                # sweep over the not-yet-covered region.  If no maximal
                # itemset was discovered before abandonment, no pruning
                # ever removed a frequent itemset and the levels
                # classified so far are complete — the sweep resumes right
                # at the current level.  Otherwise it rebuilds every level
                # from the bottom, because the maintained phase's
                # candidate generation only guarantees completeness
                # jointly with the MFCS (the recovery procedure misses
                # candidates both of whose join parents are subsets of two
                # *different* MFS members — see DESIGN.md A6).  Either
                # way, already-counted itemsets and subsets of discovered
                # maximal itemsets are classified from cache, so only
                # genuinely unknown itemsets reach the engine.
                logger.info(
                    "MFCS abandoned after pass %d; completing bottom-up", k
                )
                if progress.enabled:
                    progress.on_abandon(k=k, reason=stats.abandon_reason)
                start_level = k if not mfs else None
                self._complete_bottom_up(
                    db, engine, supports, threshold, mfs_cover, frequents_seen,
                    stats, k, start_level, obs=obs, lattice=lattice,
                    rate_estimator=rate_estimator,
                )

            final_mfs = maximal_elements(mfs | frequents_seen)
            stats.seconds = time.perf_counter() - started
            stats.records_read = engine.records_read
            if obs.enabled:
                run_span.set(
                    passes=stats.num_passes,
                    total_candidates=stats.total_candidates,
                    mfs_size=len(final_mfs),
                    records_read=stats.records_read,
                    abandoned=not maintaining,
                    abandon_pass=stats.abandon_pass,
                    abandon_reason=stats.abandon_reason,
                )
                obs.gauge("miner.mfs_size").set(len(final_mfs))
                obs.counter("miner.runs").inc()
        if progress.enabled:
            progress.on_finish(
                mfs_size=len(final_mfs),
                passes=stats.num_passes,
                seconds=stats.seconds,
            )
        logger.debug("%s", stats.summary())
        return MiningResult(
            mfs=frozenset(final_mfs),
            supports=supports,
            num_transactions=len(db),
            min_support_count=threshold,
            min_support=fraction,
            algorithm=self.name,
            stats=stats,
        )

    @staticmethod
    def _finish_pass_obs(
        obs: Instrumentation,
        pass_span,
        pass_stats: PassStats,
        splits: int,
        exclusions: int,
        cover_queries: int = 0,
        cover_node_visits: int = 0,
        candidate_bound: int = 0,
        mfs_size: int = 0,
    ) -> None:
        """Record one finished pass on its span and in the registry."""
        logger.debug(
            "pass %d: %d bottom-up + %d MFCS candidates, %d frequent, "
            "%d maximal, |MFCS|=%d",
            pass_stats.pass_number, pass_stats.bottom_up_candidates,
            pass_stats.mfcs_candidates, pass_stats.frequent_found,
            pass_stats.maximal_found, pass_stats.mfcs_size_after,
        )
        progress = obs.progress
        if progress.enabled:
            progress.on_pass(
                k=pass_stats.pass_number,
                candidates=pass_stats.total_candidates,
                mfcs_size=pass_stats.mfcs_size_after,
                candidate_bound=candidate_bound,
                maximal_found=pass_stats.maximal_found,
                mfs_size=mfs_size,
            )
        if not obs.enabled:
            return
        pass_span.set(
            mfcs_splits=splits,
            mfcs_exclusions=exclusions,
            **pass_stats.to_dict(),
        )
        obs.counter("miner.candidates.bottom_up").inc(
            pass_stats.bottom_up_candidates
        )
        obs.counter("miner.candidates.mfcs").inc(pass_stats.mfcs_candidates)
        obs.counter("miner.frequent_found").inc(pass_stats.frequent_found)
        obs.counter("miner.maximal_found").inc(pass_stats.maximal_found)
        obs.counter("miner.recovered_candidates").inc(
            pass_stats.recovered_candidates
        )
        obs.counter("miner.pruned_as_mfs_subsets").inc(
            pass_stats.pruned_as_mfs_subsets
        )
        obs.counter("mfcs.splits").inc(splits)
        obs.counter("mfcs.exclusions").inc(exclusions)
        obs.counter("mfcs.cover_queries").inc(cover_queries)
        obs.counter("mfcs.cover_node_visits").inc(cover_node_visits)
        obs.gauge("mfcs.size").set(pass_stats.mfcs_size_after)

    # ------------------------------------------------------------------

    @staticmethod
    def _complete_bottom_up(
        db: TransactionDatabase,
        engine: SupportCounter,
        supports: Dict[Itemset, int],
        threshold: int,
        mfs_cover,
        frequents_seen: Set[Itemset],
        stats: MiningStats,
        pass_number: int,
        start_level: Optional[int] = None,
        obs: Instrumentation = NOOP,
        lattice: Optional[LatticeKernel] = None,
        rate_estimator: Optional[PassRateEstimator] = None,
    ) -> None:
        """Apriori with a frequency oracle — the post-abandonment sweep.

        Classic levelwise search in which a candidate is classified
        without touching the database when (a) its support is already
        cached from the maintained phase, or (b) it is a subset of a
        discovered maximal frequent itemset (Observation 2).  Only the
        remaining unknowns are counted, one pass per level that has any.
        Every frequent itemset encountered lands in ``frequents_seen``,
        from which the caller's final ``maximal_elements`` derives the
        MFS.

        ``start_level`` resumes from an already-complete level (valid
        only when the maintained phase never pruned a frequent itemset,
        i.e. the MFS was still empty at abandonment); None rebuilds from
        level 1.
        """
        if lattice is None:
            lattice = make_kernel(None, db.universe)
        if start_level is not None and start_level >= 1:
            current = sorted(
                f for f in frequents_seen if len(f) == start_level
            )
            level = start_level
        else:
            current = []
            level = 0
        while True:
            level += 1
            if level == 1:
                candidates = first_level_candidates(db.universe)
            else:
                joined = lattice.apriori_join(current)
                candidates = sorted(lattice.apriori_prune(joined, current))
            if not candidates:
                break
            frequent: List[Itemset] = []
            unknown: List[Itemset] = []
            for candidate in candidates:
                count = supports.get(candidate)
                if count is not None:
                    if count >= threshold:
                        frequent.append(candidate)
                elif mfs_cover.covers(candidate):
                    frequent.append(candidate)  # known frequent, uncounted
                else:
                    unknown.append(candidate)
            if unknown:
                pass_number += 1
                pass_stats = stats.new_pass(pass_number)
                pass_started = time.perf_counter()
                with obs.span("sweep", k=level) as sweep_span:
                    count_started = time.perf_counter()
                    supports.update(engine.count(db, unknown))
                    if rate_estimator is not None:
                        engine.note_pass_rate(
                            rate_estimator.observe(
                                len(unknown),
                                time.perf_counter() - count_started,
                            )
                        )
                    pass_stats.bottom_up_candidates = len(unknown)
                    newly_frequent = [
                        c for c in unknown if supports[c] >= threshold
                    ]
                    pass_stats.frequent_found = len(newly_frequent)
                    pass_stats.infrequent_found = len(unknown) - len(
                        newly_frequent
                    )
                    pass_stats.seconds = time.perf_counter() - pass_started
                    if obs.enabled:
                        sweep_span.set(**pass_stats.to_dict())
                        obs.counter("miner.candidates.bottom_up").inc(
                            pass_stats.bottom_up_candidates
                        )
                        obs.counter("miner.frequent_found").inc(
                            pass_stats.frequent_found
                        )
                frequent.extend(newly_frequent)
                progress = obs.progress
                if progress.enabled:
                    progress.on_pass(
                        k=level,
                        candidates=len(unknown),
                        mfcs_size=0,
                        candidate_bound=candidate_upper_bound(
                            len(frequent), level
                        ),
                        phase="sweep",
                    )
            current = sorted(frequent)
            frequents_seen.update(current)
            if not current:
                break


def _count_recovered(
    lattice: LatticeKernel,
    level_frequents: List[Itemset],
    next_candidates: Set[Itemset],
) -> int:
    """How many surviving candidates the plain join alone missed."""
    plain = lattice.apriori_join(level_frequents)
    return sum(1 for candidate in next_candidates if candidate not in plain)


def resolve_threshold(
    db: TransactionDatabase,
    min_support: Optional[float],
    min_count: Optional[int],
) -> Tuple[int, float]:
    """Normalise the (fractional, absolute) support threshold pair."""
    if (min_support is None) == (min_count is None):
        raise ValueError("give exactly one of min_support and min_count")
    if min_count is not None:
        if min_count < 1:
            raise ValueError("min_count must be at least 1")
        fraction = min_count / len(db) if len(db) else 1.0
        return min_count, fraction
    return db.absolute_support(min_support), float(min_support)


def pincer_search(
    db: TransactionDatabase,
    min_support: Optional[float] = None,
    *,
    min_count: Optional[int] = None,
    engine: str = "auto",
    adaptive: bool = True,
    policy: Optional[AdaptivePolicy] = None,
    prune_uncovered: bool = False,
    kernel: Optional[str] = None,
    obs: Optional[Instrumentation] = None,
    initial_mfcs: Optional[List[Itemset]] = None,
    bottom_up: bool = True,
) -> MiningResult:
    """Functional one-shot entry point; see :class:`PincerSearch`.

    >>> from repro.db.transaction_db import TransactionDatabase
    >>> db = TransactionDatabase([[1, 2, 3], [1, 2, 3], [1, 2], [3]])
    >>> sorted(pincer_search(db, 0.5).mfs)
    [(1, 2, 3)]
    """
    miner = PincerSearch(
        engine=engine,
        adaptive=adaptive,
        policy=policy,
        prune_uncovered=prune_uncovered,
        kernel=kernel,
    )
    return miner.mine(
        db, min_support, min_count=min_count, obs=obs,
        initial_mfcs=initial_mfcs, bottom_up=bottom_up,
    )
