"""The fault injector: arms a :class:`FaultPlan` against a live federation.

Faults are first-class simulation events: :meth:`FaultInjector.arm`
pre-schedules every plan event (plus each elastic rule's finite check
grid) on the federation's shared discrete-event engine, then the
simulation run plays them back deterministically.

What a fault *does*:

- **crash** -- the member's RMS sheds the given number of nodes
  (highest IDs first); applications holding a victim node are killed,
  reported to admission control, and respawned via their registered
  resubmission factory (up to ``max_respawns`` times) or counted lost.
- **restart** -- the nodes come back (same IDs, so replays are
  byte-identical) and a scheduling pass is triggered.
- **outage** -- the whole member goes down: capacity drops to zero, the
  member is flagged ``down`` so the meta-scheduler reroutes around it.
- **recover** -- the member returns at its pre-outage size.
- **elastic rules** -- on their check grid, members above the high-water
  utilization grow and members below the low-water mark gently shed
  *free* nodes (elasticity never kills running jobs).

The injector also keeps the recovery ledger: per-member degradation
spans (first capacity loss until capacity is back at baseline), jobs
lost / rescheduled / rejected, and the SLA attainment derived from them
-- all surfaced by :meth:`summary` as flat ``fault_*`` metrics.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import AdmissionError, RequestError
from ..obs import hooks as _obs
from ..sim.randomness import MAX_DERIVED_SEED, derive_seed
from .admission import AdmissionController
from .plan import FaultEvent, FaultPlan

__all__ = ["FaultInjector"]

#: A submission factory: given an application name, builds and submits the
#: job (resubmits it, after a kill), returning nothing.  May raise
#: :class:`AdmissionError`/:class:`RequestError`, in which case the job
#: counts as rejected (its first submission) or lost (a resubmission).
RespawnFactory = Callable[[str], None]


class FaultInjector:
    """Plays one :class:`FaultPlan` into a federation, deterministically."""

    def __init__(self, plan: FaultPlan, federation, seed: Optional[int] = 0):
        self.plan = plan
        self.federation = federation
        self.simulator = federation.simulator
        self.seed = 0 if seed is None else int(seed)
        self.admission: Optional[AdmissionController] = None
        if plan.admission is not None:
            self.admission = AdmissionController(
                plan.admission, [m.name for m in federation.members]
            )
            federation.meta.admission = self.admission
        self.counts: Dict[str, int] = {
            "crashes": 0, "restarts": 0, "outages": 0, "recoveries": 0,
            "jobs_lost": 0, "jobs_rescheduled": 0, "jobs_rejected": 0,
            "elastic_grows": 0, "elastic_shrinks": 0,
        }
        #: Completed degradation spans, seconds (capacity loss -> restored).
        self.recovery_seconds: List[float] = []
        self.submitted = 0
        self._armed = False
        #: Healthy capacity per member; recovery means being back at this
        #: size.  Elastic grow/shrink moves the baseline (it is a policy
        #: decision, not a degradation).
        self._baseline: Dict[str, int] = {}
        self._degraded_since: Dict[str, float] = {}
        self._outage_nodes: Dict[str, int] = {}
        #: Per-member (min, max) elastic bounds from the ClusterSpecs.
        self._spec_bounds: Dict[str, Tuple[int, int]] = {}
        #: app id -> (factory, respawns so far, original name).
        self._respawns: Dict[str, Tuple[RespawnFactory, int, str]] = {}

    # ------------------------------------------------------------------ #
    def arm(self) -> None:
        """Pre-schedule every plan event on the shared event engine."""
        if self._armed:
            raise ValueError(f"fault plan {self.plan.name!r} is already armed")
        self._armed = True
        for member in self.federation.members:
            self._baseline[member.name] = member.capacity
        self._spec_bounds = {
            c.name: (c.min_nodes, c.max_nodes)
            for c in self.federation.spec.clusters
        }
        for i, event in enumerate(self.plan.events):
            member = self._resolve(event.member)
            time = event.time + self._jitter(i)
            self.simulator.schedule_at(time, self._apply, event, member)
        for rule in self.plan.elastic:
            member = self._resolve(rule.member)
            for time in rule.check_times():
                self.simulator.schedule_at(time, self._elastic_check, rule, member)
        tracer = _obs.TRACER[0]
        if tracer is not None:
            tracer.emit(
                self.simulator.now,
                "fault",
                "plan",
                {
                    "plan": self.plan.name,
                    "events": len(self.plan.events),
                    "elastic": len(self.plan.elastic),
                    "admission": self.admission is not None,
                },
            )

    def _jitter(self, index: int) -> float:
        if self.plan.jitter <= 0:
            return 0.0
        draw = derive_seed(self.seed, "fault-jitter", index) / MAX_DERIVED_SEED
        return self.plan.jitter * draw

    def _resolve(self, ref: str):
        """A member reference: a cluster name or ``"#i"`` federation index."""
        members = self.federation.members
        if ref.startswith("#"):
            try:
                index = int(ref[1:])
            except ValueError:
                raise ValueError(
                    f"fault plan {self.plan.name!r}: bad member reference {ref!r}"
                ) from None
            if not 0 <= index < len(members):
                raise ValueError(
                    f"fault plan {self.plan.name!r} references member {ref!r} "
                    f"but the federation has {len(members)} members"
                )
            return members[index]
        try:
            return self.federation.member(ref)
        except KeyError as exc:
            raise ValueError(
                f"fault plan {self.plan.name!r}: {exc.args[0]}"
            ) from None

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #
    def _apply(self, event: FaultEvent, member) -> None:
        now = self.simulator.now
        reason = f"fault:{self.plan.name}:{event.kind}"
        if event.kind == "crash":
            self.counts["crashes"] += 1
            self._mark_degraded(member, now)
            target = max(0, member.capacity - event.nodes)
            killed = member.rms.set_capacity(target, reason=reason)
            self._emit(now, "crash", {
                "member": member.name, "nodes": event.nodes, "killed": killed,
            })
            self._handle_killed(member, killed, now)
        elif event.kind == "restart":
            self.counts["restarts"] += 1
            member.rms.set_capacity(member.capacity + event.nodes, reason=reason)
            self._emit(now, "restart", {
                "member": member.name, "nodes": event.nodes,
            })
            self._maybe_recovered(member, now)
        elif event.kind == "outage":
            if member.down:
                return
            self.counts["outages"] += 1
            self._mark_degraded(member, now)
            self._outage_nodes[member.name] = member.capacity
            member.down = True
            killed = member.rms.set_capacity(0, reason=reason)
            self._emit(now, "outage", {"member": member.name, "killed": killed})
            self._down_counter(now)
            self._handle_killed(member, killed, now)
        elif event.kind == "recover":
            if not member.down:
                return
            self.counts["recoveries"] += 1
            member.down = False
            restored = self._outage_nodes.pop(
                member.name, self._baseline[member.name]
            )
            member.rms.set_capacity(restored, reason=reason)
            self._emit(now, "recover", {"member": member.name, "nodes": restored})
            self._down_counter(now)
            self._maybe_recovered(member, now)

    def _mark_degraded(self, member, now: float) -> None:
        self._degraded_since.setdefault(member.name, now)

    def _maybe_recovered(self, member, now: float) -> None:
        started = self._degraded_since.get(member.name)
        if started is not None and member.capacity >= self._baseline[member.name]:
            del self._degraded_since[member.name]
            self.recovery_seconds.append(now - started)

    def _down_counter(self, now: float) -> None:
        tracer = _obs.TRACER[0]
        if tracer is not None:
            down = sum(1 for m in self.federation.members if m.down)
            tracer.counter(now, "fault", "down", {"members": float(down)})

    def _emit(self, now: float, name: str, args: Dict) -> None:
        tracer = _obs.TRACER[0]
        if tracer is not None:
            tracer.emit(now, "fault", name, args)
        metrics = _obs.METRICS[0]
        if metrics is not None:
            metrics.inc(f"fault.events[{name}]")

    # ------------------------------------------------------------------ #
    # Elasticity
    # ------------------------------------------------------------------ #
    def _elastic_check(self, rule, member) -> None:
        now = self.simulator.now
        # A down or degraded member is the fault path's business, not the
        # elastic policy's; sit the check out.
        if member.down or member.name in self._degraded_since:
            return
        capacity = member.capacity
        if capacity <= 0:
            return
        # The rule's own bounds compose with the member ClusterSpec's
        # declarative elastic bounds (0 = unbounded on either side).
        spec_min, spec_max = self._spec_bounds.get(member.name, (0, 0))
        floor = max(rule.min_nodes, spec_min)
        util = (capacity - member.free_nodes()) / capacity
        if util >= rule.high_util and rule.grow_step > 0:
            target = capacity + rule.grow_step
            for ceiling in (rule.max_nodes, spec_max):
                if ceiling:
                    target = min(target, ceiling)
            if target > capacity:
                member.rms.set_capacity(target, reason="elastic grow")
                self._baseline[member.name] = target
                self.counts["elastic_grows"] += 1
                self._emit(now, "elastic-grow", {
                    "member": member.name, "nodes": target - capacity,
                    "util": round(util, 6),
                })
        elif util <= rule.low_util and rule.shrink_step > 0:
            removable = min(rule.shrink_step, capacity - floor)
            if removable > 0:
                removed = member.rms.release_capacity(
                    removable, reason="elastic shrink"
                )
                if removed:
                    self._baseline[member.name] = member.capacity
                    self.counts["elastic_shrinks"] += 1
                    self._emit(now, "elastic-shrink", {
                        "member": member.name, "nodes": removed,
                        "util": round(util, 6),
                    })

    # ------------------------------------------------------------------ #
    # Workload bookkeeping (driven by the scenario runner)
    # ------------------------------------------------------------------ #
    def submit(self, job_id: str, spawn: RespawnFactory) -> None:
        """Offer one workload job: submit it now via *spawn*, account for it.

        A refusal of the initial submission (admission control, or no
        member that fits) counts the job rejected instead of raising; once
        submitted, *spawn* is kept as the factory that resubmits the job
        when a fault kills it.
        """
        self.submitted += 1
        try:
            spawn(job_id)
        except (AdmissionError, RequestError):
            self.counts["jobs_rejected"] += 1
            self._emit(self.simulator.now, "rejected", {"app": job_id})
            return
        self._respawns[job_id] = (spawn, 0, job_id)

    def _handle_killed(self, member, killed: List[str], now: float) -> None:
        for app_id in killed:
            if self.admission is not None:
                self.admission.record_failure(member.name, now)
            self._respawn(app_id, now)

    def _respawn(self, app_id: str, now: float) -> None:
        entry = self._respawns.pop(app_id, None)
        if entry is None or entry[1] >= self.plan.max_respawns:
            self.counts["jobs_lost"] += 1
            self._emit(now, "lost", {"app": app_id})
            return
        factory, attempts, base = entry
        new_name = f"{base}:r{attempts + 1}"
        try:
            factory(new_name)
        except (AdmissionError, RequestError):
            self.counts["jobs_lost"] += 1
            self._emit(now, "lost", {"app": new_name})
            return
        self._respawns[new_name] = (factory, attempts + 1, base)
        self.counts["jobs_rescheduled"] += 1
        self._emit(now, "rescheduled", {"app": app_id, "as": new_name})

    # ------------------------------------------------------------------ #
    def time_to_recover(self) -> float:
        """Mean seconds from first capacity loss to full restoration."""
        if not self.recovery_seconds:
            return 0.0
        return sum(self.recovery_seconds) / len(self.recovery_seconds)

    def sla_attainment_pct(self) -> float:
        """Share of offered jobs neither lost nor rejected, in percent."""
        if self.submitted <= 0:
            return 100.0
        failed = self.counts["jobs_lost"] + self.counts["jobs_rejected"]
        pct = 100.0 * (self.submitted - failed) / self.submitted
        return max(0.0, min(100.0, pct))

    def summary(self) -> Dict[str, float]:
        """Flat ``fault_*`` metrics merged into the scenario's metric row."""
        out: Dict[str, float] = {
            "fault_crashes": float(self.counts["crashes"]),
            "fault_restarts": float(self.counts["restarts"]),
            "fault_outages": float(self.counts["outages"]),
            "fault_recoveries": float(self.counts["recoveries"]),
            "fault_jobs_lost": float(self.counts["jobs_lost"]),
            "fault_jobs_rescheduled": float(self.counts["jobs_rescheduled"]),
            "fault_jobs_rejected": float(self.counts["jobs_rejected"]),
            "fault_elastic_grows": float(self.counts["elastic_grows"]),
            "fault_elastic_shrinks": float(self.counts["elastic_shrinks"]),
            "fault_recovered_count": float(len(self.recovery_seconds)),
            "fault_time_to_recover": round(self.time_to_recover(), 6),
            "fault_sla_attainment_pct": round(self.sla_attainment_pct(), 6),
        }
        if self.admission is not None:
            out["fault_breaker_trips"] = float(self.admission.breaker_trips())
            out["fault_admission_rejections"] = float(self.admission.rejections)
        return out
