"""Corruption-sweep harness enforcing the decoder robustness contract.

The contract (see :mod:`repro.codec.errors`): any byte string fed to
:class:`~repro.codec.decoder.VopDecoder` either decodes -- possibly with
concealment in tolerant mode -- or raises a typed ``BitstreamError``,
within a bounded amount of work.  The harness classifies each corrupted
stream into one of five outcomes:

- ``decoded``: the decoder returned a sequence and took no concealment
  path (the corruption missed coded data, or decoded as valid events);
- ``concealed``: the decoder returned a sequence but patched over
  damage -- lost packets, concealed texture, or concealed frames;
- ``rejected``: a typed :class:`~repro.codec.errors.BitstreamError`;
- ``uncaught``: any other exception escaped -- a contract violation;
- ``hang``: the per-case wall-clock budget expired -- a contract
  violation.

Hang detection uses the shared :func:`repro.core.runner.deadline.time_budget`
utility -- ``SIGALRM`` on the main thread, an async-exception deadline
everywhere else -- so the sweep interrupts runaway cases even when run
from worker threads, and shares one timeout implementation with the
supervised study runner's per-cell watchdog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec.decoder import VopDecoder
from repro.codec.errors import BitstreamError
from repro.conformance.fuzzer import MUTATIONS, BitstreamFuzzer, FuzzCase
from repro.core.runner.deadline import BudgetExpired, time_budget

#: Acceptance-criteria default: five seconds of wall clock per case.
DEFAULT_TIME_BUDGET_S = 5.0

@dataclass(frozen=True)
class CaseResult:
    """Outcome of one corrupted decode."""

    case: FuzzCase
    outcome: str  # "decoded" | "concealed" | "rejected" | "uncaught" | "hang"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in ("decoded", "concealed", "rejected")


@dataclass
class SweepReport:
    """Aggregate result of a corruption sweep."""

    results: list[CaseResult] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        return counts

    @property
    def failures(self) -> list[CaseResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        counts = self.counts
        parts = [f"{len(self.results)} cases"]
        for outcome in ("decoded", "concealed", "rejected", "uncaught", "hang"):
            if outcome in counts:
                parts.append(f"{outcome}={counts[outcome]}")
        lines = [", ".join(parts)]
        for failure in self.failures:
            lines.append(
                f"  FAIL {failure.case}: {failure.outcome} -- {failure.detail}"
            )
        return "\n".join(lines)


def decode_case(
    data: bytes,
    case: FuzzCase,
    tolerate_errors: bool = False,
    time_budget_s: float = DEFAULT_TIME_BUDGET_S,
) -> CaseResult:
    """Apply one corruption and decode it under the contract."""
    corrupted = case.apply(data)
    try:
        with time_budget(time_budget_s):
            decoded = VopDecoder().decode_sequence(
                corrupted, tolerate_errors=tolerate_errors
            )
    except BitstreamError as error:
        return CaseResult(case, "rejected", type(error).__name__)
    except BudgetExpired:
        return CaseResult(case, "hang", f"exceeded {time_budget_s:.1f}s budget")
    except Exception as error:  # noqa: BLE001 -- the contract violation we hunt
        return CaseResult(case, "uncaught", f"{type(error).__name__}: {error}")
    if not decoded.is_clean:
        return CaseResult(
            case, "concealed", f"{decoded.concealment_events} concealment event(s)"
        )
    return CaseResult(case, "decoded")


def run_corruption_sweep(
    data: bytes,
    n_cases: int = 500,
    master_seed: int = 0,
    mutations: tuple[str, ...] = MUTATIONS,
    tolerate_errors: bool = False,
    time_budget_s: float = DEFAULT_TIME_BUDGET_S,
) -> SweepReport:
    """Seeded corruption sweep over one pristine stream.

    Every failing entry in the report is replayable from its
    ``(seed, mutation)`` pair alone (plus the pristine stream).
    """
    fuzzer = BitstreamFuzzer(master_seed, mutations)
    report = SweepReport()
    for case in fuzzer.cases(n_cases):
        report.results.append(
            decode_case(data, case, tolerate_errors, time_budget_s)
        )
    return report
