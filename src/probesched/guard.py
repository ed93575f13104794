"""The resource bound the subcommands share, and the refusal it raises.

A problem whose size exceeds its bound is refused before the work or
memory it would take is spent; the CLI exits 3 on the refusal.  Each op
counts its size in its own unit against its own bound:

    op                unit: count                                 bound
    ----------------  ------------------------------------------  ----------
    index             rows: 2 x N x horizon                       10^7
    simulate          draws: R x N x (T + 20)                     2^27
                        + (20 x N + 1024) x T
    evaluate, oracle  belief, branch and sweep entries: the       the config's
                        three counts of `oracle._graph`           `bound`, 10^7
                                                                  by default
    subsidy           slot-walks: S x (1 + log2(S) + 100) for     10^7
                        the S slots its arm tables hold

10^7 is DEFAULT_BOUND and 2^27 is `sim.MAX_UNIFORMS`.  The sweep entries
charged are those of `oracle`'s value iterations, one for the optimum and
one per policy, and of one iteration for `evaluate`, though it runs one
per policy.
"""

DEFAULT_BOUND = 10_000_000


class SearchSpaceError(RuntimeError):
    """Raised when a problem's size exceeds the bound set on it, before the
    work is done: an exact op's graph, whose belief table, branch entries
    and value-iteration sweeps `oracle._graph` counts; the simulator's run
    size; the rows of an index table; or the arm-table slots a relaxed
    budget's solve holds and walks."""

    def __init__(self, count: int, bound: int, what: str):
        self.count = count
        self.bound = bound
        super().__init__(f"search space too large: {count} {what} exceeds the bound {bound}")
