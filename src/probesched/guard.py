"""The resource bound the subcommands share, and the refusal it raises.

A problem whose size exceeds its bound is refused before the work or
memory it would take is spent; the CLI exits 3 on the refusal.
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
